package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/ingest"
)

// postUpload uploads netlist with the given query and returns the status
// and the error text of a refusal.
func postUpload(t *testing.T, base, query string, netlist []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(base+"/designs"+query, "text/plain", bytes.NewReader(netlist))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct{ Error string }
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		if err := json.Unmarshal(b, &body); err != nil {
			t.Fatalf("status %d: %v: %s", resp.StatusCode, err, b)
		}
	}
	return resp.StatusCode, body.Error
}

// TestUploadRejectsAsParse: an upload of each reject class — every one
// /trace refuses, a BLIF netlist that does not parse and an unknown format
// — gets 400 and the text the reader's error gives ("parsing <format>
// netlist: ..."), and an empty body gets "empty netlist". Nothing is
// stored.
func TestUploadRejectsAsParse(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := rejectNetlists()
	cases = append(cases,
		struct{ name, format, src string }{"bad cube", "blif", ".model m\n.inputs a\n.outputs q\n.names a q\n2 1\n.end\n"},
		struct{ name, format, src string }{"unknown format", "edif", "(edif m)"},
	)
	for _, tc := range cases {
		_, perr := ingest.Parse(tc.format, []byte(tc.src))
		if perr == nil {
			t.Fatalf("%s (%s): ingest.Parse accepted it", tc.name, tc.format)
		}
		status, msg := postUpload(t, ts.URL, "?format="+tc.format, []byte(tc.src))
		want := fmt.Sprintf("parsing %s netlist: %v", tc.format, perr)
		if status != http.StatusBadRequest || msg != want {
			t.Errorf("%s (%s): %d %q, want 400 %q", tc.name, tc.format, status, msg, want)
		}
	}
	if status, msg := postUpload(t, ts.URL, "", []byte(" \n")); status != http.StatusBadRequest || msg != "empty netlist" {
		t.Errorf("empty body: %d %q, want 400 %q", status, msg, "empty netlist")
	}
	if n := s.NumDesigns(); n != 0 {
		t.Errorf("%d designs known after refused uploads", n)
	}
}

// TestUploadPublishedOnlyWhenStored: while one upload's store of a design
// stalls in fsync, a duplicate upload and an issue against its digest must
// not be acknowledged unless the design is durably stored; if the store
// then fails, the design is neither stored nor known and no copy of it was
// acknowledged. Publishing the design before its bytes were durable broke
// both: the duplicate got 200 and the issue was acknowledged while nothing
// was stored, and after the first store failed the design was forgotten.
func TestUploadPublishedOnlyWhenStored(t *testing.T) {
	for _, tc := range []struct {
		name, faults string
		stored       bool
	}{
		{"stall", "store.fsync:delay=400ms,count=1", true},
		{"stall then fail", "store.fsync:delay=400ms,count=1;store.write:after=1", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			s.backoff = time.Millisecond
			data := benchBytes(t, "c880")
			a, err := ingest.Analyze(context.Background(), "bench", data)
			if err != nil {
				t.Fatal(err)
			}
			digest := a.Digest()
			chaosFaults(t, tc.faults)

			var wg sync.WaitGroup
			wg.Add(1)
			var first int
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/designs", "text/plain", bytes.NewReader(data))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				first = resp.StatusCode
			}()
			for deadline := time.Now().Add(10 * time.Second); fault.Fires(fault.StoreFsync) == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the first upload never reached its store's fsync")
				}
			}
			// The first upload's store is stalled for 400 ms from here.
			var acked []string
			status, _, _ := rawIssue(t, ts.URL, digest, "early", "")
			if status == http.StatusOK {
				if !s.store.HasDesign(digest) {
					t.Error("issue acknowledged while the design is not stored")
				}
				acked = append(acked, "early")
			}
			status, _ = postUpload(t, ts.URL, "", data)
			if (status == http.StatusOK || status == http.StatusCreated) && !s.store.HasDesign(digest) {
				t.Errorf("duplicate upload answered %d while the design is not stored", status)
			}
			wg.Wait()

			stored, known := s.store.HasDesign(digest), s.lookupDesign(digest) != nil
			if stored != tc.stored || known != tc.stored {
				t.Errorf("after the uploads (first answered %d): stored %v known %v, want %v", first, stored, known, tc.stored)
			}
			if !tc.stored && len(acked) > 0 {
				t.Errorf("copies %v acknowledged for a design that was never stored", acked)
			}
		})
	}
}

// TestReadAllAsIOReadAll: readAll returns what io.ReadAll returns whether
// the declared size is right, too small, too large or missing.
func TestReadAllAsIOReadAll(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 100_000} {
		src := bytes.Repeat([]byte("0123456789abcdef"), n/16+1)[:n]
		for _, size := range []int64{int64(n), int64(n) / 2, int64(n) + 1000, 1 << 20, -1} {
			got, err := readAll(bytes.NewReader(src), size)
			if err != nil || !bytes.Equal(got, src) {
				t.Errorf("%d bytes declared as %d: %d bytes, %v", n, size, len(got), err)
			}
		}
	}
}

// firstRead records the buffer size of the first Read call and then
// reports the end of the body: the room readAll reserved before any byte
// arrived.
type firstRead struct{ n int }

func (r *firstRead) Read(p []byte) (int, error) {
	if r.n == 0 {
		r.n = len(p)
	}
	return 0, io.EOF
}

// TestReadAllDeclaredButUnsent: a body that declares 1 MiB and sends
// nothing gets no more than maxPresize of buffer, while a declared body
// under it gets its full size in one buffer, as it arrives.
func TestReadAllDeclaredButUnsent(t *testing.T) {
	for _, tc := range []struct{ declared, min, max int64 }{
		// The allocator rounds a large buffer up to whole 8 KiB pages.
		{1 << 20, maxPresize, maxPresize + 16<<10},
		{50_000, 50_000, 64 << 10},
		{-1, bytes.MinRead, 4 << 10},
	} {
		var r firstRead
		if _, err := readAll(&r, tc.declared); err != nil {
			t.Fatal(err)
		}
		if n := int64(r.n); n < tc.min || n > tc.max {
			t.Errorf("declared %d: %d bytes reserved before the body, want %d to %d", tc.declared, n, tc.min, tc.max)
		}
	}
}

// TestStoreDesignTurnsPerDigest: while one design's files are being
// written, a store of another design goes ahead, and a second store of the
// same design waits, then finds it known and writes nothing.
func TestStoreDesignTurnsPerDigest(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ctx := context.Background()
	digestA, digestB := strings.Repeat("a", 32), strings.Repeat("b", 32)
	meta := DesignMeta{Design: "m", Format: "bench"}

	writing, release := make(chan struct{}), make(chan struct{})
	firstDone := make(chan error, 1)
	go func() {
		_, _, err := s.storeDesign(ctx, digestA, meta, func() error {
			close(writing)
			<-release
			return nil
		})
		firstDone <- err
	}()
	<-writing

	if _, existed, err := s.storeDesign(ctx, digestB, meta, func() error { return nil }); err != nil || existed {
		t.Fatalf("store of another design during a stalled one: existed %v, %v", existed, err)
	}

	second := make(chan bool, 1)
	go func() {
		_, existed, err := s.storeDesign(ctx, digestA, meta, func() error {
			t.Error("a second store of a design wrote its files")
			return nil
		})
		if err != nil {
			t.Error(err)
		}
		second <- existed
	}()
	select {
	case <-second:
		t.Fatal("a second store of a design did not wait for the first")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if !<-second {
		t.Error("the second store of a design did not find it known")
	}

	// A waiter gives up with its context.
	writing, release = make(chan struct{}), make(chan struct{})
	go s.storeDesign(ctx, strings.Repeat("c", 32), meta, func() error {
		close(writing)
		<-release
		return errors.New("write failed")
	})
	<-writing
	cctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, _, err := s.storeDesign(cctx, strings.Repeat("c", 32), meta, func() error { return nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("waiting store under a context that expires: %v", err)
	}
	close(release)
}
