package registrystore

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// segPath names the test digest's segment file inside dir.
func segPath(dir, digest string) string {
	return filepath.Join(dir, digest+walSuffix)
}

// TestScrubCleanPassIsNoop: scrubbing an intact WAL touches nothing.
func TestScrubCleanPassIsNoop(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, err := w.Append(walTestDigest, walRecords(20)); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(segPath(dir, walTestDigest))
	if err != nil {
		t.Fatal(err)
	}
	rep := w.Scrub(nil)
	if rep.Segments != 1 || rep.Corrupt != 0 || rep.Repaired != 0 || rep.Busy != 0 {
		t.Fatalf("clean scrub report %+v", rep)
	}
	after, err := os.ReadFile(segPath(dir, walTestDigest))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("clean scrub rewrote the segment file")
	}
}

// TestScrubRepairsBitFlip: a bit flipped in a committed frame while the
// process is running is detected by the next scrub pass, the damaged file
// is quarantined to *.corrupt, and the rebuilt segment is byte-identical to
// the pre-corruption file — the in-memory replay is authoritative.
func TestScrubRepairsBitFlip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	want := walRecords(30)
	if _, _, err := w.Append(walTestDigest, want); err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, walTestDigest)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), pristine...)
	damaged[walHeaderSize+len(damaged)/3] ^= 0x40
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	rep := w.Scrub(nil)
	if rep.Corrupt != 1 || rep.Repaired != 1 {
		t.Fatalf("scrub report %+v, want corrupt=1 repaired=1", rep)
	}
	rebuilt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt, pristine) {
		t.Fatal("rebuilt segment is not byte-identical to the pre-corruption file")
	}
	quarantined, err := os.ReadFile(path + ".corrupt")
	if err != nil {
		t.Fatalf("no quarantined copy: %v", err)
	}
	if !bytes.Equal(quarantined, damaged) {
		t.Fatal("quarantined copy does not hold the damaged bytes")
	}
	got := w.Records(walTestDigest)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Appends keep working on the rebuilt file and the next pass is clean.
	if _, _, err := w.Append(walTestDigest, []Record{{Buyer: "post-repair", Value: "1"}}); err != nil {
		t.Fatal(err)
	}
	if rep := w.Scrub(nil); rep.Corrupt != 0 {
		t.Fatalf("pass after repair+append still corrupt: %+v", rep)
	}
}

// TestScrubRepairsVanishedFile: a segment file that disappears out from
// under the process (the crash-between-renames shape) is rebuilt whole from
// the in-memory replay.
func TestScrubRepairsVanishedFile(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	want := walRecords(5)
	if _, _, err := w.Append(walTestDigest, want); err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, walTestDigest)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	rep := w.Scrub(nil)
	if rep.Corrupt != 1 || rep.Repaired != 1 {
		t.Fatalf("scrub report %+v, want corrupt=1 repaired=1", rep)
	}
	rebuilt, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rebuilt, pristine) {
		t.Fatal("rebuilt segment differs from the lost file")
	}
}

// TestScrubFetchesLostRecords: when a rebuild runs with a peer fetch, the
// rebuilt segment also adopts records the peers hold that this node lacks —
// lost history comes back along with the repair.
func TestScrubFetchesLostRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	local := walRecords(4)
	if _, _, err := w.Append(walTestDigest, local); err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, walTestDigest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[walHeaderSize+4] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	peerExtra := Record{Buyer: "peer-only", Value: "777"}
	rep := w.Scrub(func(digest string) []Record {
		if digest != walTestDigest {
			t.Fatalf("fetch for unexpected digest %s", digest)
		}
		return append(append([]Record(nil), local...), peerExtra)
	})
	// The flip lands in frame 0's prefix, so no leading frame survives:
	// all four local records plus the peer's are "restored" into the
	// rebuild relative to what the damaged file could still replay.
	if rep.Repaired != 1 || rep.Restored != 5 {
		t.Fatalf("scrub report %+v, want repaired=1 restored=5", rep)
	}
	got := w.Records(walTestDigest)
	if len(got) != 5 || got[4] != peerExtra {
		t.Fatalf("peer record not adopted: %v", got)
	}
	// The rebuilt file replays to the same list.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Records(walTestDigest); len(got) != 5 || got[4] != peerExtra {
		t.Fatalf("rebuilt file replays %v", got)
	}
}

// TestWALOpenSalvagesMidFileCorruption: corruption in the middle of a
// segment discovered at open is not a torn tail — the CRC-valid frames
// beyond the damage are salvaged, the file is quarantined and rebuilt, and
// only the records inside the damaged region are lost (to be refetched from
// peers by Sync or the scrubber).
func TestWALOpenSalvagesMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := walRecords(10)
	if _, _, err := w.Append(walTestDigest, want); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, walTestDigest)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate frame 3's offset and flip a bit inside it.
	off := int64(walHeaderSize)
	for i := 0; i < 3; i++ {
		_, next, ok := decodeFrame(data, off, uint64(i))
		if !ok {
			t.Fatalf("prep decode of frame %d failed", i)
		}
		off = next
	}
	data[off+walFrameOverhead+2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := w2.Records(walTestDigest)
	if len(got) != len(want)-1 {
		t.Fatalf("salvaged %d records, want %d (all but the damaged frame)", len(got), len(want)-1)
	}
	byBuyer := make(map[string]string, len(got))
	for _, rec := range got {
		byBuyer[rec.Buyer] = rec.Value
	}
	for i, rec := range want {
		if i == 3 {
			if _, ok := byBuyer[rec.Buyer]; ok {
				t.Fatal("damaged record came back without a peer to fetch it from")
			}
			continue
		}
		if byBuyer[rec.Buyer] != rec.Value {
			t.Fatalf("record %d (%s) lost in salvage", i, rec.Buyer)
		}
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("damaged file not quarantined: %v", err)
	}
	// The rebuild is durable: another reopen replays the same set.
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, err := OpenWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if got := w3.Records(walTestDigest); len(got) != len(want)-1 {
		t.Fatalf("reopen after rebuild replays %d records, want %d", len(got), len(want)-1)
	}
}

// TestScrubPropertyRandomBitFlips: the end-to-end repair property — for a
// random bit flipped in a random committed frame, a restarted replica
// (open-time salvage), its startup Sync (peer refetch) and a scrub pass
// always converge back to exactly the pre-corruption record list, verified
// durable by a final clean reopen.
func TestScrubPropertyRandomBitFlips(t *testing.T) {
	want := walRecords(12)
	// Build the pristine segment image once.
	master := t.TempDir()
	w, err := OpenWAL(master)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Append(walTestDigest, want); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	pristine, err := os.ReadFile(segPath(master, walTestDigest))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	frameBytes := len(pristine) - walHeaderSize
	for trial := 0; trial < 25; trial++ {
		off := walHeaderSize + rng.Intn(frameBytes)
		bit := byte(1) << rng.Intn(8)
		dir := t.TempDir()
		damaged := append([]byte(nil), pristine...)
		damaged[off] ^= bit
		if err := os.WriteFile(segPath(dir, walTestDigest), damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		// The surviving peer holds the full acknowledged list.
		ft := newFakeTransport(t, "n2")
		if _, _, err := ft.peers["n2"].Append(walTestDigest, want); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReplicated(ReplicatedConfig{
			Dir: dir, Self: "n1", Nodes: []string{"n1", "n2"}, W: 1,
			Transport: ft, AckTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatalf("trial %d (byte %d): reopen: %v", trial, off, err)
		}
		if _, err := r.Sync(context.Background(), r.Digests()); err != nil {
			t.Fatalf("trial %d (byte %d): sync: %v", trial, off, err)
		}
		r.Scrub()
		got := r.Records(walTestDigest)
		byBuyer := make(map[string]string, len(got))
		for _, rec := range got {
			byBuyer[rec.Buyer] = rec.Value
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d (byte %d): %d records after repair, want %d", trial, off, len(got), len(want))
		}
		for _, rec := range want {
			if byBuyer[rec.Buyer] != rec.Value {
				t.Fatalf("trial %d (byte %d): record %q=%q lost (got %q)", trial, off, rec.Buyer, rec.Value, byBuyer[rec.Buyer])
			}
		}
		// And the repaired file is durable: a clean reopen sees the same set.
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		w2, err := OpenWAL(dir)
		if err != nil {
			t.Fatalf("trial %d: reopen after repair: %v", trial, err)
		}
		if n := len(w2.Records(walTestDigest)); n != len(want) {
			t.Fatalf("trial %d: reopen after repair replays %d records, want %d", trial, n, len(want))
		}
		w2.Close()
	}
}
