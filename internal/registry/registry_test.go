package registry

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/cell"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/redteam"
)

func analyzed(t testing.TB, name string) *core.Analysis {
	t.Helper()
	spec, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(spec.Build(), core.DefaultOptions(cell.Default()))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// issue mints one buyer's copy as a batch of one.
func issue(r *Registry, a *core.Analysis, buyer string) (*circuit.Circuit, *big.Int, error) {
	items, err := r.IssueBatch(context.Background(), a, []string{buyer})
	if err != nil {
		return nil, nil, err
	}
	return items[0].Circuit, items[0].Value, nil
}

func TestIssueAndTraceExact(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	copies := map[string]*circuit.Circuit{}
	for _, buyer := range []string{"alpha", "beta", "gamma"} {
		cp, v, err := issue(r, a, buyer)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sign() < 0 {
			t.Fatal("negative fingerprint")
		}
		copies[buyer] = cp
	}
	if got := r.Buyers(); len(got) != 3 || got[0] != "alpha" {
		t.Fatalf("Buyers = %v", got)
	}
	// Trace each verbatim copy back (heredity: trace works on a clone).
	for buyer, cp := range copies {
		got, err := r.TraceExact(a, cp.Clone())
		if err != nil {
			t.Fatalf("%s: %v", buyer, err)
		}
		if got != buyer {
			t.Errorf("traced %q, want %q", got, buyer)
		}
	}
	// Re-issuing is idempotent: same fingerprint, traces to same buyer.
	cp2, _, err := issue(r, a, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.TraceExact(a, cp2)
	if err != nil || got != "alpha" {
		t.Fatalf("re-issue trace: %v %v", got, err)
	}
	// An unregistered fingerprint is reported as such.
	if _, err := r.TraceExact(a, a.Circuit.Clone()); err == nil {
		t.Error("clean copy traced to a buyer")
	}
	// Empty buyer name rejected.
	if _, _, err := issue(r, a, ""); err == nil {
		t.Error("empty buyer accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	a := analyzed(t, "c432")
	r := New(a)
	cp, _, err := issue(r, a, "zeta")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "zeta") || !strings.Contains(buf.String(), "digest") {
		t.Errorf("serialised registry malformed:\n%s", buf.String())
	}
	r2, err := Load(bytes.NewReader(buf.Bytes()), a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r2.TraceExact(a, cp)
	if err != nil || got != "zeta" {
		t.Fatalf("loaded registry trace: %v %v", got, err)
	}
}

func TestDigestMismatchRejected(t *testing.T) {
	a1 := analyzed(t, "c432")
	a2 := analyzed(t, "c880")
	r := New(a1)
	if _, _, err := issue(r, a2, "x"); err == nil {
		t.Error("issue against wrong design accepted")
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), a2); err == nil {
		t.Error("load against wrong design accepted")
	}
	if _, err := r.TraceExact(a2, a2.Circuit); err == nil {
		t.Error("trace against wrong design accepted")
	}
	// Corrupt JSON rejected.
	if _, err := Load(strings.NewReader("{nope"), a1); err == nil {
		t.Error("corrupt JSON accepted")
	}
}

// TestLoadRejectsCorruptRecords: a snapshot's records go through the same
// checks as AdoptAll, in the order the snapshot lists them, so a snapshot
// giving two buyers one value (which TraceExact could resolve to either),
// one buyer two values, an empty buyer or a value that is not a canonical
// decimal fails to load instead of loading silently. A record listed twice
// alike loads once.
func TestLoadRejectsCorruptRecords(t *testing.T) {
	a := analyzed(t, "c432")
	snapshot := func(issued string) string {
		return `{"design": "c432", "digest": "` + a.Digest() + `", "issued": {` + issued + `}}`
	}
	r, err := Load(strings.NewReader(snapshot(`"alice": "7", "bob": "8", "carol": "0", "alice": "7"`)), a)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Records(); !reflect.DeepEqual(got, []Record{{"alice", "7"}, {"bob", "8"}, {"carol", "0"}}) {
		t.Errorf("loaded %v", got)
	}
	for _, issued := range []string{
		`"alice": "7", "bob": "7"`,
		`"alice": "7", "bob": "0x8"`,
		`"alice": "7", "bob": "+8"`,
		`"alice": "7", "": "8"`,
		`"alice": "5", "bob": "8", "alice": "3411"`,
		`"alice": "5", "bob": "05"`,
		`"alice": "00"`,
		`"alice": 5`,
	} {
		if _, err := Load(strings.NewReader(snapshot(issued)), a); err == nil {
			t.Errorf("snapshot {%s} loaded", issued)
		}
	}
}

// TestLoadRejectsTrailingData: a snapshot is one JSON object. Two
// concatenated saves, or a save followed by junk, fail to load instead of
// loading the first object's records; trailing whitespace loads.
func TestLoadRejectsTrailingData(t *testing.T) {
	a := analyzed(t, "c432")
	r := New(a)
	if err := r.Adopt("alice", "5"); err != nil {
		t.Fatal(err)
	}
	first := r.AppendJSON(nil)
	if err := r.Adopt("bob", "8"); err != nil {
		t.Fatal(err)
	}
	second := r.AppendJSON(nil)
	for name, data := range map[string][]byte{
		"two saves": append(slices.Clip(first), second...),
		"junk":      append(slices.Clip(first), "junk"...),
		"object":    append(slices.Clip(first), `{"issued": {"bob": "6"}}`...),
	} {
		if _, err := Load(bytes.NewReader(data), a); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
	got, err := Load(bytes.NewReader(append(slices.Clip(second), " \n\t\r\n"...)), a)
	if err != nil {
		t.Fatalf("trailing whitespace: %v", err)
	}
	if !reflect.DeepEqual(got.Records(), r.Records()) {
		t.Errorf("loaded %v, saved %v", got.Records(), r.Records())
	}
}

// TestEntrySize: the plain flag rides in the padding after the 32-bit row,
// so an entry is no larger than a record and an int, and insert moves no
// more bytes per record than it did before the flag.
func TestEntrySize(t *testing.T) {
	if got, want := unsafe.Sizeof(entry{}), unsafe.Sizeof(struct {
		Record
		int
	}{}); got > want {
		t.Errorf("entry is %d bytes, want at most %d", got, want)
	}
}

// TestAdoptRejectsNonCanonicalDecimal: "05" names the number "5" names, so
// adopting both would record two buyers with one fingerprint, and an exact
// trace of either copy would name whichever v.String() finds.
func TestAdoptRejectsNonCanonicalDecimal(t *testing.T) {
	r := New(analyzed(t, "c432"))
	if err := r.AdoptAll([]Record{{"alice", "5"}, {"bob", "05"}}); err == nil {
		t.Fatal("adopted bob at 05 beside alice at 5")
	}
	if n := r.NumIssued(); n != 0 {
		t.Errorf("failed AdoptAll recorded %d buyers", n)
	}
	if err := r.AdoptAll([]Record{{"alice", "5"}, {"bob", "0"}, {"carol", "3411"}}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceScoresAfterCollusion(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	var copies []*circuit.Circuit
	buyers := []string{"p1", "p2", "p3", "p4", "p5"}
	for _, b := range buyers {
		cp, _, err := issue(r, a, b)
		if err != nil {
			t.Fatal(err)
		}
		copies = append(copies, cp)
	}
	// p1 and p2 collude by averaging their netlists through the attack
	// package (exercised indirectly via TraceScores on a forged copy built
	// from p1's instance with p2-differing sites reset). Here we simply
	// score p1's verbatim copy: p1 must rank first with fraction 1.0.
	scores, err := r.TraceScores(a, copies[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 5 {
		t.Fatalf("%d scores", len(scores))
	}
	if scores[0].Name != "p1" || scores[0].Fraction() != 1.0 {
		t.Errorf("top score %q %.3f, want p1 at 1.0", scores[0].Name, scores[0].Fraction())
	}
	for _, s := range scores[1:] {
		if s.Name != "p1" && s.Fraction() == 1.0 && s.TotalPresent > 0 {
			t.Errorf("innocent %q also scores 1.0", s.Name)
		}
	}
}

// TestConcurrentIssueRace is the -race regression for the registry's
// goroutine-safety contract: many goroutines issue distinct buyers while
// others trace, list and save concurrently. Run with -race (make ci does).
func TestConcurrentIssueRace(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	const buyers = 16
	copies := make([]*circuit.Circuit, buyers)
	var wg sync.WaitGroup
	errs := make([]error, buyers)
	for i := 0; i < buyers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cp, _, err := issue(r, a, fmt.Sprintf("buyer-%02d", i))
			copies[i], errs[i] = cp, err
		}(i)
	}
	// Concurrent readers: listing, serialising and tracing while issuance
	// is in flight must not race (values may be mid-flight, errors are ok).
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				_ = r.Buyers()
				_ = r.NumIssued()
				if err := r.Save(io.Discard); err != nil {
					t.Error(err)
				}
				_, _ = r.TraceExact(a, a.Circuit)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("buyer %d: %v", i, err)
		}
	}
	if got := r.NumIssued(); got != buyers {
		t.Fatalf("NumIssued = %d, want %d", got, buyers)
	}
	// Every concurrently issued copy traces back to its buyer.
	for i, cp := range copies {
		want := fmt.Sprintf("buyer-%02d", i)
		got, err := r.TraceExact(a, cp)
		if err != nil || got != want {
			t.Errorf("copy %d traced to %q (%v), want %q", i, got, err, want)
		}
	}
}

// TestIssueBatch: one call mints every buyer, agrees with single-copy
// issuance, and re-batching is idempotent (recorded values, Fresh=false).
func TestIssueBatch(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	serial, sv, err := issue(r, a, "pre")
	if err != nil {
		t.Fatal(err)
	}

	buyers := []string{"a", "b", "c", "pre"}
	items, err := r.IssueBatch(context.Background(), a, buyers)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("got %d items, want 4", len(items))
	}
	for i, it := range items {
		if it.Buyer != buyers[i] {
			t.Errorf("item %d buyer %q, want %q", i, it.Buyer, buyers[i])
		}
		got, err := r.TraceExact(a, it.Circuit.Clone())
		if err != nil || got != it.Buyer {
			t.Errorf("batch copy for %q traced to %q (%v)", it.Buyer, got, err)
		}
	}
	// The pre-issued buyer was re-minted, not re-reserved.
	pre := items[3]
	if pre.Fresh {
		t.Error("pre-issued buyer marked Fresh in batch")
	}
	if pre.Value.Cmp(sv) != 0 {
		t.Errorf("batch re-mint value %s, want serial %s", pre.Value, sv)
	}
	var sb, bb bytes.Buffer
	if err := benchfmt.Write(&sb, serial); err != nil {
		t.Fatal(err)
	}
	if err := benchfmt.Write(&bb, pre.Circuit); err != nil {
		t.Fatal(err)
	}
	if sb.String() != bb.String() {
		t.Error("batch re-mint differs from serial copy")
	}

	// Re-batching the whole list is idempotent.
	again, err := r.IssueBatch(context.Background(), a, buyers)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i].Fresh {
			t.Errorf("re-batch item %d marked Fresh", i)
		}
		if again[i].Value.Cmp(items[i].Value) != 0 {
			t.Errorf("re-batch value for %q changed", again[i].Buyer)
		}
	}
	if got := len(r.Buyers()); got != 4 {
		t.Errorf("registry holds %d buyers, want 4", got)
	}
}

// TestIssueBatchValidation: duplicate and empty buyer names reject the
// whole batch before any record is created.
func TestIssueBatchValidation(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	if _, err := r.IssueBatch(context.Background(), a, []string{"x", "x"}); err == nil {
		t.Error("duplicate buyers accepted")
	}
	if _, err := r.IssueBatch(context.Background(), a, []string{"x", ""}); err == nil {
		t.Error("empty buyer accepted")
	}
	if got := len(r.Buyers()); got != 0 {
		t.Errorf("rejected batch left %d records behind", got)
	}
}

// TestIssueBatchCancellation: a context cancelled mid-batch returns an
// error and releases every fresh reservation, leaving pre-existing records
// untouched.
func TestIssueBatchCancellation(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	if _, _, err := issue(r, a, "keep"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.IssueBatch(ctx, a, []string{"keep", "n1", "n2"}); err == nil {
		t.Fatal("cancelled batch succeeded")
	}
	if got := r.Buyers(); len(got) != 1 || got[0] != "keep" {
		t.Errorf("after cancelled batch Buyers = %v, want [keep]", got)
	}
}

// TestReleaseItems keeps non-fresh records: releasing a failed batch must
// never delete a buyer who was issued before the batch started.
func TestReleaseItems(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	if _, _, err := issue(r, a, "old"); err != nil {
		t.Fatal(err)
	}
	items, err := r.IssueBatch(context.Background(), a, []string{"old", "new"})
	if err != nil {
		t.Fatal(err)
	}
	r.ReleaseItems(items)
	if got := r.Buyers(); len(got) != 1 || got[0] != "old" {
		t.Errorf("after release Buyers = %v, want [old]", got)
	}
}

// oracleScores is the score trace as the registry computed it before the
// resident table, kept as the test oracle: every record decoded with
// AssignmentFromInt into a per-buyer assignment, buyers in name order by
// their own sort (not the registry's kept order, which is under test),
// scored slot by slot and stable-sorted by the float fractions.
func oracleScores(t *testing.T, r *Registry, a *core.Analysis, suspect *circuit.Circuit) []Score {
	t.Helper()
	got, _, err := core.ExtractTolerant(a, suspect)
	if err != nil {
		t.Fatal(err)
	}
	buyers := r.Buyers()
	sort.Strings(buyers)
	scores := make([]Score, 0, len(buyers))
	for _, buyer := range buyers {
		rec, _ := r.Value(buyer)
		v, ok := new(big.Int).SetString(rec, 10)
		if !ok {
			t.Fatalf("corrupt record for %q", buyer)
		}
		asg, err := a.AssignmentFromInt(v)
		if err != nil {
			t.Fatal(err)
		}
		s := Score{Name: buyer}
		for i := range got {
			for j, obs := range got[i] {
				if obs == core.Tampered {
					continue
				}
				s.TotalAll++
				match := obs == asg[i][j]
				if match {
					s.AgreeAll++
				}
				if obs >= 0 {
					s.TotalPresent++
					if match {
						s.AgreePresent++
					}
				}
			}
		}
		scores = append(scores, s)
	}
	sort.SliceStable(scores, func(i, j int) bool {
		if scores[i].Fraction() != scores[j].Fraction() {
			return scores[i].Fraction() > scores[j].Fraction()
		}
		return scores[i].FractionAll() > scores[j].FractionAll()
	})
	return scores
}

// tamper rewrites the first n fingerprint target gates of c to XOR/XNOR
// over their current fanin, a form no catalogued variant takes, so
// ExtractTolerant reports those slots as Tampered.
func tamper(t *testing.T, a *core.Analysis, c *circuit.Circuit, n int) {
	t.Helper()
	for i := 0; i < len(a.Locations) && n > 0; i++ {
		name := a.Circuit.Nodes[a.Locations[i].Targets[0].Gate].Name
		id, ok := c.Lookup(name)
		if !ok || len(c.Nodes[id].Fanin) < 2 {
			continue
		}
		kind := logic.Xor
		if c.Nodes[id].Kind == logic.Xor {
			kind = logic.Xnor
		}
		if err := c.RewireGate(id, kind, append([]circuit.NodeID(nil), c.Nodes[id].Fanin...)); err != nil {
			t.Fatal(err)
		}
		n--
	}
}

// suspects returns the score-trace suspects for the oracle tests: a clean
// copy, a collusion forgery of three copies with tampered slots, and a
// fully stripped copy (the unfingerprinted design).
func suspects(t *testing.T, a *core.Analysis, copies []*circuit.Circuit) map[string]*circuit.Circuit {
	t.Helper()
	res, err := redteam.Coalition(copies[:3], redteam.StrategyFewestPins)
	if err != nil {
		t.Fatal(err)
	}
	tamper(t, a, res.Forged, 3)
	if _, tampered, err := core.ExtractTolerant(a, res.Forged); err != nil || len(tampered) == 0 {
		t.Fatalf("forgery has %d tampered slots (%v), want some", len(tampered), err)
	}
	return map[string]*circuit.Circuit{
		"clean":    copies[0].Clone(),
		"forged":   res.Forged,
		"stripped": a.Circuit.Clone(),
	}
}

// TestTraceScoresMatchesOracle runs seeded random interleavings of every
// record mutation — single-copy and multi-copy IssueBatch (and its
// duplicate-buyer rollback), released reservations of one and of two
// buyers, Adopt and a save/Load round trip —
// and after each step requires the resident-table TraceScores to equal the
// oracle exactly, on every suspect.
func TestTraceScoresMatchesOracle(t *testing.T) {
	for _, design := range []string{"c432", "c880"} {
		t.Run(design, func(t *testing.T) {
			a := analyzed(t, design)
			ctx := context.Background()
			rng := rand.New(rand.NewSource(42))
			r := New(a)
			var copies []*circuit.Circuit
			for i := 0; i < 4; i++ {
				cp, _, err := issue(r, a, fmt.Sprintf("base-%d", i))
				if err != nil {
					t.Fatal(err)
				}
				copies = append(copies, cp)
			}
			sus := suspects(t, a, copies)
			name := func() string { return fmt.Sprintf("b%02d", rng.Intn(60)) }
			// c432's fingerprint space is small enough for buyers to
			// collide; a rejected collision must leave the registry as it
			// was, which the oracle comparison below checks.
			check := func(err error) {
				t.Helper()
				if err != nil && !strings.Contains(err.Error(), "collision") {
					t.Fatal(err)
				}
			}
			for step := 0; step < 40; step++ {
				op := rng.Intn(6)
				switch op {
				case 0:
					_, _, err := issue(r, a, name())
					check(err)
				case 1:
					buyers := []string{name(), name(), name()}
					if rng.Intn(3) == 0 {
						buyers = append(buyers, buyers[0]) // duplicate: rolls back
					}
					_, _ = r.IssueBatch(ctx, a, buyers)
				case 2:
					items, err := r.IssueBatchValues(ctx, a, []string{name()})
					check(err)
					r.ReleaseItems(items)
				case 3:
					items, err := r.IssueBatchValues(ctx, a, []string{name(), name() + "x"})
					check(err)
					r.ReleaseItems(items)
				case 4:
					other := New(a)
					b := name() + "-adopted"
					items, err := other.IssueBatchValues(ctx, a, []string{b})
					if err != nil {
						t.Fatal(err)
					}
					check(r.Adopt(b, items[0].Value.String()))
				case 5:
					var buf bytes.Buffer
					if err := r.Save(&buf); err != nil {
						t.Fatal(err)
					}
					loaded, err := Load(&buf, a)
					if err != nil {
						t.Fatal(err)
					}
					r = loaded
					// Mutate the fresh registry before its table is built.
					_, _, err = issue(r, a, name())
					check(err)
				}
				for label, suspect := range sus {
					got, err := r.TraceScores(a, suspect)
					if err != nil {
						t.Fatal(err)
					}
					if want := oracleScores(t, r, a, suspect); !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d (op %d), %s suspect: TraceScores differs from the oracle\ngot  %v\nwant %v", step, op, label, got, want)
					}
				}
			}
			if r.NumIssued() <= 4 {
				t.Fatalf("interleaving left only %d records; the property saw too few", r.NumIssued())
			}
		})
	}
}

// TestTraceScoresConcurrent is the -race test for the resident table:
// concurrent issues, released batches and score traces on one registry.
func TestTraceScoresConcurrent(t *testing.T) {
	a := analyzed(t, "c880")
	r := New(a)
	cp, _, err := issue(r, a, "seed")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(3)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, _, err := issue(r, a, fmt.Sprintf("w%d-%d", w, i)); err != nil {
					t.Error(err)
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				items, err := r.IssueBatchValues(context.Background(), a, []string{fmt.Sprintf("tmp%d-%d", w, i)})
				if err != nil {
					t.Error(err)
					continue
				}
				r.ReleaseItems(items)
			}
		}(w)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				scores, err := r.TraceScores(a, cp)
				if err != nil {
					t.Error(err)
					return
				}
				seen := map[string]bool{}
				for _, s := range scores {
					if seen[s.Name] {
						t.Errorf("buyer %q scored twice", s.Name)
					}
					seen[s.Name] = true
				}
				if !seen["seed"] {
					t.Error("score trace lost the seed buyer")
				}
			}
		}()
	}
	wg.Wait()
	if got, want := r.NumIssued(), 1+3*8; got != want {
		t.Fatalf("NumIssued = %d, want %d", got, want)
	}
	scores, err := r.TraceScores(a, cp)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleScores(t, r, a, cp); !reflect.DeepEqual(scores, want) {
		t.Fatal("TraceScores differs from the oracle after the concurrent run")
	}
}

// TestTraceExactAfterMutations: the reverse index behind TraceExact keeps
// naming the right buyer across a rolled-back batch, a released batch,
// an Adopt and a save/Load round trip.
func TestTraceExactAfterMutations(t *testing.T) {
	a := analyzed(t, "c432")
	ctx := context.Background()
	r := New(a)
	cp, _, err := issue(r, a, "alice")
	if err != nil {
		t.Fatal(err)
	}
	traces := func(stage string, r *Registry, cp *circuit.Circuit, want string) {
		t.Helper()
		if got, err := r.TraceExact(a, cp); err != nil || got != want {
			t.Fatalf("after %s: traced to %q (%v), want %q", stage, got, err, want)
		}
	}
	traces("issue", r, cp, "alice")

	if _, err := r.IssueBatch(ctx, a, []string{"bob", "bob"}); err == nil {
		t.Fatal("batch naming bob twice was accepted")
	}
	traces("rollback", r, cp, "alice")

	items, err := r.IssueBatchValues(ctx, a, []string{"alice", "carol"})
	if err != nil {
		t.Fatal(err)
	}
	r.ReleaseItems(items)
	traces("ReleaseItems", r, cp, "alice")
	// Issuance is deterministic per design and buyer, so another registry
	// mints the copies of the released buyers; neither may trace.
	for _, gone := range []string{"bob", "carol"} {
		gcp, _, err := issue(New(a), a, gone)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.TraceExact(a, gcp); err == nil {
			t.Fatalf("released buyer %s's copy traced to %q", gone, got)
		}
	}

	other := New(a)
	dcp, dv, err := issue(other, a, "dave")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.TraceExact(a, dcp); err == nil {
		t.Fatal("dave's copy traced before dave was adopted")
	}
	if err := r.Adopt("dave", dv.String()); err != nil {
		t.Fatal(err)
	}
	traces("Adopt", r, dcp, "dave")

	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, a)
	if err != nil {
		t.Fatal(err)
	}
	traces("Load", loaded, cp, "alice")
	traces("Load", loaded, dcp, "dave")
}

// TestCheckMemoStillRejects: once an analysis has passed the digest check,
// the memo must not let an analysis of another design through, and a fresh
// analysis of the same design still passes.
func TestCheckMemoStillRejects(t *testing.T) {
	good := analyzed(t, "c432")
	other := analyzed(t, "c880")
	r := New(good)
	cp, _, err := issue(r, good, "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.TraceExact(good, cp); err != nil {
		t.Fatal(err)
	}
	if _, _, err := issue(r, other, "y"); err == nil {
		t.Error("issue against another design accepted after a good check")
	}
	if _, err := r.TraceExact(other, other.Circuit); err == nil {
		t.Error("exact trace against another design accepted after a good check")
	}
	if _, err := r.TraceScores(other, other.Circuit); err == nil {
		t.Error("score trace against another design accepted after a good check")
	}
	if _, err := r.IssueBatchValues(context.Background(), other, []string{"z"}); err == nil {
		t.Error("batch against another design accepted after a good check")
	}
	again := analyzed(t, "c432")
	if got, err := r.TraceExact(again, cp); err != nil || got != "x" {
		t.Errorf("fresh analysis of the same design: traced %q (%v)", got, err)
	}
	if _, err := r.TraceExact(good, cp); err != nil {
		t.Errorf("first analysis rejected after a second passed: %v", err)
	}
}

// TestTraceScoresUnholdableAdopt: Adopt records a decimal value beyond the
// design's capacity without complaint (it checks only the format), so the
// resident table cannot hold it; score traces must then report the record
// rather than score a table that has lost it.
func TestTraceScoresUnholdableAdopt(t *testing.T) {
	a := analyzed(t, "c432")
	r := New(a)
	cp, _, err := issue(r, a, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.TraceScores(a, cp); err != nil {
		t.Fatal(err)
	}
	if err := r.Adopt("mallory", a.Combinations().String()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.TraceScores(a, cp); err == nil {
		t.Fatal("score trace ignored a record beyond the design's capacity")
	}
	if got, err := r.TraceExact(a, cp); err != nil || got != "alice" {
		t.Fatalf("exact trace after the bad adopt: %q (%v)", got, err)
	}
}

// TestOrderSurvivesFailedMutations: a batch rolled back on a duplicate
// buyer or on a fingerprint collision leaves the snapshot byte-identical,
// and releasing a fresh batch interleaved with the existing names (after
// the score table is built, so rows move) restores it too. Score traces
// keep matching the oracle throughout.
func TestOrderSurvivesFailedMutations(t *testing.T) {
	a := analyzed(t, "c880")
	ctx := context.Background()
	r := New(a)
	rng := rand.New(rand.NewSource(5))
	var buyers []string
	for _, i := range rng.Perm(200) {
		buyers = append(buyers, fmt.Sprintf("b%03d", 2*i))
	}
	items, err := r.IssueBatch(ctx, a, buyers)
	if err != nil {
		t.Fatal(err)
	}
	suspect := items[0].Circuit
	// "squatter" holds the value "victim" would derive, so a batch naming
	// victim collides.
	victim, err := New(a).IssueBatchValues(ctx, a, []string{"victim"})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Adopt("squatter", victim[0].Value.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.TraceScores(a, suspect); err != nil {
		t.Fatal(err)
	}
	before := r.AppendJSON(nil)
	intact := func(stage string) {
		t.Helper()
		if got := r.AppendJSON(nil); !bytes.Equal(got, before) {
			t.Fatalf("after %s the snapshot changed", stage)
		}
		got, err := r.TraceScores(a, suspect)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleScores(t, r, a, suspect); !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s TraceScores differs from the oracle", stage)
		}
	}
	if _, err := r.IssueBatch(ctx, a, []string{"b001", "b003", "b001"}); err == nil {
		t.Fatal("batch naming b001 twice was accepted")
	}
	intact("a duplicate rollback")
	if _, err := r.IssueBatch(ctx, a, []string{"b001", "victim", "b003"}); err == nil || !strings.Contains(err.Error(), "collision") {
		t.Fatalf("colliding batch: %v", err)
	}
	intact("a collision rollback")
	var odd []string
	for _, i := range rng.Perm(60) {
		odd = append(odd, fmt.Sprintf("b%03d", 2*i+1))
	}
	fresh, err := r.IssueBatchValues(ctx, a, append(odd, buyers[:5]...))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.NumIssued(); got != 261 {
		t.Fatalf("NumIssued = %d after the odd batch, want 261", got)
	}
	r.ReleaseItems(fresh)
	intact("ReleaseItems")
}
