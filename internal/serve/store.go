package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Store metrics: saves/loads are workload-determined; recovered temp files
// only exist after a crash, so the counter is effectively a crash detector.
var (
	mStoreSaves     = obs.NewCounter("serve", "store_saves")
	mStoreLoads     = obs.NewCounter("serve", "store_loads")
	mStoreRecovered = obs.NewCounter("serve", "store_recovered_tmp")
)

// tmpMarker tags in-progress atomic writes; OpenStore sweeps leftovers.
const tmpMarker = atomicfile.TmpMarker

// DesignMeta is the durable sidecar record of one uploaded design: enough
// to re-run the upload path (parse → sweep → analyze) byte-identically on
// restart, which is what makes the design digest stable across restarts.
type DesignMeta struct {
	// Design is the circuit name (informational).
	Design string `json:"design"`
	// Format is the netlist format of the stored bytes: "bench", "blif" or
	// "v".
	Format string `json:"format"`
}

// Store is the daemon's durable state apart from issuance registries
// (which live in a registrystore.Store — JSON snapshots in this same
// directory for the single-node daemon, a replicated WAL in cluster mode).
// Per design digest it holds two files, plus one file per async job:
//
//	<digest>.design        raw uploaded netlist bytes, verbatim
//	<digest>.meta.json     DesignMeta (format + name)
//	job-<id>.json          one async issuance job's durable state
//
// Every write is crash-safe: content goes to a temp file in the same
// directory, is fsynced, then renamed over the destination (and the
// directory fsynced), so readers — including a restarted daemon — only
// ever observe a complete old or complete new file, never a torn one.
// OpenStore removes temp files left behind by a crash mid-write.
type Store struct {
	dir string
}

// OpenStore opens (creating if necessary) a store rooted at dir and
// recovers from any interrupted writes by deleting leftover temp files.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.Contains(e.Name(), tmpMarker) {
			// A crash mid-write left this behind; the destination file (if
			// any) is the last complete state, so the temp is garbage.
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("serve: store: recovering %s: %w", e.Name(), err)
			}
			mStoreRecovered.Inc()
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// atomicWrite writes data to path through atomicfile.Write. The fault
// points model a flaky disk: store.write fails the whole write before any
// byte lands (transient, so the serve layer's retry policy applies);
// store.fsync stalls the sync.
func (s *Store) atomicWrite(path string, data []byte) error {
	if err := fault.Err(fault.StoreWrite); err != nil {
		return err
	}
	err := atomicfile.Write(path, 0o600, func(w io.Writer) error {
		if _, err := w.Write(data); err != nil {
			return err
		}
		fault.Stall(fault.StoreFsync)
		return nil
	})
	if err != nil {
		return err
	}
	mStoreSaves.Inc()
	return nil
}

func (s *Store) designPath(digest string) string { return filepath.Join(s.dir, digest+".design") }
func (s *Store) metaPath(digest string) string   { return filepath.Join(s.dir, digest+".meta.json") }

// PutDesign durably records a design's raw netlist bytes and metadata.
// The netlist is stored verbatim so reloading replays the exact upload.
func (s *Store) PutDesign(digest string, meta DesignMeta, netlist []byte) error {
	if !registry.ValidDigest(digest) {
		return fmt.Errorf("serve: store: invalid digest %q", digest)
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	if err := s.atomicWrite(s.designPath(digest), netlist); err != nil {
		return fmt.Errorf("serve: store design %s: %w", digest, err)
	}
	if err := s.atomicWrite(s.metaPath(digest), append(mb, '\n')); err != nil {
		return fmt.Errorf("serve: store meta %s: %w", digest, err)
	}
	return nil
}

// HasDesign reports whether a complete design record exists for digest.
func (s *Store) HasDesign(digest string) bool {
	if !registry.ValidDigest(digest) {
		return false
	}
	if _, err := os.Stat(s.metaPath(digest)); err != nil {
		return false
	}
	_, err := os.Stat(s.designPath(digest))
	return err == nil
}

// LoadDesign returns the stored metadata and raw netlist bytes for digest.
func (s *Store) LoadDesign(digest string) (DesignMeta, []byte, error) {
	var meta DesignMeta
	if !registry.ValidDigest(digest) {
		return meta, nil, fmt.Errorf("serve: store: invalid digest %q", digest)
	}
	mb, err := os.ReadFile(s.metaPath(digest))
	if err != nil {
		return meta, nil, fmt.Errorf("serve: store: %w", err)
	}
	if err := json.Unmarshal(mb, &meta); err != nil {
		return meta, nil, fmt.Errorf("serve: store: meta %s: %w", digest, err)
	}
	data, err := os.ReadFile(s.designPath(digest))
	if err != nil {
		return meta, nil, fmt.Errorf("serve: store: %w", err)
	}
	mStoreLoads.Inc()
	return meta, data, nil
}

// LoadMeta reads only the metadata sidecar for digest (startup reload
// avoids touching the netlist bytes until first use).
func (s *Store) LoadMeta(digest string) (DesignMeta, error) {
	var meta DesignMeta
	if !registry.ValidDigest(digest) {
		return meta, fmt.Errorf("serve: store: invalid digest %q", digest)
	}
	mb, err := os.ReadFile(s.metaPath(digest))
	if err != nil {
		return meta, fmt.Errorf("serve: store: %w", err)
	}
	if err := json.Unmarshal(mb, &meta); err != nil {
		return meta, fmt.Errorf("serve: store: meta %s: %w", digest, err)
	}
	return meta, nil
}

// Digests lists every digest with a complete design record, sorted.
func (s *Store) Digests() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".meta.json") || strings.Contains(name, tmpMarker) {
			continue
		}
		digest := strings.TrimSuffix(name, ".meta.json")
		if s.HasDesign(digest) {
			out = append(out, digest)
		}
	}
	sort.Strings(out)
	return out, nil
}

// jobPrefix and jobSuffix frame the durable file of one async issuance job.
const (
	jobPrefix = "job-"
	jobSuffix = ".json"
)

func (s *Store) jobPath(id string) string {
	return filepath.Join(s.dir, jobPrefix+id+jobSuffix)
}

// validJobID rejects ids that could escape the store directory; real ids
// are fixed-width lowercase hex (newJobID).
func validJobID(id string) bool {
	if len(id) != 16 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// PutJob durably persists one async issuance job record with the same
// temp-file+fsync+rename discipline as every other store write, so a
// restarted daemon only ever observes a complete old or complete new job
// state — the invariant that makes "acknowledged" in a job's done list
// crash-proof.
func (s *Store) PutJob(rec *JobRecord) error {
	if !validJobID(rec.ID) {
		return fmt.Errorf("serve: store: invalid job id %q", rec.ID)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := s.atomicWrite(s.jobPath(rec.ID), append(b, '\n')); err != nil {
		return fmt.Errorf("serve: store job %s: %w", rec.ID, err)
	}
	return nil
}

// LoadJobs reads every persisted job record, sorted by id.
func (s *Store) LoadJobs() ([]*JobRecord, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	var out []*JobRecord
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, jobPrefix) || !strings.HasSuffix(name, jobSuffix) ||
			strings.Contains(name, tmpMarker) {
			continue
		}
		id := strings.TrimSuffix(strings.TrimPrefix(name, jobPrefix), jobSuffix)
		if !validJobID(id) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return nil, fmt.Errorf("serve: store: %w", err)
		}
		rec := new(JobRecord)
		if err := json.Unmarshal(b, rec); err != nil {
			return nil, fmt.Errorf("serve: store: job %s: %w", id, err)
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
