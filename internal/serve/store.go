package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/obs"
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
// Per design digest it holds two files, plus two files per async job:
//
//	<digest>.design          raw uploaded netlist bytes, verbatim
//	<digest>.meta.json       DesignMeta (format + name)
//	job-<id>.json            one async issuance job's request, written once
//	job-<id>.progress.json   its JobProgress, rewritten after every chunk
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

// atomicWrite writes data to path (atomicfile.WriteFile, with the
// store.write and store.fsync fault points) and counts the save.
func (s *Store) atomicWrite(path string, data []byte) error {
	if err := atomicfile.WriteFile(path, data); err != nil {
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
	if !core.ValidDigest(digest) {
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
	if !core.ValidDigest(digest) {
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
	if !core.ValidDigest(digest) {
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
	if !core.ValidDigest(digest) {
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

// jobPrefix frames the durable files of one async issuance job: the
// request ends in jobSuffix and the progress in progressSuffix.
const (
	jobPrefix      = "job-"
	jobSuffix      = ".json"
	progressSuffix = ".progress.json"
)

func (s *Store) jobPath(id string) string {
	return filepath.Join(s.dir, jobPrefix+id+jobSuffix)
}

func (s *Store) progressPath(id string) string {
	return filepath.Join(s.dir, jobPrefix+id+progressSuffix)
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

// jobRequest is the form of job-<id>.json. Daemons before the progress
// file rewrote this file after every chunk, with the job's state, its
// acknowledged buyers in Done, its error and its update time; a request
// file written now carries state queued and no Done. Either way, when no
// progress file exists, these fields are the job's progress.
type jobRequest struct {
	ID      string   `json:"id"`
	Digest  string   `json:"digest"`
	Buyers  []string `json:"buyers"`
	Verify  bool     `json:"verify"`
	State   string   `json:"state"`
	Done    []string `json:"done,omitempty"`
	Error   string   `json:"error,omitempty"`
	Created string   `json:"created"`
	Updated string   `json:"updated"`
	Seq     uint64   `json:"seq,omitempty"`
}

// PutJob durably writes a new job's request file, once.
func (s *Store) PutJob(rec *JobRecord) error {
	return s.putJobFile(rec.ID, s.jobPath(rec.ID), jobRequest{
		ID: rec.ID, Digest: rec.Digest, Buyers: rec.Buyers, Verify: rec.Verify,
		State: rec.State, Created: rec.Created, Updated: rec.Updated, Seq: rec.Seq,
	})
}

// PutJobProgress durably replaces a job's progress file, so a restarted
// daemon only ever observes a complete old or complete new progress — the
// invariant that makes "acknowledged" crash-proof.
func (s *Store) PutJobProgress(id string, p JobProgress) error {
	return s.putJobFile(id, s.progressPath(id), p)
}

// putJobFile writes v as JSON to one of job id's files with the same
// temp-file+fsync+rename discipline as every other store write.
func (s *Store) putJobFile(id, path string, v any) error {
	if !validJobID(id) {
		return fmt.Errorf("serve: store: invalid job id %q", id)
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := s.atomicWrite(path, append(b, '\n')); err != nil {
		return fmt.Errorf("serve: store job %s: %w", id, err)
	}
	return nil
}

// DeleteJob removes a finished job's files. The request goes first, and
// the directory is synced before the progress goes, so a crash in between
// leaves an orphan progress file, which LoadJobs removes, and never a bare
// request file, which would read as a queued job.
func (s *Store) DeleteJob(id string) error {
	if !validJobID(id) {
		return fmt.Errorf("serve: store: invalid job id %q", id)
	}
	if err := os.Remove(s.jobPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("serve: store: %w", err)
	}
	atomicfile.SyncDir(s.dir)
	if err := os.Remove(s.progressPath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("serve: store: %w", err)
	}
	return nil
}

// LoadJobs reads every persisted job, keyed by id. A job's progress is its
// progress file's, or, when it has none, its request file's own fields.
// A progress file without a request file is left from a retirement cut
// short and is removed.
func (s *Store) LoadJobs() (map[string]*JobRecord, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	out := make(map[string]*JobRecord)
	var progress []string
	for _, e := range entries {
		rest, ok := strings.CutPrefix(e.Name(), jobPrefix)
		if e.IsDir() || !ok || strings.Contains(rest, tmpMarker) {
			continue
		}
		if id, ok := strings.CutSuffix(rest, progressSuffix); ok && validJobID(id) {
			progress = append(progress, id)
			continue
		}
		id, ok := strings.CutSuffix(rest, jobSuffix)
		if !ok || !validJobID(id) {
			continue
		}
		var req jobRequest
		if err := readJSON(s.jobPath(id), &req); err != nil {
			return nil, fmt.Errorf("serve: store: job %s: %w", id, err)
		}
		out[id] = &JobRecord{
			ID: id, Digest: req.Digest, Buyers: req.Buyers, Verify: req.Verify, Created: req.Created, Seq: req.Seq,
			JobProgress: JobProgress{State: req.State, Acked: len(req.Done), Error: req.Error, Updated: req.Updated},
		}
	}
	for _, id := range progress {
		rec := out[id]
		if rec == nil {
			if err := os.Remove(s.progressPath(id)); err != nil {
				return nil, fmt.Errorf("serve: store: %w", err)
			}
			continue
		}
		var p JobProgress
		if err := readJSON(s.progressPath(id), &p); err != nil {
			return nil, fmt.Errorf("serve: store: job %s progress: %w", id, err)
		}
		rec.JobProgress = p
	}
	for id, rec := range out {
		if rec.Acked < 0 || rec.Acked > len(rec.Buyers) {
			return nil, fmt.Errorf("serve: store: job %s: %d of %d buyers acknowledged", id, rec.Acked, len(rec.Buyers))
		}
	}
	return out, nil
}

// readJSON decodes the JSON file at path into v.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
