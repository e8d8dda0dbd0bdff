package registrystore

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/registry"
)

// localTmpMarker tags in-progress atomic writes; OpenLocal sweeps leftovers
// (the same discipline internal/serve's design store uses).
const localTmpMarker = atomicfile.TmpMarker

// Local is the single-node Store: each design's registry is one JSON
// snapshot file (<digest>.registry.json) replaced atomically on every
// Append — temp file, fsync, rename, directory fsync — so a restarted
// daemon only ever observes a complete old or complete new registry. This
// is the historical single-node odcfpd format, unchanged, which is what
// makes switching a deployment between local and cluster mode a
// data-migration step rather than a silent incompatibility.
type Local struct {
	dir string

	mu   sync.Mutex
	seqs map[string]uint64

	// bufs is Append's free list of snapshot encode buffers. A snapshot is
	// the whole registry, so a fresh buffer per issuance would be
	// Θ(buyers) garbage. A sync.Pool drops its buffers at every GC, which
	// a large registry's issuance rate brings on often; this list keeps
	// them. It holds two, one per concurrent Append it serves without
	// allocating.
	bufs chan []byte
}

// Open opens the single-node registry store rooted at dir, creating it if
// necessary. Today that is a Local snapshot store; callers that need only
// the Store interface open it here, so the single-node format can change
// behind this seam.
func Open(dir string) (Store, error) {
	ls, err := OpenLocal(dir)
	if err != nil {
		return nil, err
	}
	return ls, nil
}

// OpenLocal opens (creating if necessary) a local registry store rooted at
// dir and sweeps temp files left behind by a crash mid-write.
func OpenLocal(dir string) (*Local, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registrystore: local: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registrystore: local: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.Contains(e.Name(), localTmpMarker) &&
			strings.Contains(e.Name(), ".registry.json") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("registrystore: local: recovering %s: %w", e.Name(), err)
			}
		}
	}
	return &Local{dir: dir, seqs: make(map[string]uint64), bufs: make(chan []byte, 2)}, nil
}

func (l *Local) path(digest string) string {
	return filepath.Join(l.dir, digest+".registry.json")
}

// Load reads the design's snapshot, validating it against the analysis. A
// missing file is a fresh empty registry (stored design, nothing issued).
func (l *Local) Load(digest string, a *core.Analysis) (*registry.Registry, uint64, error) {
	if !registry.ValidDigest(digest) {
		return nil, 0, fmt.Errorf("registrystore: local: invalid digest %q", digest)
	}
	f, err := os.Open(l.path(digest))
	if os.IsNotExist(err) {
		return registry.New(a), l.Seq(digest), nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("registrystore: local: %w", err)
	}
	defer f.Close()
	r, err := registry.Load(f, a)
	if err != nil {
		return nil, 0, fmt.Errorf("registrystore: local: registry %s: %w", digest, err)
	}
	mLoads.Inc()
	return r, l.Seq(digest), nil
}

// Append snapshots reg to the design's registry file. The snapshot always
// carries the full record set, so the durable file stays a superset of
// every acknowledged issuance even when an earlier Append failed after the
// in-memory reservation.
func (l *Local) Append(ctx context.Context, digest string, reg *registry.Registry, recs []Record) (uint64, error) {
	if !registry.ValidDigest(digest) {
		return 0, fmt.Errorf("registrystore: local: invalid digest %q", digest)
	}
	var buf []byte
	select {
	case buf = <-l.bufs:
	default:
	}
	buf = reg.AppendJSON(buf[:0])
	err := l.atomicWrite(l.path(digest), buf)
	select {
	case l.bufs <- buf:
	default:
	}
	if err != nil {
		return 0, fmt.Errorf("registrystore: local: registry %s: %w", digest, err)
	}
	mAppends.Inc()
	mRecords.Add(int64(len(recs)))
	l.mu.Lock()
	l.seqs[digest]++
	seq := l.seqs[digest]
	l.mu.Unlock()
	return seq, nil
}

// Seq returns the number of successful Appends this process has made for
// the design. The local store has a single writer (this daemon), so the
// sequence only moves through Append and a loaded registry never goes
// stale underneath its holder.
func (l *Local) Seq(digest string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seqs[digest]
}

// Close is a no-op: the local store holds no descriptors between writes.
func (l *Local) Close() error { return nil }

// atomicWrite writes data to path through atomicfile.Write, honoring the
// store.write / store.fsync fault points exactly like the design store —
// injected failures surface as transient errors the serve layer retries.
func (l *Local) atomicWrite(path string, data []byte) error {
	if err := fault.Err(fault.StoreWrite); err != nil {
		return err
	}
	return atomicfile.Write(path, 0o600, func(w io.Writer) error {
		if _, err := w.Write(data); err != nil {
			return err
		}
		fault.Stall(fault.StoreFsync)
		return nil
	})
}
