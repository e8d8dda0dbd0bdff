package registrystore

// The write-ahead log behind the replicated registry store: one append-only
// segment file per design digest, holding CRC-framed issuance records.
// DESIGN.md §13 documents the byte layout; the invariants that matter here:
//
//   - A record is durable only after its frame is written AND fsynced.
//     Group commit batches concurrent appends to one segment into a single
//     fsync: every waiter is released only once the sync that covers its
//     frames has returned.
//   - The segment is an append-only set keyed by buyer: appending a buyer
//     already present (with the same value) is a no-op, so replicated
//     appends, catch-up re-sends and crash-retry re-appends are all
//     idempotent, and two nodes' segments converge by record union.
//   - On open, a torn tail — a partial or CRC-corrupt final frame from a
//     crash mid-write — is truncated away; everything before it is intact
//     because frames are written strictly in order.

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/atomicfile"
	"repro/internal/core"
	"repro/internal/fault"
)

// walMagic opens every segment file; a version bump changes the final byte.
const walMagic = "ODCWAL1\n"

// walHeaderSize is the segment header: 8 magic bytes + the 16 raw bytes of
// the design digest (32 lowercase hex characters decoded).
const walHeaderSize = 8 + 16

// walFrameOverhead is the fixed prefix of one record frame: u32 payload
// length + u32 CRC.
const walFrameOverhead = 8

// walMaxPayload bounds a single frame's payload; anything larger on disk is
// treated as corruption (real payloads are a buyer name plus a decimal
// fingerprint — hundreds of bytes).
const walMaxPayload = 1 << 20

// walSuffix names segment files: <digest>.wal under the WAL directory.
const walSuffix = ".wal"

// WAL is a directory of per-design segments. It is safe for concurrent use;
// appends to the same segment are group-committed.
type WAL struct {
	dir string

	mu       sync.Mutex
	segments map[string]*segment
	closed   bool
}

// walBatch is one Append's not-yet-durable frames.
type walBatch struct {
	frames []byte
	recs   []Record
}

// segment is one design's open WAL file plus its in-memory replay: the
// committed record list, the buyer index used for idempotent dedup, and the
// group-commit queue.
type segment struct {
	mu      sync.Mutex
	f       *os.File
	path    string // segment file path (scrub rebuilds swap it atomically)
	digest  string
	size    int64 // durable byte size (frames beyond it are not yet synced)
	recs    []Record
	byBuyer map[string]string // committed buyer → value
	pending map[string]string // enqueued-but-unsynced buyer → value

	batches  []*walBatch
	waiters  []chan error
	flushing bool
	broken   error // set on an unrecoverable write/truncate failure
}

// OpenWAL opens (creating if necessary) a WAL directory, replays every
// existing segment into memory and truncates torn tails left by a crash.
func OpenWAL(dir string) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registrystore: wal: %w", err)
	}
	w := &WAL{dir: dir, segments: make(map[string]*segment)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registrystore: wal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, walSuffix) {
			continue
		}
		digest := strings.TrimSuffix(name, walSuffix)
		if !core.ValidDigest(digest) {
			continue
		}
		seg, err := openSegment(filepath.Join(dir, name), digest)
		if err != nil {
			return nil, err
		}
		w.segments[digest] = seg
	}
	return w, nil
}

// segmentFor returns (creating if needed) the digest's open segment.
func (w *WAL) segmentFor(digest string) (*segment, error) {
	if !core.ValidDigest(digest) {
		return nil, fmt.Errorf("registrystore: wal: invalid digest %q", digest)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, fmt.Errorf("registrystore: wal: closed")
	}
	if seg, ok := w.segments[digest]; ok {
		return seg, nil
	}
	seg, err := createSegment(filepath.Join(w.dir, digest+walSuffix), w.dir, digest)
	if err != nil {
		return nil, err
	}
	w.segments[digest] = seg
	return seg, nil
}

// Append durably records every rec not already present in the digest's
// segment and returns how many were fresh plus the segment's new total.
// A buyer already recorded with the same value is skipped (idempotent);
// the same buyer with a different value is corruption and errors without
// touching the segment. Append returns only after the fsync covering its
// frames — or, when every record was a duplicate, immediately.
func (w *WAL) Append(digest string, recs []Record) (added int, total uint64, err error) {
	seg, err := w.segmentFor(digest)
	if err != nil {
		return 0, 0, err
	}
	return seg.append(recs)
}

// Records returns a copy of the digest's committed records in append order.
// Unknown digests yield nil.
func (w *WAL) Records(digest string) []Record {
	w.mu.Lock()
	seg := w.segments[digest]
	w.mu.Unlock()
	if seg == nil {
		return nil
	}
	seg.mu.Lock()
	defer seg.mu.Unlock()
	return append([]Record(nil), seg.recs...)
}

// Total returns the digest's committed record count.
func (w *WAL) Total(digest string) uint64 {
	w.mu.Lock()
	seg := w.segments[digest]
	w.mu.Unlock()
	if seg == nil {
		return 0
	}
	seg.mu.Lock()
	defer seg.mu.Unlock()
	return uint64(len(seg.recs))
}

// Digests lists every digest with an open segment, sorted.
func (w *WAL) Digests() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, 0, len(w.segments))
	for d := range w.segments {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Close closes every segment file. In-flight appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	var first error
	for _, seg := range w.segments {
		seg.mu.Lock()
		if seg.broken == nil {
			seg.broken = fmt.Errorf("registrystore: wal: closed")
		}
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
		seg.mu.Unlock()
	}
	return first
}

// createSegment creates a fresh segment file with its header durably on
// disk (file and directory both fsynced) before any record lands.
func createSegment(path, dir, digest string) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if os.IsExist(err) {
		return openSegment(path, digest)
	}
	if err != nil {
		return nil, fmt.Errorf("registrystore: wal: %w", err)
	}
	hdr := segmentHeader(digest)
	if _, err := f.Write(hdr); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("registrystore: wal: %s: %w", path, err)
	}
	atomicfile.SyncDir(dir)
	return &segment{
		f: f, path: path, digest: digest, size: int64(len(hdr)),
		byBuyer: make(map[string]string), pending: make(map[string]string),
	}, nil
}

// segmentHeader renders the 24-byte header for a digest.
func segmentHeader(digest string) []byte {
	raw, _ := hex.DecodeString(digest) // core.ValidDigest guarantees 32 hex chars
	return append([]byte(walMagic), raw...)
}

// openSegment opens an existing segment, replays its records and truncates
// any torn tail a crash left behind.
func openSegment(path, digest string) (*segment, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("registrystore: wal: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("registrystore: wal: %w", err)
	}
	want := segmentHeader(digest)
	if len(data) < walHeaderSize || string(data[:walHeaderSize]) != string(want) {
		f.Close()
		return nil, fmt.Errorf("registrystore: wal: %s: bad segment header", path)
	}
	seg := &segment{
		f:       f,
		path:    path,
		digest:  digest,
		byBuyer: make(map[string]string),
		pending: make(map[string]string),
	}
	off := int64(walHeaderSize)
	for {
		rec, next, ok := decodeFrame(data, off, uint64(len(seg.recs)))
		if !ok {
			break
		}
		seg.recs = append(seg.recs, rec)
		seg.byBuyer[rec.Buyer] = rec.Value
		off = next
	}
	if off < int64(len(data)) {
		// Garbage at off. Distinguish mid-file corruption (CRC-valid frames
		// survive beyond the bad region — a bit flip in a committed frame)
		// from the classic torn tail (a partial final frame from a crash).
		if salvaged := salvageFrames(data, off+1, seg.byBuyer); len(salvaged) > 0 {
			// Mid-file corruption: quarantine the damaged bytes and rebuild
			// the segment from everything that still authenticates. Records
			// inside the corrupt region are gone locally; the replicated
			// store re-fetches them from the peers (startup Sync / scrubber).
			mScrubSalvages.Inc()
			mScrubRestored.Add(int64(len(salvaged)))
			for _, rec := range salvaged {
				seg.recs = append(seg.recs, rec)
				seg.byBuyer[rec.Buyer] = rec.Value
			}
			f.Close()
			nf, size, err := rebuildSegmentFile(path, digest, seg.recs)
			if err != nil {
				return nil, err
			}
			seg.f, seg.size = nf, size
			return seg, nil
		}
		// Torn tail: everything from off on is garbage. The records before
		// it are intact (frames are written in order), so truncating is
		// exactly the crash-recovery contract.
		mWALTruncs.Inc()
		if err := f.Truncate(off); err != nil {
			f.Close()
			return nil, fmt.Errorf("registrystore: wal: truncating torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("registrystore: wal: %s: %w", path, err)
		}
	}
	seg.size = off
	return seg, nil
}

// salvageFrames byte-scans data from off for CRC-valid frames past a
// corrupt region, skipping buyers already recovered (and conflicting
// duplicates, which cannot occur in an authentic segment). The sequence
// check is waived — the rebuild reassigns sequence numbers — but the CRC
// still authenticates every salvaged record.
func salvageFrames(data []byte, off int64, have map[string]string) []Record {
	var out []Record
	seen := make(map[string]bool)
	for p := off; p+walFrameOverhead <= int64(len(data)); p++ {
		rec, _, next, ok := frameAt(data, p)
		if !ok {
			continue
		}
		if _, dup := have[rec.Buyer]; !dup && !seen[rec.Buyer] {
			out = append(out, rec)
			seen[rec.Buyer] = true
		}
		p = next - 1 // resume right after the valid frame
	}
	return out
}

// rebuildSegmentFile replaces the segment file at path with a freshly
// framed copy of recs, quarantining the previous bytes at path+".corrupt".
// The write is crash-safe: the rebuild lands fully fsynced under a temp
// name, then two renames swap it in — a crash mid-swap leaves either the
// corrupt original (rebuilt again next open) or the complete rebuild.
func rebuildSegmentFile(path, digest string, recs []Record) (*os.File, int64, error) {
	tmp := path + ".rebuild"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("registrystore: wal: rebuild %s: %w", path, err)
	}
	buf := segmentHeader(digest)
	for i, rec := range recs {
		frame, ferr := encodeFrame(uint64(i), rec)
		if ferr != nil {
			f.Close()
			os.Remove(tmp)
			return nil, 0, ferr
		}
		buf = append(buf, frame...)
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, 0, fmt.Errorf("registrystore: wal: rebuild %s: %w", path, err)
	}
	if err := os.Rename(path, path+".corrupt"); err != nil && !os.IsNotExist(err) {
		f.Close()
		os.Remove(tmp)
		return nil, 0, fmt.Errorf("registrystore: wal: quarantining %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("registrystore: wal: rebuild %s: %w", path, err)
	}
	atomicfile.SyncDir(filepath.Dir(path))
	return f, int64(len(buf)), nil
}

// decodeFrame parses the frame at off and requires its sequence number to
// be wantSeq. ok is false on a torn, corrupt or out-of-sequence frame — the
// caller truncates from off.
func decodeFrame(data []byte, off int64, wantSeq uint64) (rec Record, next int64, ok bool) {
	rec, seq, next, ok := frameAt(data, off)
	return rec, next, ok && seq == wantSeq
}

// frameAt parses one frame at off and returns its record, its sequence
// number and the offset just past it. ok is false on a torn or corrupt
// frame: one that overruns data, fails its CRC or has inconsistent lengths.
func frameAt(data []byte, off int64) (rec Record, seq uint64, next int64, ok bool) {
	if off+walFrameOverhead > int64(len(data)) {
		return rec, 0, 0, false
	}
	plen := binary.LittleEndian.Uint32(data[off:])
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if plen < 12 || plen > walMaxPayload || off+walFrameOverhead+int64(plen) > int64(len(data)) {
		return rec, 0, 0, false
	}
	payload := data[off+walFrameOverhead : off+walFrameOverhead+int64(plen)]
	if crc32.ChecksumIEEE(payload) != crc {
		return rec, 0, 0, false
	}
	blen := binary.LittleEndian.Uint16(payload[8:])
	vlen := binary.LittleEndian.Uint16(payload[10:])
	if int(blen)+int(vlen)+12 != int(plen) {
		return rec, 0, 0, false
	}
	rec.Buyer = string(payload[12 : 12+blen])
	rec.Value = string(payload[12+int(blen) : 12+int(blen)+int(vlen)])
	return rec, binary.LittleEndian.Uint64(payload), off + walFrameOverhead + int64(plen), true
}

// encodeFrame renders one record at seq as a framed byte string.
func encodeFrame(seq uint64, rec Record) ([]byte, error) {
	if len(rec.Buyer) > 0xffff || len(rec.Value) > 0xffff {
		return nil, fmt.Errorf("registrystore: wal: record too large (buyer %d bytes, value %d bytes)",
			len(rec.Buyer), len(rec.Value))
	}
	plen := 12 + len(rec.Buyer) + len(rec.Value)
	frame := make([]byte, walFrameOverhead+plen)
	payload := frame[walFrameOverhead:]
	binary.LittleEndian.PutUint64(payload, seq)
	binary.LittleEndian.PutUint16(payload[8:], uint16(len(rec.Buyer)))
	binary.LittleEndian.PutUint16(payload[10:], uint16(len(rec.Value)))
	copy(payload[12:], rec.Buyer)
	copy(payload[12+len(rec.Buyer):], rec.Value)
	binary.LittleEndian.PutUint32(frame, uint32(plen))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	return frame, nil
}

// append enqueues the fresh subset of recs and waits for the group commit
// that makes them durable.
func (s *segment) append(recs []Record) (added int, total uint64, err error) {
	s.mu.Lock()
	if s.broken != nil {
		err := s.broken
		s.mu.Unlock()
		return 0, 0, err
	}
	var batch *walBatch
	mustWait := false
	seq := uint64(len(s.recs) + len(s.pending))
	for _, rec := range recs {
		if prev, ok := s.byBuyer[rec.Buyer]; ok {
			if prev != rec.Value {
				s.mu.Unlock()
				return 0, 0, fmt.Errorf("registrystore: wal: conflicting record for %q", rec.Buyer)
			}
			continue // already durable
		}
		if prev, ok := s.pending[rec.Buyer]; ok {
			if prev != rec.Value {
				s.mu.Unlock()
				return 0, 0, fmt.Errorf("registrystore: wal: conflicting record for %q", rec.Buyer)
			}
			mustWait = true // enqueued by a concurrent append; wait for its sync
			continue
		}
		frame, ferr := encodeFrame(seq, rec)
		if ferr != nil {
			s.mu.Unlock()
			return 0, 0, ferr
		}
		if batch == nil {
			batch = &walBatch{}
		}
		batch.frames = append(batch.frames, frame...)
		batch.recs = append(batch.recs, rec)
		s.pending[rec.Buyer] = rec.Value
		seq++
		added++
	}
	if batch == nil && !mustWait {
		total = uint64(len(s.recs))
		s.mu.Unlock()
		return 0, total, nil
	}
	if batch != nil {
		s.batches = append(s.batches, batch)
	}
	done := make(chan error, 1)
	s.waiters = append(s.waiters, done)
	if !s.flushing {
		s.flushing = true
		go s.flush()
	}
	s.mu.Unlock()

	if err := <-done; err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	total = uint64(len(s.recs))
	s.mu.Unlock()
	mRecords.Add(int64(added))
	return added, total, nil
}

// flush is the group committer: it drains the batch queue, writes every
// queued frame, fsyncs once, and releases every waiter that sync covered.
// One flush goroutine runs per segment at a time; appends that arrive while
// a sync is in flight batch into the next round.
func (s *segment) flush() {
	for {
		s.mu.Lock()
		if len(s.batches) == 0 && len(s.waiters) == 0 {
			s.flushing = false
			s.mu.Unlock()
			return
		}
		batches := s.batches
		waiters := s.waiters
		s.batches, s.waiters = nil, nil
		size := s.size
		s.mu.Unlock()

		var frames []byte
		for _, b := range batches {
			frames = append(frames, b.frames...)
		}
		err := fault.Err(fault.StoreWrite)
		wrote := false
		if err == nil && len(frames) > 0 {
			_, err = s.f.WriteAt(frames, size)
			wrote = err == nil
			if err == nil {
				fault.Stall(fault.StoreFsync)
				err = s.f.Sync()
			}
		}
		mWALFsyncs.Inc()

		s.mu.Lock()
		if err == nil {
			s.size = size + int64(len(frames))
			for _, b := range batches {
				for _, rec := range b.recs {
					s.recs = append(s.recs, rec)
					s.byBuyer[rec.Buyer] = rec.Value
					delete(s.pending, rec.Buyer)
				}
			}
		} else {
			// Failed batches leave no in-memory trace; if bytes may have
			// reached the file, cut them back so the next append's frames
			// land at a clean offset (a torn tail would also be cut on the
			// next open — this keeps the running process consistent too).
			for _, b := range batches {
				for _, rec := range b.recs {
					delete(s.pending, rec.Buyer)
				}
			}
			if wrote {
				if terr := s.f.Truncate(size); terr != nil {
					s.broken = fmt.Errorf("registrystore: wal: segment unusable after failed truncate: %v (write error: %w)", terr, err)
				}
			}
		}
		// With no round queued, go idle before releasing the waiters, so an
		// append that has returned never leaves the segment looking
		// mid-commit (Scrub skips such a segment as busy).
		idle := len(s.batches) == 0 && len(s.waiters) == 0
		if idle {
			s.flushing = false
		}
		s.mu.Unlock()
		for _, done := range waiters {
			done <- err
		}
		if idle {
			return
		}
	}
}
