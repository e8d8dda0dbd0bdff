package registrystore

// Hinted handoff (DESIGN.md §13): when a peer replication fails or times
// out after the local append, the coordinator persists a hint — the design
// digest, the sequence range the peer missed, and the target node — to a
// per-peer hint log, and a background redelivery loop drains the hints with
// backoff once the peer answers again. Convergence after a partition or a
// peer outage therefore no longer waits for organic traffic to the same
// design: the coordinator owes the delivery and keeps trying.
//
// The hint log reuses the WAL's frame machinery: the same CRC-framed
// length-prefixed records (buyer field = design digest, value field =
// "lo-hi" sequence range), the same torn-tail truncation rule at replay.
// Hints only ever instruct an idempotent re-send of records the WAL holds
// durably, so replaying a stale or already-delivered hint is harmless —
// which is why the log can compact lazily (truncate when the queue drains)
// instead of logging per-hint tombstones.

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/registry"
)

// hintMagic opens every hint log file.
const hintMagic = "ODCHNT1\n"

// hintRange is the half-open [Lo, Hi) sequence range a peer missed.
type hintRange struct {
	Lo, Hi uint64
}

// hintLog is one peer's durable queue of missed replications.
type hintLog struct {
	node string
	path string

	mu     sync.Mutex
	f      *os.File
	size   int64
	seq    uint64
	pend   map[string]hintRange // digest → merged missed range
	broken error
}

// hintLogPath names a peer's hint log file: a sanitised copy of the node id
// plus a hash suffix (so distinct ids that sanitise alike cannot collide).
func hintLogPath(dir, node string) string {
	san := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		}
		return '_'
	}, node)
	h := crc32.ChecksumIEEE([]byte(node))
	return filepath.Join(dir, fmt.Sprintf("%s-%08x.hints", san, h))
}

// openHintLog opens (creating if necessary) the peer's hint log and replays
// any hints a previous process left undelivered.
func openHintLog(dir, node string) (*hintLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registrystore: hints: %w", err)
	}
	path := hintLogPath(dir, node)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("registrystore: hints: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("registrystore: hints: %w", err)
	}
	h := &hintLog{node: node, path: path, f: f, pend: make(map[string]hintRange)}
	if len(data) == 0 {
		if _, err := f.Write([]byte(hintMagic)); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("registrystore: hints: %s: %w", path, err)
		}
		h.size = int64(len(hintMagic))
		return h, nil
	}
	if len(data) < len(hintMagic) || string(data[:len(hintMagic)]) != hintMagic {
		f.Close()
		return nil, fmt.Errorf("registrystore: hints: %s: bad header", path)
	}
	off := int64(len(hintMagic))
	for {
		rec, next, ok := decodeFrame(data, off, h.seq)
		if !ok {
			break
		}
		if digest, rng, perr := parseHint(rec); perr == nil {
			h.merge(digest, rng)
		}
		h.seq++
		off = next
	}
	if off < int64(len(data)) {
		// Torn tail from a crash mid-hint-write: same contract as the WAL.
		if err := f.Truncate(off); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("registrystore: hints: truncating %s: %w", path, err)
		}
	}
	h.size = off
	return h, nil
}

// parseHint decodes one replayed frame back into (digest, range).
func parseHint(rec Record) (string, hintRange, error) {
	lo, hi, ok := strings.Cut(rec.Value, "-")
	if !registry.ValidDigest(rec.Buyer) || !ok {
		return "", hintRange{}, fmt.Errorf("registrystore: hints: malformed hint %q=%q", rec.Buyer, rec.Value)
	}
	l, err1 := strconv.ParseUint(lo, 10, 64)
	h, err2 := strconv.ParseUint(hi, 10, 64)
	if err1 != nil || err2 != nil {
		return "", hintRange{}, fmt.Errorf("registrystore: hints: malformed range %q", rec.Value)
	}
	return rec.Buyer, hintRange{Lo: l, Hi: h}, nil
}

// merge widens the digest's pending range; the caller holds mu (or owns
// the log exclusively during replay).
func (h *hintLog) merge(digest string, rng hintRange) {
	if prev, ok := h.pend[digest]; ok {
		if prev.Lo < rng.Lo {
			rng.Lo = prev.Lo
		}
		if prev.Hi > rng.Hi {
			rng.Hi = prev.Hi
		}
	}
	h.pend[digest] = rng
}

// add durably queues a hint: the peer missed the digest's [lo, hi) records.
func (h *hintLog) add(digest string, lo, hi uint64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Merge before any durability check: even when the log file is broken
	// the hint stays queued in memory for this process's lifetime.
	h.merge(digest, hintRange{Lo: lo, Hi: hi})
	if h.broken != nil {
		return h.broken
	}
	frame, err := encodeFrame(h.seq, Record{Buyer: digest, Value: fmt.Sprintf("%d-%d", lo, hi)})
	if err != nil {
		return err
	}
	if _, err := h.f.WriteAt(frame, h.size); err == nil {
		err = h.f.Sync()
	}
	if err != nil {
		// The hint stays queued in memory (redelivery still runs this
		// process's lifetime); the log is too damaged to extend further.
		h.broken = fmt.Errorf("registrystore: hints: %s: %w", h.path, err)
		return h.broken
	}
	h.size += int64(len(frame))
	h.seq++
	return nil
}

// pending snapshots the undelivered hints.
func (h *hintLog) pending() map[string]hintRange {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]hintRange, len(h.pend))
	for d, r := range h.pend {
		out[d] = r
	}
	return out
}

// pendingCount returns how many designs have undelivered hints.
func (h *hintLog) pendingCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pend)
}

// clear marks the digest's hints delivered, compacting the log file back to
// its header once the whole queue is empty. (Hints cleared while others
// remain stay on disk until then; replaying an already-delivered hint after
// a restart is an idempotent no-op re-send.)
func (h *hintLog) clear(digest string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.pend, digest)
	if len(h.pend) != 0 || h.broken != nil || h.size == int64(len(hintMagic)) {
		return
	}
	if err := h.f.Truncate(int64(len(hintMagic))); err == nil {
		err = h.f.Sync()
	} else {
		h.broken = fmt.Errorf("registrystore: hints: compacting %s: %w", h.path, err)
		return
	}
	h.size = int64(len(hintMagic))
	h.seq = 0
}

// close releases the log file.
func (h *hintLog) close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.broken == nil {
		h.broken = fmt.Errorf("registrystore: hints: closed")
	}
	return h.f.Close()
}
