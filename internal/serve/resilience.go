package serve

// This file is the daemon's resilience layer: retry with backoff for
// transient store errors, a circuit breaker around SAT-based issue
// verification with a simulation-based degraded fallback, and queue-depth
// load shedding. DESIGN.md §10 describes the failure model these pieces
// implement; every decision they take is counted in internal/obs so a chaos
// run (make chaos) can assert on the /metrics snapshot.

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/cec"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/sim"
)

// Resilience metrics. All are Nondet: whether a retry, trip, degrade or
// shed happens depends on timing and injected-fault interleaving.
var (
	mStoreRetries   = obs.NewCounter("serve", "store_retries", obs.Nondet())
	mBreakerTrips   = obs.NewCounter("serve", "breaker_trips", obs.Nondet())
	mVerifyDegraded = obs.NewCounter("serve", "verify_degraded", obs.Nondet())
	mShed           = obs.NewCounter("serve", "shed_requests", obs.Nondet())
)

// The resilience policy. No deployment has needed to tune it, so it is
// fixed here rather than configured.
const (
	retryAttempts    = 3                    // tries for a transient store error
	retryBase        = 5 * time.Millisecond // first backoff; each later one doubles
	breakerThreshold = 3                    // consecutive SAT-verify failures that trip the breaker
	breakerCooldown  = 30 * time.Second     // how long a tripped breaker stays open before a probe
	queuePerWorker   = 4                    // callers waiting per worker slot before requests are shed

	// degradedSimWords sizes the random-pattern spot check used when SAT
	// verification is unavailable: 64 words = 4096 patterns per PO.
	degradedSimWords = 64
)

// isTransient reports whether err is worth retrying: anything in the chain
// declaring Transient() true (injected faults do; real disk errors from a
// flaky volume would via a wrapper).
func isTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// retryStore runs fn up to retryAttempts times, sleeping s.backoff<<i plus
// up to 50% jitter between tries. Only transient errors are retried; the
// context aborts both the work (via fn's own plumbing) and the backoff
// sleeps.
func (s *Server) retryStore(ctx context.Context, fn func() error) error {
	var err error
	for i := 0; i < retryAttempts; i++ {
		if i > 0 {
			d := s.backoff << (i - 1)
			d += time.Duration(rand.Int63n(int64(d)/2 + 1))
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			}
			mStoreRetries.Inc()
		}
		if err = fn(); err == nil || !isTransient(err) {
			return err
		}
	}
	return err
}

// breaker is a consecutive-failure circuit breaker. Closed: everything is
// allowed. After threshold consecutive failures it opens: allow reports
// false until the cooldown elapses, then exactly one probe is admitted
// (half-open); the probe's success closes the breaker, its failure re-opens
// it for another cooldown.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	failures int
	open     bool
	probing  bool
	reopenAt time.Time
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// allow reports whether the protected operation may run now.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.probing || time.Now().Before(b.reopenAt) {
		return false
	}
	b.probing = true
	return true
}

// success records a successful protected operation.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.open = false
	b.probing = false
}

// failure records a failed protected operation, tripping the breaker at the
// threshold (or instantly when a half-open probe fails).
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	if b.probing || b.failures >= b.threshold {
		if !b.open || b.probing {
			mBreakerTrips.Inc()
		}
		b.open = true
		b.probing = false
		b.reopenAt = time.Now().Add(b.cooldown)
	}
}

// isOpen reports the breaker state (health endpoint / tests).
func (b *breaker) isOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}

// verifyIssued proves the issued copy equivalent to the master and returns
// the label for the X-Odcfp-Verified response header: "equivalent" from a
// SAT proof, "degraded" from the random-pattern fallback. The proof is
// about the item's assignment; core.Embed has already checked that the
// netlist which ships conforms to that assignment's slot model.
//
// The flow is the breaker's: while closed, SAT verification runs under the
// request context. A deadline/cancel counts a breaker failure and surfaces
// the context error (the request 504s and its slot frees). A SAT budget
// exhaustion — including the sat.budget fault point — counts a failure and
// degrades inline. Once the breaker is open, SAT is skipped outright and
// every verification degrades until a cooldown probe succeeds.
func (s *Server) verifyIssued(ctx context.Context, a *core.Analysis, it registry.BatchItem) (string, error) {
	if !s.breaker.allow() {
		return s.degradedVerify(a, it.Circuit)
	}
	verdict, err := a.SharedVerifier().VerifyCtx(ctx, it.Assignment)
	switch {
	case err == nil:
		s.breaker.success()
		if !verdict.Equivalent {
			return "", apiErrorf(http.StatusInternalServerError,
				"issued copy NOT equivalent to master (PO %s)", verdict.PO)
		}
		return "equivalent", nil
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		s.breaker.failure()
		return "", err
	case errors.Is(err, cec.ErrBudgetExhausted):
		s.breaker.failure()
		return s.degradedVerify(a, it.Circuit)
	default:
		return "", apiErrorf(http.StatusInternalServerError, "verifying issued copy: %v", err)
	}
}

// degradedVerify is the fallback spot check: random-pattern simulation of
// the master against the issued copy. It cannot prove equivalence, but any
// mismatch it finds is real — so a failing spot check still blocks the
// response. It runs on the gate-level reference simulator (internal/sim)
// on purpose: the check must stay independent of the cec/AIG stack whose
// failure tripped the breaker in the first place.
func (s *Server) degradedVerify(a *core.Analysis, cp *circuit.Circuit) (string, error) {
	mVerifyDegraded.Inc()
	eq, mm, err := sim.EquivalentRandom(a.Circuit, cp, degradedSimWords, 1)
	if err != nil {
		return "", apiErrorf(http.StatusInternalServerError, "degraded verification: %v", err)
	}
	if !eq {
		return "", apiErrorf(http.StatusInternalServerError,
			"issued copy failed degraded spot-check (%s)", mm)
	}
	return "degraded", nil
}
