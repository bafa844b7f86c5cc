package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/calcm/heterosim/internal/telemetry"
)

// gate is the admission controller: a semaphore bounding concurrent
// evaluations plus a bounded wait queue. Under overload it degrades
// deterministically instead of collapsing — a request past the queue
// bound is rejected immediately with 429 (the queue is full, retrying
// now is pointless), and a queued request that cannot get a slot within
// the timeout gets 503 (the service is saturated, retry later). Cache
// hits and coalesced waiters never pass through the gate; only work that
// would actually evaluate the model is admitted.
type gate struct {
	sem      chan struct{}
	maxQueue int64
	timeout  time.Duration

	queued           atomic.Int64 // current gauge
	accepted         atomic.Int64
	rejectedFull     atomic.Int64 // queue overflow -> 429
	rejectedTimeout  atomic.Int64 // queue wait expired -> 503
	rejectedDeadline atomic.Int64 // request deadline expired in queue -> 504
}

// newGate builds a gate admitting maxInflight concurrent evaluations
// with at most maxQueue waiters, each waiting up to timeout.
func newGate(maxInflight, maxQueue int, timeout time.Duration) *gate {
	return &gate{
		sem:      make(chan struct{}, maxInflight),
		maxQueue: int64(maxQueue),
		timeout:  timeout,
	}
}

// acquire admits the caller or rejects with an HTTP status. On admission
// it returns a release func and a zero status. A request deadline
// expiring in the queue surfaces as 504 — the caller waited its full
// budget, the gate never let it run; plain cancellation (client
// disconnect) surfaces as 503, a moot distinction because nobody is left
// to read the response.
func (g *gate) acquire(ctx context.Context) (release func(), status int) {
	// The "gate" stage records admission wait — near zero on the fast
	// path, the full queue delay under load, and the whole timeout on a
	// rejection — so a saturated gate is visible in the p99 before it
	// shows up as 429s.
	defer telemetry.StartSpan(ctx, "gate").End()
	select {
	case g.sem <- struct{}{}:
		g.accepted.Add(1)
		return func() { <-g.sem }, 0
	default:
	}
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		g.rejectedFull.Add(1)
		return nil, http.StatusTooManyRequests
	}
	defer g.queued.Add(-1)
	timer := time.NewTimer(g.timeout)
	defer timer.Stop()
	select {
	case g.sem <- struct{}{}:
		g.accepted.Add(1)
		return func() { <-g.sem }, 0
	case <-timer.C:
		g.rejectedTimeout.Add(1)
		return nil, http.StatusServiceUnavailable
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			g.rejectedDeadline.Add(1)
			return nil, http.StatusGatewayTimeout
		}
		g.rejectedTimeout.Add(1)
		return nil, http.StatusServiceUnavailable
	}
}

// grant is one request's admission through the gate, shared by every
// evaluation the request makes: the first one acquires a slot and later
// ones reuse it (a batch's items), while a rejection is kept so they
// fail fast with the same status instead of re-queueing. Cache hits and
// coalesced waiters never reach it. admit is safe for concurrent use.
type grant struct {
	gate   *gate
	once   sync.Once
	free   func() // non-nil while a slot is held
	status int    // non-zero: admission failed with this HTTP status
}

// admit holds a slot for the request, or returns the gate's rejection.
func (g *grant) admit(ctx context.Context) error {
	g.once.Do(func() { g.free, g.status = g.gate.acquire(ctx) })
	if g.status != 0 {
		return &apiError{Status: g.status, Message: "server saturated, retry later"}
	}
	return nil
}

// release ends the grant, freeing its slot if it holds one. Call it on
// the request's goroutine once the request will evaluate no more;
// calling it again is a no-op.
func (g *grant) release() {
	if g.free != nil {
		g.free()
		g.free = nil
	}
}

// gateStats is the admission section of /metrics.
type gateStats struct {
	MaxInflight      int   `json:"maxInflight"`
	MaxQueue         int64 `json:"maxQueue"`
	QueueTimeoutMS   int64 `json:"queueTimeoutMs"`
	Inflight         int   `json:"inflight"`
	Queued           int64 `json:"queued"`
	Accepted         int64 `json:"accepted"`
	RejectedFull     int64 `json:"rejectedFull"`
	RejectedTimeout  int64 `json:"rejectedTimeout"`
	RejectedDeadline int64 `json:"rejectedDeadline"`
}

// stats snapshots the gate counters.
func (g *gate) stats() gateStats {
	return gateStats{
		MaxInflight:      cap(g.sem),
		MaxQueue:         g.maxQueue,
		QueueTimeoutMS:   g.timeout.Milliseconds(),
		Inflight:         len(g.sem),
		Queued:           g.queued.Load(),
		Accepted:         g.accepted.Load(),
		RejectedFull:     g.rejectedFull.Load(),
		RejectedTimeout:  g.rejectedTimeout.Load(),
		RejectedDeadline: g.rejectedDeadline.Load(),
	}
}
