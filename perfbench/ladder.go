package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"github.com/calcm/heterosim/internal/client"
	"github.com/calcm/heterosim/internal/engine"
	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/servecache"
	"github.com/calcm/heterosim/internal/server"
)

// The layer ladder prices each layer for the same request: every
// canonical request class is timed at every rung, and the difference
// between neighbouring rungs is what the upper layer adds.
//
//  1. model: the model-layer work the request needs, called directly
//     (for a cache hit, only the per-request default-backend build).
//  2. engine: strict decode into the exported request type, rung 1's
//     work, and the canonical cache key.
//  3. servecache: rung 2 plus Cache.Do: a hit on a resident key, or a
//     miss that runs rung 1's work and inserts the result.
//  4. handler: the full in-process server.Handler().ServeHTTP.
//  5. client: internal/client over TCP to the heterosimd process.
//  6. peer: internal/client to node A of a two-node in-process cluster,
//     for a key node B owns.
var rungs = []string{"model", "engine", "servecache", "handler", "client", "peer"}

// ladderClass is one canonical request class on the ladder.
type ladderClass struct {
	name  string
	class string // request class, which fixes route and client method
	hit   bool
	// req is the request for call i: fixed for hit classes, a new key
	// per call for cold ones.
	req func(i int) any
	// units splits a decoded request into the cache lookups it makes
	// (one, or one per batch item), each with its model work.
	units func(req any) []unit
	// decode is engine.DecodeStrict into the class's exported type.
	decode func(body []byte) (any, error)
}

type unit struct {
	path string
	req  any
	work func() ([]byte, error)
}

func decodeAs[T any](body []byte) (any, error) {
	var r T
	err := engine.DecodeStrict(body, &r)
	return r, err
}

// buildOnly is a cache hit's whole model-layer cost: Prepare builds the
// default backend for every request before the lookup.
func buildOnly() ([]byte, error) {
	_, _, err := model.New("", 0, 0, nil)
	return nil, err
}

func optimizeUnit(r server.OptimizeRequest, hit bool) unit {
	work := func() ([]byte, error) { return optimizeWork(r) }
	if hit {
		work = buildOnly
	}
	return unit{path: "/v1/optimize", req: r, work: work}
}

func ladderClasses(seed int64, hot []op) []ladderClass {
	keys := ladderKeys(seed)
	first := func(class string) op {
		for _, o := range hot {
			if o.class == class {
				return o
			}
		}
		panic("no hot " + class)
	}
	optHit := first(clsOptimize).req.(server.OptimizeRequest)
	sweepHit := first(clsSweep).req.(server.SweepRequest)
	batchHit := first(clsBatch).req.(server.BatchRequest)
	one := func(path string, work func(r any) ([]byte, error)) func(any) []unit {
		return func(r any) []unit {
			return []unit{{path: path, req: r, work: func() ([]byte, error) { return work(r) }}}
		}
	}
	return []ladderClass{
		{name: "optimize-hit", class: clsOptimize, hit: true,
			req:    func(int) any { return optHit },
			units:  func(r any) []unit { return []unit{optimizeUnit(r.(server.OptimizeRequest), true)} },
			decode: decodeAs[server.OptimizeRequest]},
		{name: "optimize-cold", class: clsOptimize,
			req: func(i int) any {
				r := optHit
				r.F = keys.f(i, 0)
				return r
			},
			units:  func(r any) []unit { return []unit{optimizeUnit(r.(server.OptimizeRequest), false)} },
			decode: decodeAs[server.OptimizeRequest]},
		{name: "sweep-hit", class: clsSweep, hit: true,
			req:    func(int) any { return sweepHit },
			units:  one("/v1/sweep", func(any) ([]byte, error) { return buildOnly() }),
			decode: decodeAs[server.SweepRequest]},
		{name: "sweep-cold", class: clsSweep,
			req:    func(i int) any { return sweepReq("MMM", keys.f(i, 0), designs[1]) },
			units:  one("/v1/sweep", func(r any) ([]byte, error) { return sweepWork(r.(server.SweepRequest)) }),
			decode: decodeAs[server.SweepRequest]},
		{name: "compare", class: clsCompare,
			req:    func(i int) any { return compareReq("MMM", keys.f(i, 0), 2, 3, "") },
			units:  one("/v1/compare", func(r any) ([]byte, error) { return compareWork(r.(server.CompareRequest)) }),
			decode: decodeAs[server.CompareRequest]},
		{name: "frontier-stream", class: clsFrontier,
			req: func(i int) any {
				return server.FrontierRequest{Workload: "FFT-1024", F: keys.f(i, 0), Scenario: 2}
			},
			units:  one("", func(r any) ([]byte, error) { return frontierWork(r.(server.FrontierRequest)) }),
			decode: decodeAs[server.FrontierRequest]},
		{name: "sensitivity", class: clsSensitivity,
			req: func(i int) any { return sensitivityReq("FFT-1024", keys.f(i, 0), designs[4]) },
			units: one("/v1/sensitivity", func(r any) ([]byte, error) {
				return sensitivityWork(r.(server.SensitivityRequest))
			}),
			decode: decodeAs[server.SensitivityRequest]},
		{name: "batch-hit", class: clsBatch, hit: true,
			req: func(int) any { return batchHit },
			units: func(r any) []unit {
				var us []unit
				for _, it := range r.(server.BatchRequest).Items {
					var or server.OptimizeRequest
					if err := engine.DecodeStrict(it.Request, &or); err != nil {
						panic(err)
					}
					us = append(us, optimizeUnit(or, true))
				}
				return us
			},
			decode: decodeAs[server.BatchRequest]},
	}
}

// rungResult is one class at one rung.
type rungResult struct {
	t       timing
	allocs2 float64 // allocations per call, measured a second time
	na      string  // why the rung does not apply, when it does not
}

// ladder measures every class at every rung.
type ladder struct {
	classes []ladderClass
	res     map[string][]rungResult // class name -> per rung
	// peerHopUs is node A -> node B minus node B directly, for the
	// optimize hit.
	peerHopUs float64
}

const (
	ladderRounds = 21
	ladderRound  = 6 * time.Millisecond
	// rungStride separates the cold keys each rung uses (call i of rung
	// r gets key index r*rungStride + i), so no rung ever hits a key
	// another rung inserted.
	rungStride = 1 << 16
)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func (l *ladder) run(seed int64, daemonURL string) error {
	cache, err := servecache.New(4096)
	if err != nil {
		return err
	}
	inproc, err := server.New(server.Config{})
	if err != nil {
		return err
	}
	cl, err := startPair()
	if err != nil {
		return err
	}
	defer cl.stop()
	dc, err := newClient(daemonURL, 1, seed)
	if err != nil {
		return err
	}
	l.res = map[string][]rungResult{}
	for _, c := range l.classes {
		body := func(r, i int) []byte { return mustJSON(c.req(r*rungStride + i)) }
		fns := []func(i int) error{
			func(i int) error { // model
				for _, u := range c.units(c.req(i)) {
					if _, err := u.work(); err != nil {
						return err
					}
				}
				return nil
			},
			func(i int) error { // engine
				req, err := c.decode(body(1, i))
				if err != nil {
					return err
				}
				for _, u := range c.units(req) {
					if _, err := u.work(); err != nil {
						return err
					}
					if _, err := engine.CanonicalKey(u.path, u.req); err != nil {
						return err
					}
				}
				return nil
			},
			func(i int) error { // servecache
				req, err := c.decode(body(2, i))
				if err != nil {
					return err
				}
				for _, u := range c.units(req) {
					key, err := engine.CanonicalKey(u.path, u.req)
					if err != nil {
						return err
					}
					if c.hit {
						if _, err := u.work(); err != nil {
							return err
						}
					}
					_, outcome, err := cache.Do(context.Background(), key, func(context.Context) ([]byte, error) { return u.work() })
					if err != nil {
						return err
					}
					// Call 0 of a hit class is the one that makes its key
					// resident; every later call must hit.
					if c.hit && i > 0 && outcome != servecache.Hit {
						return fmt.Errorf("%s: resident key answered %v", c.name, outcome)
					}
				}
				return nil
			},
			func(i int) error { // handler
				rec := httptest.NewRecorder()
				inproc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, routes[c.class], bytes.NewReader(body(3, i))))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("%s: in-process handler answered %d: %s", c.name, rec.Code, rec.Body.Bytes())
				}
				return nil
			},
			func(i int) error { // client
				_, _, err := send(dc, op{class: c.class, req: c.req(4*rungStride + i)}, fmt.Sprintf("l-%s-%d", c.name, i))
				return err
			},
		}
		var rs []rungResult
		for r, fn := range fns {
			if r == 2 && c.class == clsFrontier {
				rs = append(rs, rungResult{na: "streams have no cache key"})
				continue
			}
			if c.hit && r >= 2 {
				if err := fn(0); err != nil { // makes the key resident
					return err
				}
			}
			t, err := timeCalls(ladderRounds, ladderRound, fn)
			if err != nil {
				return fmt.Errorf("ladder %s/%s: %w", c.name, rungs[r], err)
			}
			res := rungResult{t: t}
			if r < 4 {
				n := max(10, int(math.Ceil(2e4/t.median())))
				k := rungStride / 2 // a second alloc pass, on keys the first never used
				if res.allocs2, err = allocsPerCall(min(n, 2000), func() error { k++; return fn(k) }); err != nil {
					return err
				}
			}
			rs = append(rs, res)
		}
		peer, err := cl.rung(c)
		if err != nil {
			return fmt.Errorf("ladder %s/peer: %w", c.name, err)
		}
		rs = append(rs, peer)
		l.res[c.name] = rs
	}
	hop, err := cl.hop(l.classes[0])
	if err != nil {
		return err
	}
	l.peerHopUs = hop
	return nil
}

// pair is a two-node in-process cluster, each node serving on loopback.
type pair struct {
	urls    [2]string
	clients [2]*client.Client
	cancel  context.CancelFunc
	done    chan error
}

func startPair() (*pair, error) {
	var lns [2]net.Listener
	p := &pair{done: make(chan error, 2)}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			if i > 0 {
				lns[0].Close()
			}
			return nil, err
		}
		lns[i] = ln
		p.urls[i] = "http://" + ln.Addr().String()
	}
	var srvs [2]*server.Server
	for i := range srvs {
		var err error
		if srvs[i], err = server.New(server.Config{Peers: p.urls[:], PeerSelf: p.urls[i]}); err == nil {
			p.clients[i], err = newClient(p.urls[i], 1, 1)
		}
		if err != nil {
			lns[0].Close()
			lns[1].Close()
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	for i, ln := range lns {
		go func() { p.done <- srvs[i].Serve(ctx, ln) }()
	}
	return p, nil
}

func (p *pair) stop() {
	p.cancel()
	<-p.done
	<-p.done
}

// outcome sends o to node n and reports the cache outcome it answered.
func (p *pair) outcome(n int, o op) (string, error) {
	tp := &tap{}
	ctx := context.WithValue(context.Background(), tapKey{}, tp)
	err := issue(ctx, p.clients[n], o)
	return tp.cache, err
}

// rung times class c through the node that does not own its key. Hit
// classes find that node once; cold classes keep only the calls whose
// fresh key the other node owned (answered "peer").
func (p *pair) rung(c ladderClass) (rungResult, error) {
	switch c.class {
	case clsFrontier, clsSweepStream:
		return rungResult{na: "streams are never forwarded to a peer"}, nil
	case clsBatch:
		// Items are forwarded one by one; the batch enters at node 0.
		o := op{class: c.class, req: c.req(0)}
		t, err := timeCalls(ladderRounds, ladderRound, func(i int) error {
			_, err := p.outcome(0, o)
			return err
		})
		return rungResult{t: t}, err
	}
	if c.hit {
		o := op{class: c.class, req: c.req(0)}
		entry := -1
		for n := 0; n < 2 && entry < 0; n++ {
			if _, err := p.outcome(n, o); err != nil {
				return rungResult{}, err
			}
			if got, err := p.outcome(n, o); err != nil {
				return rungResult{}, err
			} else if got == servecache.Peer.String() {
				entry = n
			}
		}
		if entry < 0 {
			return rungResult{}, errors.New("neither node forwarded the key")
		}
		t, err := timeCalls(ladderRounds, ladderRound, func(int) error {
			got, err := p.outcome(entry, o)
			if err == nil && got != servecache.Peer.String() {
				err = fmt.Errorf("answered %q, want peer", got)
			}
			return err
		})
		return rungResult{t: t}, err
	}
	var t timing
	for i := 0; len(t.us) < ladderRounds; i++ {
		if i > 20*ladderRounds {
			return rungResult{}, errors.New("too few forwarded keys")
		}
		o := op{class: c.class, req: c.req(5*rungStride + i)}
		t0 := time.Now()
		got, err := p.outcome(0, o)
		el := time.Since(t0)
		if err != nil {
			return rungResult{}, err
		}
		if got == servecache.Peer.String() {
			t.us = append(t.us, float64(el)/float64(time.Microsecond))
		}
	}
	return rungResult{t: t}, nil
}

// hop is the peer tier's own cost for a resident key: the same request
// through the forwarding node minus through the owner.
func (p *pair) hop(c ladderClass) (float64, error) {
	o := op{class: c.class, req: c.req(0)}
	var med [2]float64
	for n := 0; n < 2; n++ {
		t, err := timeCalls(ladderRounds, ladderRound, func(int) error {
			_, err := p.outcome(n, o)
			return err
		})
		if err != nil {
			return 0, err
		}
		med[n] = t.median()
	}
	got, err := p.outcome(0, o)
	if err != nil {
		return 0, err
	}
	if got == servecache.Peer.String() {
		return med[0] - med[1], nil
	}
	return med[1] - med[0], nil
}

// print writes the ladder table: per class and rung the median µs per
// call, its IQR, allocations per call, and the delta from the rung below.
func (l *ladder) print(w *strings.Builder) {
	fmt.Fprintf(w, "layer ladder: median us/op [IQR] (allocs/op) +delta from the rung below\n")
	fmt.Fprintf(w, "%-16s", "class")
	for _, r := range rungs {
		fmt.Fprintf(w, " | %-30s", r)
	}
	fmt.Fprintln(w)
	for _, c := range l.classes {
		fmt.Fprintf(w, "%-16s", c.name)
		prev := math.NaN()
		for _, r := range l.res[c.name] {
			if r.na != "" {
				fmt.Fprintf(w, " | %-30s", "n/a")
				continue
			}
			m := r.t.median()
			cell := fmt.Sprintf("%.1f [%.1f]", m, iqr(r.t.us))
			if r.t.allocs > 0 || r.allocs2 > 0 {
				cell += fmt.Sprintf(" (%.0f)", r.t.allocs)
			}
			if !math.IsNaN(prev) {
				cell += fmt.Sprintf(" %+.1f", m-prev)
			}
			prev = m
			fmt.Fprintf(w, " | %-30s", cell)
		}
		fmt.Fprintln(w)
	}
	for _, c := range l.classes {
		for r, res := range l.res[c.name] {
			if res.na != "" {
				fmt.Fprintf(w, "n/a %s/%s: %s\n", c.name, rungs[r], res.na)
			}
		}
	}
}
