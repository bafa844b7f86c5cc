package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"github.com/calcm/heterosim/internal/client"
	"github.com/calcm/heterosim/internal/server"
)

// Request classes. Each maps onto one client method and one route.
const (
	clsOptimize    = "optimize"
	clsSweep       = "sweep"
	clsSweepStream = "sweep-stream"
	clsCompare     = "compare"
	clsFrontier    = "frontier"
	clsSensitivity = "sensitivity"
	clsBatch       = "batch"
)

// routes is the HTTP path of each class, as the daemon sees it.
var routes = map[string]string{
	clsOptimize:    "/v1/optimize",
	clsSweep:       "/v1/sweep",
	clsSweepStream: "/v1/sweep?stream=ndjson",
	clsCompare:     "/v1/compare",
	clsFrontier:    "/v1/frontier/stream",
	clsSensitivity: "/v1/sensitivity",
	clsBatch:       "/v1/batch",
}

// backends are the model backends a cold optimize rotates through.
var backends = []string{"chung", "multiamdahl", "multiamdahl-thermal", "sqrtm"}

var (
	workloads = []string{"MMM", "BS", "FFT-1024"}
	nodes     = []string{"40nm", "32nm", "22nm", "16nm", "11nm"}
	// designs have published Table 5 parameters for every workload above.
	designs = []server.DesignSpec{
		{Kind: "sym"}, {Kind: "asym"},
		{Kind: "het", Device: "GTX285"}, {Kind: "het", Device: "LX760"}, {Kind: "het", Device: "ASIC"},
	}
)

// op is one request the load generator issues: an HTTP request (a batch
// counts as one) of a class, with its typed body.
type op struct {
	class string
	req   any
	// keys is the number of cache lookups the op makes: one per
	// buffered request, one per batch item, none for streams.
	keys int
	// name identifies catalog and probe ops, whose response digests are
	// stored with the benchmark; generated cold ops have no name.
	name string
}

// body is the request body exactly as internal/client marshals it.
func (o op) body() []byte { return mustJSON(o.req) }

func optimizeReq(w string, f float64, node string, d server.DesignSpec, model string) server.OptimizeRequest {
	return server.OptimizeRequest{Workload: w, F: f, Node: node, Design: d, Model: model}
}

func sweepReq(w string, f float64, d server.DesignSpec) server.SweepRequest {
	return server.SweepRequest{
		Workload: w, Node: "40nm", Design: d,
		F:          server.AxisSpec{Lo: f - 0.3, Hi: f, Steps: 6},
		PowerScale: &server.AxisSpec{Lo: 0.5, Hi: 2, Steps: 6},
	}
}

func compareReq(w string, f float64, s1, s2 int, model string) server.CompareRequest {
	return server.CompareRequest{Workload: w, F: f, Pairs: []server.ComparePair{
		{Scenario: s1, Model: model}, {Scenario: s2},
	}}
}

func sensitivityReq(w string, f float64, d server.DesignSpec) server.SensitivityRequest {
	return server.SensitivityRequest{Workload: w, F: f, Design: d, Samples: 1000}
}

func batchOf(items []server.OptimizeRequest) server.BatchRequest {
	b := server.BatchRequest{}
	for _, it := range items {
		raw, err := json.Marshal(it)
		if err != nil {
			panic(err)
		}
		b.Items = append(b.Items, server.BatchItemRequest{Op: "optimize", Request: raw})
	}
	return b
}

// hotCatalog is serve-hot's key set, fixed for every seed so that its
// response digests can be stored with the benchmark. The seed picks the
// order in which the timed phase draws from it.
func hotCatalog() []op {
	var ops, optimizes []op
	for _, w := range workloads {
		for _, d := range designs[:4] {
			for _, f := range []float64{0.9, 0.99} {
				for _, n := range []string{"40nm", "22nm"} {
					optimizes = append(optimizes, op{class: clsOptimize, keys: 1,
						req: optimizeReq(w, f, n, d, "")})
				}
			}
		}
	}
	ops = append(ops, optimizes...)
	for _, w := range workloads {
		for _, d := range []server.DesignSpec{designs[1], designs[2]} {
			ops = append(ops, op{class: clsSweep, keys: 1, req: sweepReq(w, 0.99, d)})
		}
	}
	for i, w := range []string{"MMM", "FFT-1024"} {
		for j := 0; j < 2; j++ {
			ops = append(ops, op{class: clsCompare, keys: 1, req: compareReq(w, 0.99, 1+i+2*j, 2+i+2*j, "")})
		}
	}
	// Batches come last: warming walks the catalog in order, so every
	// batch item is already resident when its batch is first sent.
	for i := 0; i < 4; i++ {
		var items []server.OptimizeRequest
		for j := 0; j < 8; j++ {
			items = append(items, optimizes[(i*11+j*5)%len(optimizes)].req.(server.OptimizeRequest))
		}
		ops = append(ops, op{class: clsBatch, keys: len(items), req: batchOf(items)})
	}
	for i := range ops {
		ops[i].name = fmt.Sprintf("hot/%s/%d", ops[i].class, i)
	}
	return ops
}

// hotWeights is serve-hot's class mix in percent: mostly buffered
// optimize, plus cached sweep, compare and batch of cached items.
var hotWeights = []classWeight{{clsOptimize, 70}, {clsSweep, 10}, {clsCompare, 10}, {clsBatch, 10}}

// coldWeights is serve-cold's class mix in percent, covering all three
// request pipelines. It is weighted toward the classes whose evaluation
// outweighs the fixed per-request path (a cold optimize evaluates in
// about a tenth of it), so that the daemon's evaluate stage takes most
// of its CPU; the traced run reports that share as
// server.evaluate_cpu_share.
var coldWeights = []classWeight{
	{clsOptimize, 10}, {clsSweep, 12}, {clsSweepStream, 12}, {clsCompare, 18},
	{clsFrontier, 14}, {clsSensitivity, 20}, {clsBatch, 14},
}

type classWeight struct {
	class string
	pct   int
}

func pickClass(ws []classWeight, rng *rand.Rand) string {
	n := rng.Intn(100)
	for _, w := range ws {
		if n < w.pct {
			return w.class
		}
		n -= w.pct
	}
	return ws[len(ws)-1].class
}

// mix64 is splitmix64's finalizer: op i of a seeded stream draws its
// own generator, so the op sequence is a pure function of (seed, i)
// however the clients interleave.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func opRNG(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)))))
}

// hotOp is op i of serve-hot's timed stream.
func hotOp(cat []op, byClass map[string][]int, seed int64, i int) op {
	rng := opRNG(seed, i)
	idx := byClass[pickClass(hotWeights, rng)]
	return cat[idx[rng.Intn(len(idx))]]
}

func classIndex(cat []op) map[string][]int {
	m := map[string][]int{}
	for i, o := range cat {
		m[o.class] = append(m[o.class], i)
	}
	return m
}

// Cold keys are made unique by their parallel fraction: op i, item j
// gets f = base + ((offset + 8i + j) * stride mod 2^22) * width / 2^22,
// an exact binary fraction for the widths below. The offset comes from
// the seed, so different seeds issue different keys; the stride is odd,
// so within a run no two requests share a key. The stride is close to
// 2^22 over the golden ratio, so consecutive ops spread evenly over the
// whole width and every seed's run prices the same range of f.
const (
	coldSlots  = 8 // f values reserved per op (a cold batch uses 6)
	coldSpan   = 1 << 22
	coldStride = 2592261 // odd, about 2^22 / 1.618
)

type coldKeys struct {
	base   float64
	offset uint64
	scale  float64
}

// timedColdKeys are serve-cold's: f in [0.5, 1).
func timedColdKeys(seed int64) coldKeys { return seededKeys(seed, 0.5, 0.5) }

// ladderKeys are the traced ladder's: f in [0.375, 0.5).
func ladderKeys(seed int64) coldKeys { return seededKeys(seed, 0.375, 0.125) }

func seededKeys(seed int64, base, width float64) coldKeys {
	return coldKeys{base: base, offset: mix64(uint64(seed)) % coldSpan, scale: width / coldSpan}
}

func (k coldKeys) f(i, j int) float64 {
	return k.base + float64((k.offset+uint64(i*coldSlots+j))*coldStride%coldSpan)*k.scale
}

// coldOp is op i of serve-cold's timed stream; every cacheable key in
// it is new to the run.
func coldOp(k coldKeys, seed int64, i int) op {
	rng := opRNG(seed, i)
	return coldOpOf(pickClass(coldWeights, rng), k, rng, i)
}

func coldOpOf(class string, k coldKeys, rng *rand.Rand, i int) op {
	w := workloads[rng.Intn(len(workloads))]
	f := k.f(i, 0)
	switch class {
	case clsOptimize:
		return op{class: class, keys: 1, req: optimizeReq(w, f, nodes[rng.Intn(len(nodes))],
			designs[rng.Intn(len(designs))], backends[rng.Intn(len(backends))])}
	case clsSweep, clsSweepStream:
		keys := 1
		if class == clsSweepStream {
			keys = 0
		}
		return op{class: class, keys: keys, req: sweepReq(w, f, designs[rng.Intn(len(designs))])}
	case clsCompare:
		s := 1 + rng.Intn(5)
		return op{class: class, keys: 1, req: compareReq(w, f, s, s+1, backends[rng.Intn(len(backends))])}
	case clsFrontier:
		return op{class: class, req: server.FrontierRequest{Workload: w, F: f,
			Scenario: rng.Intn(7), Model: backends[rng.Intn(len(backends))]}}
	case clsSensitivity:
		return op{class: class, keys: 1, req: sensitivityReq(w, f, designs[rng.Intn(len(designs))])}
	case clsBatch:
		var items []server.OptimizeRequest
		for j := 0; j < 6; j++ {
			items = append(items, optimizeReq(workloads[rng.Intn(len(workloads))], k.f(i, j),
				"40nm", designs[rng.Intn(len(designs))], backends[rng.Intn(len(backends))]))
		}
		return op{class: class, keys: len(items), req: batchOf(items)}
	}
	panic("unknown class " + class)
}

// probes is the warm-up set: one request of every class (optimize on
// every backend), with parallel fractions in [0.3, 0.3625), outside both
// the hot set and every timed cold key. Warming them fills the
// process-global memos (Monte Carlo draw matrices, scaling tables, the
// default evaluator) before timing, and their stored digests pin the
// model code's bytes for the cold classes.
func probes() []op {
	var ops []op
	rng := rand.New(rand.NewSource(1))
	k := coldKeys{base: 0.3, scale: 0.0625 / coldSpan}
	i := 0
	add := func(class string) {
		o := coldOpOf(class, k, rng, i)
		i++
		o.name = fmt.Sprintf("probe/%s/%d", class, len(ops))
		ops = append(ops, o)
	}
	for _, b := range backends {
		o := op{class: clsOptimize, keys: 1, req: optimizeReq("FFT-1024", k.f(i, 0), "22nm", designs[4], b),
			name: fmt.Sprintf("probe/%s/%d", clsOptimize, len(ops))}
		i++
		ops = append(ops, o)
	}
	for _, c := range []string{clsSweep, clsSweepStream, clsCompare, clsFrontier, clsSensitivity, clsBatch} {
		add(c)
	}
	return ops
}

// pinnedSet is serve-cold's stored key universe: every value a cold op
// draws (workload, node, design, backend, scenario), in every
// combination its class draws them in, at parallel fractions of the
// same full-precision grid as the timed keys. The daemon that served the
// timed phase answers it afterwards, and every body is compared with its
// stored digest, so a change that alters any cold class's output for
// any of those values fails the run even though the timed keys
// themselves depend on the seed.
func pinnedSet() []op {
	k := coldKeys{base: 0.5, offset: 0x2a5f3, scale: 0.5 / coldSpan}
	var ops []op
	add := func(class string, keys int, req any) {
		ops = append(ops, op{class: class, keys: keys, req: req,
			name: fmt.Sprintf("pinned/%s/%d", class, len(ops))})
	}
	f := func() float64 { return k.f(len(ops), 0) }
	for round := 0; round < 2; round++ {
		pinnedRound(add, f)
	}
	// Batches of six 40nm items, as the timed mix sends them, covering
	// every workload, design and backend.
	var items []server.OptimizeRequest
	for _, w := range workloads {
		for _, d := range designs {
			for _, b := range backends {
				items = append(items, optimizeReq(w, k.f(len(ops), len(items)), "40nm", d, b))
				if len(items) == 6 {
					add(clsBatch, len(items), batchOf(items))
					items = nil
				}
			}
		}
	}
	return ops
}

// pinnedRound adds one request of every combination of pinnedSet's
// buffered and stream classes, each at a new parallel fraction f().
func pinnedRound(add func(class string, keys int, req any), f func() float64) {
	for _, w := range workloads {
		for _, n := range nodes {
			for _, d := range designs {
				for _, b := range backends {
					add(clsOptimize, 1, optimizeReq(w, f(), n, d, b))
				}
			}
		}
		for _, d := range designs {
			add(clsSweep, 1, sweepReq(w, f(), d))
			add(clsSweepStream, 0, sweepReq(w, f(), d))
			add(clsSensitivity, 1, sensitivityReq(w, f(), d))
		}
		for _, b := range backends {
			for s := 1; s <= 5; s++ {
				add(clsCompare, 1, compareReq(w, f(), s, s+1, b))
			}
			for s := 0; s < 7; s++ {
				add(clsFrontier, 0, server.FrontierRequest{Workload: w, F: f(), Scenario: s, Model: b})
			}
		}
	}
}

// issue sends one op through internal/client and reports whether it
// succeeded: a non-2xx reply, a transport error, a failed batch item or
// an NDJSON error trailer all count as failures.
func issue(ctx context.Context, c *client.Client, o op) error {
	switch o.class {
	case clsOptimize:
		_, err := c.Optimize(ctx, o.req.(server.OptimizeRequest))
		return err
	case clsSweep:
		_, err := c.Sweep(ctx, o.req.(server.SweepRequest))
		return err
	case clsSweepStream:
		_, err := c.SweepStream(ctx, o.req.(server.SweepRequest), func(server.SweepPointJSON) error { return nil })
		return err
	case clsCompare:
		_, err := c.Compare(ctx, o.req.(server.CompareRequest))
		return err
	case clsFrontier:
		_, err := c.FrontierStream(ctx, o.req.(server.FrontierRequest), func(server.FrontierRowJSON) error { return nil })
		return err
	case clsSensitivity:
		_, err := c.Sensitivity(ctx, o.req.(server.SensitivityRequest))
		return err
	case clsBatch:
		res, err := c.Batch(ctx, o.req.(server.BatchRequest))
		if err != nil {
			return err
		}
		if res.Failed != 0 {
			return fmt.Errorf("batch: %d of %d items failed", res.Failed, len(res.Items))
		}
		return nil
	}
	return fmt.Errorf("unknown class %q", o.class)
}
