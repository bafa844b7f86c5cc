package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/calcm/heterosim/internal/baseline"
	"github.com/calcm/heterosim/internal/engine"
	"github.com/calcm/heterosim/internal/measure"
	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/paper"
	"github.com/calcm/heterosim/internal/project"
	"github.com/calcm/heterosim/internal/scenario"
	"github.com/calcm/heterosim/internal/servecache"
	"github.com/calcm/heterosim/internal/server"
	"github.com/calcm/heterosim/internal/sim"
)

// The traced run is one suite, whatever the workload: a traced and an
// untraced pass of each serving workload (the difference is the
// tracing overhead), the layer timings of every package the workloads
// reach, and the ladder. Every per-layer metric is tagged with the
// end-to-end metric it should move and the workload it moves it on.

// tracePass is the length of each serving pass in the traced suite.
const tracePass = 5 * time.Second

// layerMetric is one per-layer figure with its tag.
type layerMetric struct {
	name, unit string
	value      float64
	moves, on  string // end-to-end metric and workload it should move
}

type layerSet struct{ ms []layerMetric }

func (s *layerSet) add(name, unit string, v float64, moves, on string) {
	s.ms = append(s.ms, layerMetric{name, unit, v, moves, on})
}

func runTraced(env *benchEnv, workload string, seed int64) (resultLine, map[string]any, error) {
	switch workload {
	case "serve-hot", "serve-cold", "reproduce":
	default:
		return resultLine{}, nil, fmt.Errorf("unknown workload %q", workload)
	}
	var set layerSet
	var problems []string
	meta := map[string]any{}
	attempted, failed := 0, 0
	for _, hot := range []bool{true, false} {
		plain := &servePass{hot: hot, seed: seed, dur: tracePass, setups: 1, clients: runtime.NumCPU()}
		traced := &servePass{hot: hot, seed: seed, dur: tracePass, setups: 1, clients: runtime.NumCPU(), traced: true}
		for _, p := range []*servePass{plain, traced} {
			if err := p.run(env); err != nil {
				return resultLine{}, nil, err
			}
			problems = append(problems, p.problems...)
			attempted += len(p.results)
			failed += p.failed
		}
		servingLayers(&set, traced, plain)
	}
	if err := inProcessLayers(&set); err != nil {
		return resultLine{}, nil, err
	}
	if err := reproductionLayers(&set, env); err != nil {
		return resultLine{}, nil, err
	}
	lad, err := runLadder(env, seed, &problems)
	if err != nil {
		return resultLine{}, nil, err
	}
	ladderMetrics(&set, lad)

	var b strings.Builder
	lad.print(&b)
	fmt.Fprintf(&b, "\nper-layer metrics (value unit  <- should move: metric on workload)\n")
	out := resultLine{Correct: report(problems), Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range set.ms {
		fmt.Fprintf(&b, "%-40s %14.4f %-6s <- %s on %s\n", m.name, m.value, m.unit, m.moves, m.on)
		out.Metrics[m.name] = metric{m.value, m.unit}
	}
	fmt.Print(b.String())
	meta["note"] = "traced suite: every per-layer metric is measured on the workload it is tagged with, whatever --workload names"
	return out, meta, nil
}

// stageUs is a stage histogram's mean over the timed phase, in µs.
func stageUs(p *servePass, fam, label string) float64 {
	sum := p.delta(fmt.Sprintf(`heterosimd_%s_sum{%s}`, fam, label))
	n := p.delta(fmt.Sprintf(`heterosimd_%s_count{%s}`, fam, label))
	if n == 0 {
		return 0
	}
	return sum / n * 1e6
}

// servingLayers reads the daemon's counters, the MemStats dump and the
// access log of one traced serving pass.
func servingLayers(s *layerSet, p, plain *servePass) {
	const hotW, coldW = "serve-hot", "serve-cold"
	suffix := ".cold"
	if p.hot {
		suffix = ".hot"
	}
	st := func(stage string) float64 { return stageUs(p, "stage_duration_seconds", `stage="`+stage+`"`) }
	rq := func(ep string) float64 { return stageUs(p, "request_duration_seconds", `endpoint="`+ep+`"`) }
	ops := float64(p.ok)
	if p.hot {
		s.add("server.decode_us", "us", st("decode"), "cpu_ms_per_op, latency_p50_ms", hotW)
		s.add("server.encode_us", "us", st("encode"), "cpu_ms_per_op, latency_p50_ms", hotW)
		s.add("server.cache_us", "us", st("cache"), "latency_p50_ms", hotW)
		s.add("server.request_us.optimize", "us", rq("optimize"), "latency_p50_ms", hotW)
		var over []float64
		for _, r := range p.results {
			if d, ok := p.access[r.id]; ok && r.err == nil {
				over = append(over, ms(r.latency)*1000-d*1000)
			}
		}
		s.add("client.overhead_us", "us", median(over), "latency_p50_ms", hotW)
		s.add("runtime.mallocs_per_op", "count", float64(p.mem[1].mallocs-p.mem[0].mallocs)/ops, "cpu_ms_per_op", hotW)
		s.add("runtime.alloc_bytes_per_op", "B", float64(p.mem[1].totalAlloc-p.mem[0].totalAlloc)/ops, "cpu_ms_per_op", hotW)
	} else {
		s.add("server.gate_us", "us", st("gate"), "latency_p99_ms, error_rate", coldW)
		s.add("server.admission_queued", "count", mean(p.queue), "latency_p99_ms, error_rate", coldW)
		s.add("server.admission_rejected", "count",
			p.delta("heterosimd_admission_rejected_full_total")+p.delta("heterosimd_admission_rejected_timeout_total")+
				p.delta("heterosimd_admission_rejected_deadline_total"), "latency_p99_ms, error_rate", coldW)
		s.add("server.evaluate_us", "us", st("evaluate"), "throughput_ops_s", coldW)
		s.add("server.sweep_us", "us", st("sweep"), "throughput_ops_s", coldW)
		s.add("server.evaluate_cpu_share", "ratio", cpuShare(p.profile, inEvaluate), "throughput_ops_s", coldW)
		for _, ep := range []string{"sweep", "compare", "sensitivity", "frontier", "batch"} {
			s.add("server.request_us."+ep, "us", rq(ep), "latency_p50_ms", coldW)
		}
		cycles, pause := pauseBetween(p.mem[0], p.mem[1])
		s.add("runtime.gc_cycles_per_kop", "count", float64(cycles)*1000/ops, "latency_p99_ms", coldW)
		perCycle := 0.0
		if cycles > 0 {
			perCycle = ms(pause) / float64(cycles)
		}
		s.add("runtime.gc_pause_ms", "ms", perCycle, "latency_p99_ms", coldW)
	}
	on := hotW
	if !p.hot {
		on = coldW
	}
	hits := p.delta("heterosimd_cache_hits_total")
	misses := p.delta("heterosimd_cache_misses_total")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	s.add("servecache.hit_ratio"+suffix, "ratio", ratio, "latency_p50_ms", on)
	s.add("servecache.misses"+suffix, "count", misses, "throughput_ops_s", on)
	s.add("servecache.evictions"+suffix, "count", p.delta("heterosimd_cache_evictions_total"), "throughput_ops_s", on)
	s.add("servecache.coalesced"+suffix, "count", p.delta("heterosimd_cache_coalesced_total"), "throughput_ops_s", on)
	attempts := 0
	for _, r := range p.results {
		attempts += r.attempts
	}
	s.add("client.attempts_per_op"+suffix, "ratio", float64(attempts)/float64(len(p.results)), "error_rate", on)
	tput := func(q *servePass) float64 { return float64(q.ok) / q.wall.Seconds() }
	s.add("trace.overhead_pct"+suffix, "%", 100*(tput(plain)-tput(p))/tput(plain), "(tracing cost, not a layer)", on)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

const (
	layerRounds = 11
	layerRound  = 5 * time.Millisecond
)

// inProcessLayers times the engine, model, cache and domain packages on
// the canonical inputs of the requests that reach them.
func inProcessLayers(s *layerSet) error {
	const hotW, coldW = "serve-hot", "serve-cold"
	hot := hotCatalog()[0].req.(server.OptimizeRequest)
	body := mustJSON(hot)
	var req server.OptimizeRequest
	timed := func(fn func(int) error) (timing, error) { return timeCalls(layerRounds, layerRound, fn) }

	t, err := timed(func(int) error { return engine.DecodeStrict(body, &req) })
	if err != nil {
		return err
	}
	s.add("engine.decode_us", "us", t.median(), "cpu_ms_per_op", hotW)
	t, err = timed(func(int) error { _, err := engine.CanonicalKey("/v1/optimize", req); return err })
	if err != nil {
		return err
	}
	s.add("engine.key_us", "us", t.median(), "cpu_ms_per_op", hotW)
	s.add("engine.key_allocs", "count", t.allocs, "cpu_ms_per_op", hotW)

	t, err = timed(func(int) error { _, _, err := model.New("", 0, 0, nil); return err })
	if err != nil {
		return err
	}
	s.add("model.build_us", "us", t.median(), "cpu_ms_per_op", hotW)
	for _, b := range backends {
		t, err = timed(func(int) error {
			_, err := point(b, designs[4], "FFT-1024", 0.99, "22nm")
			return err
		})
		if err != nil {
			return err
		}
		s.add("model.optimize_us."+b, "us", t.median(), "cpu_ms_per_op", coldW)
		s.add("model.optimize_allocs."+b, "count", t.allocs, "cpu_ms_per_op", coldW)
	}

	c, err := servecache.New(4096)
	if err != nil {
		return err
	}
	resident := []byte(`{"resident":true}`)
	if _, _, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) { return resident, nil }); err != nil {
		return err
	}
	t, err = timed(func(int) error {
		_, o, err := c.Do(context.Background(), "k", func(context.Context) ([]byte, error) { return nil, fmt.Errorf("evaluated") })
		if err == nil && o != servecache.Hit {
			err = fmt.Errorf("resident key answered %v", o)
		}
		return err
	})
	if err != nil {
		return err
	}
	s.add("servecache.hit_us", "us", t.median(), "latency_p50_ms", hotW)

	keys := ladderKeys(7)
	domain := []struct {
		name string
		fn   func(f float64) error
	}{
		{"sweep.grid_us", func(f float64) error { _, err := sweepWork(sweepReq("MMM", f, designs[1])); return err }},
		{"scenario.compare_us", func(f float64) error { _, err := compareWork(compareReq("MMM", f, 2, 3, "")); return err }},
		{"project.trajectory_us", func(f float64) error { return projectWork("FFT-1024", f) }},
		{"sensitivity.montecarlo_us", func(f float64) error {
			_, err := monteCarloWork(sensitivityReq("FFT-1024", f, designs[4]))
			return err
		}},
	}
	moves := map[string]string{"sensitivity.montecarlo_us": "latency_p99_ms"}
	for _, d := range domain {
		t, err = timed(func(i int) error { return d.fn(keys.f(i, 0)) })
		if err != nil {
			return err
		}
		m := moves[d.name]
		if m == "" {
			m = "throughput_ops_s"
		}
		s.add(d.name, "us", t.median(), m, coldW)
	}
	return nil
}

// reproductionLayers times the packages `heterosim all` spends its time
// in, and the CLI's start-up.
func reproductionLayers(s *layerSet, env *benchEnv) error {
	const on, moves = "reproduce", "throughput_ops_s"
	reps := func(n int, fn func() error) (float64, error) {
		var xs []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			xs = append(xs, ms(time.Since(t0)))
		}
		return median(xs), nil
	}
	sm, err := sim.New()
	if err != nil {
		return err
	}
	v, err := reps(5, func() error {
		_, err := sm.SweepAllFFT(baseline.FFTSweepLo, baseline.FFTSweepHi, true)
		return err
	})
	if err != nil {
		return err
	}
	s.add("sim.fft_sweep_ms", "ms", v, moves, on)
	rig, err := measure.IdealRig()
	if err != nil {
		return err
	}
	var db measure.Database
	v, err = reps(5, func() error { db, err = rig.BuildDatabase(); return err })
	if err != nil {
		return err
	}
	s.add("measure.database_ms", "ms", v, moves, on)
	v, err = reps(25, func() error { _, err := db.DeriveTable5(); return err })
	if err != nil {
		return err
	}
	s.add("ucore.derive_ms", "ms", v, moves, on)
	v, err = reps(5, projectionFigures)
	if err != nil {
		return err
	}
	s.add("project.figures_ms", "ms", v, moves, on)
	v, err = reps(11, func() error { _, err := runCLI(env.bin, "version"); return err })
	if err != nil {
		return err
	}
	s.add("cli.start_ms", "ms", v, moves, on)
	return nil
}

// projectionFigures computes Figures 6 to 10's projections, as
// `heterosim all` does.
func projectionFigures() error {
	figs := []struct {
		w     paper.WorkloadID
		fs    []float64
		scen  scenario.ID
		power bool
	}{
		{paper.FFT1024, paper.ProjectionFractions, scenario.Baseline, false},
		{paper.MMM, paper.ProjectionFractions, scenario.Baseline, false},
		{paper.BS, paper.BSProjectionFractions, scenario.Baseline, false},
		{paper.FFT1024, paper.ProjectionFractions, scenario.HighBandwidth, false},
		{paper.MMM, paper.EnergyProjectionFractions, scenario.Baseline, true},
	}
	for _, fg := range figs {
		sc, err := scenario.Get(fg.scen)
		if err != nil {
			return err
		}
		cfg := sc.Apply(project.DefaultConfig(fg.w))
		for _, f := range fg.fs {
			if fg.power {
				_, err = project.ProjectEnergy(cfg, f)
			} else {
				_, err = project.Project(cfg, f)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// runLadder starts a fresh daemon for the client rung, warms it like
// serve-hot does, and measures the ladder. Allocations per call must
// repeat between the ladder's two allocation passes on the in-process
// rungs of the hit classes.
func runLadder(env *benchEnv, seed int64, problems *[]string) (*ladder, error) {
	d, err := startDaemon(env.bin, env.work, 99, false)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	c, err := newClient(d.base, 1, seed)
	if err != nil {
		return nil, err
	}
	stored, err := storedDigests()
	if err != nil {
		return nil, err
	}
	w := &servePass{hot: true}
	if err := w.warm(c, stored); err != nil {
		return nil, err
	}
	*problems = append(*problems, w.problems...)
	l := &ladder{classes: ladderClasses(seed, hotCatalog())}
	if err := l.run(seed, d.base); err != nil {
		return nil, err
	}
	for _, cl := range l.classes {
		if !cl.hit {
			continue
		}
		for r, res := range l.res[cl.name][:4] {
			// Whole allocations per call must repeat; a fraction of one
			// is background work (a pool refilled after a GC) spread
			// over the pass.
			if a, b := res.t.allocs, res.allocs2; math.Abs(a-b) >= 0.5 {
				*problems = append(*problems, fmt.Sprintf("ladder %s/%s: %.2f allocs/op, then %.2f", cl.name, rungs[r], a, b))
			}
		}
	}
	return l, nil
}

// ladderMetrics exports the ladder: the median of every rung that
// applies, and allocations per call on the engine, cache and handler
// rungs.
func ladderMetrics(s *layerSet, l *ladder) {
	s.add("servecache.peer_hop_us", "us", l.peerHopUs, "(baseline: no workload runs the peer tier)", "none")
	var names []string
	for _, c := range l.classes {
		names = append(names, c.name)
	}
	sort.Strings(names)
	for _, n := range names {
		on := "serve-cold"
		for _, c := range l.classes {
			if c.name == n && c.hit {
				on = "serve-hot"
			}
		}
		for r, res := range l.res[n] {
			if res.na != "" {
				continue
			}
			s.add(fmt.Sprintf("ladder.%s.%s_us", n, rungs[r]), "us", res.t.median(), "latency_p50_ms", on)
			if r >= 1 && r <= 3 {
				s.add(fmt.Sprintf("ladder.%s.%s_allocs", n, rungs[r]), "count", res.t.allocs, "cpu_ms_per_op", on)
			}
		}
	}
}
