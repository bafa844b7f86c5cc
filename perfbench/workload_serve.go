package main

import (
	"context"
	"fmt"
	"time"

	"github.com/calcm/heterosim/internal/client"
)

// servePass is one serving workload against fresh daemons: several
// set-ups (exec, /healthz, warm-up), then a timed closed loop on the
// last daemon.
type servePass struct {
	hot     bool
	seed    int64
	dur     time.Duration
	setups  int
	clients int
	traced  bool
	// record, when non-nil, receives warm-up digests instead of checking
	// them against the stored ones (-regen).
	record map[string]uint64

	setupS  []float64
	results []result
	ops     []op // ops[i] is results[i]'s op
	wall    time.Duration
	win     []windowStat
	cpuMs   float64
	rssMB   float64
	prom    [2]map[string]float64
	mem     [2]memStats
	access  map[string]float64
	queue   []float64       // sampled admission queue depth (traced cold)
	profile []profileSample // daemon CPU profile of the timed phase (traced cold)
	keys    int             // cache lookups the successful ops made
	ok      int
	failed  int
	// problems lists every failed correctness or exact-count check.
	problems []string
}

func (p *servePass) name() string {
	if p.hot {
		return "serve-hot"
	}
	return "serve-cold"
}

func (p *servePass) fail(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(p.name()+": "+format, args...))
}

// warm issues the warm-up set: every probe, then (serve-hot) the whole
// hot catalog in order. Every digest is checked against the stored one.
func (p *servePass) warm(c *client.Client, stored map[string]uint64) error {
	set := probes()
	if p.hot {
		set = append(set, hotCatalog()...)
	}
	return p.sendStored(c, set, "warm-up", stored)
}

// sendStored sends named ops one at a time and compares each body's
// digest with the stored one, or records it (-regen).
func (p *servePass) sendStored(c *client.Client, set []op, phase string, stored map[string]uint64) error {
	bad := 0
	for _, o := range set {
		d, _, err := send(c, o, phase+"-"+o.name)
		if err != nil {
			return fmt.Errorf("%s %s: %w", phase, o.name, err)
		}
		switch {
		case p.record != nil:
			p.record[o.name] = d
		case stored[o.name] != d:
			if bad++; bad <= 3 {
				p.fail("%s %s: response digest %016x, stored %016x", phase, o.name, d, stored[o.name])
			}
		}
	}
	if bad > 3 {
		p.fail("%s: %d of %d response digests differ from the stored ones", phase, bad, len(set))
	}
	return nil
}

func (p *servePass) run(env *benchEnv) error {
	stored, err := storedDigests()
	if err != nil {
		return err
	}
	var d *daemon
	var c *client.Client
	for s := 0; s < p.setups; s++ {
		t0 := time.Now()
		d, err = startDaemon(env.bin, env.work, s, p.traced)
		if err != nil {
			return err
		}
		c, err = newClient(d.base, p.clients, p.seed)
		if err == nil {
			err = p.warm(c, stored)
		}
		if err != nil {
			d.stop()
			return err
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		if s < p.setups-1 {
			if err := d.stop(); err != nil {
				return err
			}
			d.removeLog()
		}
	}
	defer d.removeLog()
	err = p.timed(d, c)
	if err == nil && !p.hot {
		// The daemon that served the timed phase answers serve-cold's
		// stored key universe.
		err = p.sendStored(c, pinnedSet(), "pinned", stored)
	}
	if serr := d.stop(); err == nil && serr != nil {
		err = serr
	}
	if err != nil {
		return err
	}
	if p.traced {
		if p.access, err = accessDurations(d.logPath); err != nil {
			return err
		}
	}
	p.check(stored)
	return nil
}

// timed runs the closed loop and snapshots the daemon around it.
func (p *servePass) timed(d *daemon, c *client.Client) error {
	pid := d.cmd.Process.Pid
	var err error
	if p.prom[0], err = d.promScrape(); err != nil {
		return err
	}
	if p.traced {
		if p.mem[0], err = d.memStats(); err != nil {
			return err
		}
	}
	cat := hotCatalog()
	byClass := classIndex(cat)
	keys := timedColdKeys(p.seed)
	next := func(i int) op {
		if p.hot {
			return hotOp(cat, byClass, p.seed, i)
		}
		return coldOp(keys, p.seed, i)
	}
	var samples []tickSample
	sample := func() {
		if t, err := takeSample(pid); err == nil {
			samples = append(samples, t)
		}
	}
	first, err := takeSample(pid)
	if err != nil {
		return err
	}
	samples = append(samples, first)
	stopQueue := make(chan struct{})
	queueDone := make(chan struct{})
	go func() {
		defer close(queueDone)
		if !p.traced || p.hot {
			return
		}
		for {
			select {
			case <-stopQueue:
				return
			case <-time.After(100 * time.Millisecond):
			}
			if m, err := c.Metrics(context.Background()); err == nil {
				p.queue = append(p.queue, float64(m.Admission.Queued))
			}
		}
	}()
	var profile []byte
	profErr := make(chan error, 1)
	go func() {
		if !p.traced || p.hot {
			profErr <- nil
			return
		}
		var err error
		profile, err = d.cpuProfile(int(p.dur / time.Second))
		profErr <- err
	}()
	prefix := "t-"
	if !p.hot {
		prefix = "c-"
	}
	p.results, p.wall = closedLoop(c, p.clients, p.dur, window, prefix, next, sample)
	end, err := takeSample(pid)
	close(stopQueue)
	<-queueDone
	if perr := <-profErr; err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	if profile != nil {
		if p.profile, err = decodeProfile(profile); err != nil {
			return err
		}
	}
	if p.rssMB, err = vmHWM(pid); err != nil {
		return err
	}
	if p.prom[1], err = d.promScrape(); err != nil {
		return err
	}
	if p.traced {
		if p.mem[1], err = d.memStats(); err != nil {
			return err
		}
	}
	p.ops = make([]op, len(p.results))
	for i, r := range p.results {
		p.ops[i] = next(r.idx)
		if r.err != nil {
			p.failed++
			continue
		}
		p.ok++
		p.keys += p.ops[i].keys
	}
	if p.ok == 0 {
		return fmt.Errorf("%s: no op succeeded (first error: %v)", p.name(), p.results[0].err)
	}
	p.cpuMs = float64(end.proc-samples[0].proc) * 1000 / ticksPerSecond
	p.windows(samples)
	return nil
}

// window is the sampling period of the timed phase.
const window = time.Second

// tickSample is the daemon's CPU and the machine's idle and stolen CPU
// at one instant.
type tickSample struct{ proc, idle, steal, total int64 }

func takeSample(pid int) (tickSample, error) {
	proc, err := procCPUTicks(pid)
	if err != nil {
		return tickSample{}, err
	}
	idle, steal, total, err := systemTicks()
	return tickSample{proc, idle, steal, total}, err
}

// windows splits the timed phase into windows by completion time: ops
// per second, daemon CPU per op, client p99 and the share of the
// machine's CPU the hypervisor stole, per window.
func (p *servePass) windows(samples []tickSample) {
	n := min(len(samples)-1, int(p.dur/window))
	lat := make([][]float64, n)
	for _, r := range p.results {
		w := int((r.start + r.latency) / window)
		if r.err == nil && w < n {
			lat[w] = append(lat[w], ms(r.latency))
		}
	}
	for w := 0; w < n; w++ {
		if len(lat[w]) == 0 {
			continue
		}
		a, b := samples[w], samples[w+1]
		ops := float64(len(lat[w]))
		p.win = append(p.win, windowStat{
			opsPerS: ops / window.Seconds(),
			cpuMs:   float64(b.proc-a.proc) * 1000 / ticksPerSecond / ops,
			p99:     quantile(lat[w], 0.99),
			idle:    float64(b.idle-a.idle) / float64(max(1, b.total-a.total)),
			steal:   float64(b.steal-a.steal) / float64(max(1, b.total-a.total)),
		})
	}
}

type windowStat struct{ opsPerS, cpuMs, p99, idle, steal float64 }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// delta is a counter's change over the timed phase.
func (p *servePass) delta(series string) float64 { return p.prom[1][series] - p.prom[0][series] }

// check runs the correctness gate and the exact-count self-check.
func (p *servePass) check(stored map[string]uint64) {
	if p.record != nil {
		return
	}
	// Correctness: every body, by digest, order-independently.
	got := make([]uint64, 0, p.ok)
	var want []uint64
	var okOps []op
	for i, r := range p.results {
		if r.err == nil {
			got = append(got, r.digest)
			okOps = append(okOps, p.ops[i])
		}
	}
	if p.hot {
		for _, o := range okOps {
			want = append(want, stored[o.name])
		}
	} else {
		orc, err := newOracle()
		if err == nil {
			want, err = orc.digests(okOps, 2)
		}
		if err != nil {
			p.fail("oracle: %v", err)
			return
		}
	}
	if multisetHash(got) != multisetHash(want) {
		bad := 0
		for i := range got {
			if got[i] != want[i] {
				bad++
			}
		}
		p.fail("response hash %016x, expected %016x (%d of %d bodies differ)",
			multisetHash(got), multisetHash(want), bad, len(got))
	}
	// Exact counts.
	for _, r := range p.results {
		if r.attempts != 1 {
			p.fail("op %d took %d attempts, want 1", r.idx, r.attempts)
			break
		}
	}
	if v := p.delta(`heterosimd_responses_total{class="serverError"}`); v != 0 {
		p.fail("%v new serverError responses", v)
	}
	hits := p.delta("heterosimd_cache_hits_total")
	misses := p.delta("heterosimd_cache_misses_total")
	if p.failed > 0 {
		return // failed ops make the lookup counts ambiguous; `failed` reports them
	}
	if p.hot {
		if misses != 0 || hits != float64(p.keys) {
			p.fail("timed phase: %v misses and %v hits, want 0 and %d", misses, hits, p.keys)
		}
	} else if misses != float64(p.keys) || hits != 0 {
		p.fail("timed phase: %v misses and %v hits, want %d distinct keys and 0", misses, hits, p.keys)
	}
}
