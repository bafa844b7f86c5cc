// Command perfbench is heterosim's benchmark. It measures the two ways
// the program is used: design-space explorers calling a live heterosimd
// (serve-hot, serve-cold) and paper readers regenerating every table and
// figure (reproduce). It prints one JSON result line whose metrics are
// the end-to-end figures, or with -trace 1 the per-layer figures and the
// layer ladder. See README.md for the metric definitions.
//
// Run it from the repository root through run.sh, which builds the
// program from source first:
//
//	bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// benchEnv locates the built binaries, a scratch directory for daemon
// logs, and the benchmark's own source directory (for -regen), all
// relative to the repository root run.sh runs from.
type benchEnv struct {
	bin, work, src string
}

var env = &benchEnv{bin: ".bench_build/bin", work: ".bench_build/work", src: "perfbench"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "serve-hot, serve-cold or reproduce")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced suite and reports per-layer metrics")
	regen := flag.Bool("regen", false, "rewrite the stored expected outputs from the built program")
	flag.Parse()
	// The load generator shares the machine with the daemon; collecting
	// its garbage less often makes it perturb the daemon less.
	debug.SetGCPercent(400)
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		fatal(err)
	}
	if *regen {
		fatal(regenerate(env))
		return
	}
	dur := time.Duration(*seconds) * time.Second
	var (
		out  resultLine
		meta map[string]any
		err  error
	)
	switch {
	case *trace == 1:
		out, meta, err = runTraced(env, *workload, *seed)
	case *workload == "serve-hot" || *workload == "serve-cold":
		out, meta, err = runServe(env, *workload == "serve-hot", *seed, dur)
	case *workload == "reproduce":
		out, meta, err = runReproduce(env, dur)
	default:
		err = fmt.Errorf("unknown workload %q (want serve-hot, serve-cold or reproduce)", *workload)
	}
	if err != nil {
		fatal(err)
	}
	meta = withRunMeta(meta, *workload, *seed, *seconds, *trace)
	printJSON(map[string]any{"meta": meta})
	printJSON(out)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// report turns failed checks into the result's correct flag, printing
// each one on stderr.
func report(problems []string) bool {
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return len(problems) == 0
}

func runServe(env *benchEnv, hot bool, seed int64, dur time.Duration) (resultLine, map[string]any, error) {
	p := &servePass{hot: hot, seed: seed, dur: dur, setups: 9, clients: runtime.NumCPU()}
	if err := p.run(env); err != nil {
		return resultLine{}, nil, err
	}
	var lat []float64
	for _, r := range p.results {
		if r.err == nil {
			lat = append(lat, ms(r.latency))
		}
	}
	var winOps, winCPU, winP99, idle, steal []float64
	minWin := len(lat)
	for _, w := range p.win {
		winOps = append(winOps, w.opsPerS)
		winCPU = append(winCPU, w.cpuMs)
		winP99 = append(winP99, w.p99)
		idle = append(idle, w.idle)
		steal = append(steal, w.steal)
		minWin = min(minWin, int(w.opsPerS*window.Seconds()))
	}
	out := resultLine{
		Correct:   report(p.problems),
		Attempted: len(p.results),
		Failed:    p.failed,
		Metrics: map[string]metric{
			"throughput_ops_s": {median(winOps), "1/s"},
			"latency_p50_ms":   {median(lat), "ms"},
			"latency_p99_ms":   {median(winP99), "ms"},
			"cpu_ms_per_op":    {median(winCPU), "ms"},
			"rss_peak_mb":      {p.rssMB, "MB"},
			"setup_s":          {median(p.setupS), "s"},
		},
	}
	meta := map[string]any{
		"ops":        len(p.results),
		"error_rate": float64(p.failed) / float64(len(p.results)),
		"clients":    p.clients,
		"loop":       "closed",
		"samples": map[string]any{
			"latency_p50_ms":   len(lat),
			"latency_p99_ms":   fmt.Sprintf("median of %d one-second windows, each of >= %d samples", len(winP99), minWin),
			"throughput_ops_s": fmt.Sprintf("median of %d one-second windows", len(winOps)),
			"cpu_ms_per_op":    fmt.Sprintf("median of %d one-second windows", len(winCPU)),
			"setup_s":          fmt.Sprintf("median of %d daemon set-ups", len(p.setupS)),
		},
		"idle_share":  mean(idle),
		"steal_share": mean(steal),
		"whole_run": map[string]float64{
			"throughput_ops_s": float64(p.ok) / p.wall.Seconds(),
			"cpu_ms_per_op":    p.cpuMs / float64(p.ok),
			"latency_p99_ms":   quantile(lat, 0.99),
		},
	}
	return out, meta, nil
}

func runReproduce(env *benchEnv, dur time.Duration) (resultLine, map[string]any, error) {
	p := &reproducePass{dur: dur, setups: 5}
	if err := p.run(env); err != nil {
		return resultLine{}, nil, err
	}
	var lat, cpu, rss []float64
	for _, inv := range p.timed {
		lat = append(lat, ms(inv.wall))
		cpu = append(cpu, inv.cpuMs)
		rss = append(rss, inv.rssMB)
	}
	out := resultLine{
		Correct:   report(p.problems),
		Attempted: len(p.timed),
		Metrics: map[string]metric{
			"throughput_ops_s": {float64(len(p.timed)) / p.wall.Seconds(), "1/s"},
			"latency_p50_ms":   {median(lat), "ms"},
			"latency_p99_ms":   {quantile(lat, 0.99), "ms"},
			"cpu_ms_per_op":    {median(cpu), "ms"},
			"rss_peak_mb":      {median(rss), "MB"},
			"setup_s":          {median(p.setupS), "s"},
		},
	}
	meta := map[string]any{
		"ops":        len(p.timed),
		"error_rate": 0.0,
		"clients":    1,
		"loop":       "closed, one `heterosim all` at a time",
		"samples": map[string]any{
			"latency_p50_ms": len(lat),
			"latency_p99_ms": fmt.Sprintf("%d invocations: too few for a p99, so this is close to their maximum", len(lat)),
			"cpu_ms_per_op":  fmt.Sprintf("median of %d invocations", len(cpu)),
			"setup_s":        fmt.Sprintf("median of %d untimed first invocations", len(p.setupS)),
		},
		"idle_share":  p.idle,
		"steal_share": p.steal,
	}
	return out, meta, nil
}

// withRunMeta adds what every result records about how it was made.
func withRunMeta(meta map[string]any, workload string, seed int64, seconds, trace int) map[string]any {
	if meta == nil {
		meta = map[string]any{}
	}
	meta["workload"] = workload
	meta["seed"] = seed
	meta["seconds"] = seconds
	meta["trace"] = trace
	meta["rev"] = sourceRev()
	meta["go"] = runtime.Version()
	meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	meta["nproc"] = runtime.NumCPU()
	meta["cpu"] = cpuModel()
	return meta
}

// sourceRev is the git revision when the working directory is a
// repository's root, else the content stamp run.sh wrote for the tree
// it built.
func sourceRev() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	b, err := os.ReadFile(filepath.Join(env.bin, "stamp"))
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + strings.TrimSpace(string(b))
}

func cpuModel() string {
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range bytes.Split(b, []byte("\n")) {
		if k, v, ok := strings.Cut(string(line), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// regenerate rewrites the stored expected outputs: the digests of the
// warm-up probes, the hot catalog and serve-cold's pinned set (taken
// twice, from fresh daemons, and required to agree) and the
// `heterosim all` output.
func regenerate(env *benchEnv) error {
	var runs [2]map[string]uint64
	for i := range runs {
		runs[i] = map[string]uint64{}
		for _, hot := range []bool{true, false} {
			p := &servePass{hot: hot, seed: 1, dur: time.Second, setups: 1, clients: 1, record: runs[i]}
			if err := p.run(env); err != nil {
				return err
			}
		}
	}
	if len(runs[0]) != len(runs[1]) {
		return fmt.Errorf("regen: the two runs recorded %d and %d digests", len(runs[0]), len(runs[1]))
	}
	for k, v := range runs[0] {
		if runs[1][k] != v {
			return fmt.Errorf("regen: %s differs between two daemons", k)
		}
	}
	if err := writeDigests(env.src, runs[0]); err != nil {
		return err
	}
	return (&reproducePass{setups: 1, regen: true}).run(env)
}
