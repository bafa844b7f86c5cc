package loadgen

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against the named golden file, rewriting it
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/loadgen -run %s -update)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestCSVSchemaGolden pins the per-request CSV schema: the header line
// and the exact formatting of one fully-populated row. Downstream
// analysis (and the CI smoke's schema check) parse these columns;
// changing them must be a deliberate, golden-updating act.
func TestCSVSchemaGolden(t *testing.T) {
	var buf bytes.Buffer
	rec := NewCSVRecorder(&buf)
	rec.Record(Sample{
		Scenario: "golden", Seq: 7, OffsetUS: 123456,
		Endpoint: "optimize", Key: 42, DeadlineUS: 50000,
		Status: 200, Cache: "hit", Fault: "",
		Attempts: 2, LatencyUS: 1875, Err: "",
	})
	rec.Record(Sample{
		Scenario: "golden", Seq: 8, OffsetUS: 130000,
		Endpoint: "sensitivity", Key: 99, DeadlineUS: 0,
		Status: 503, Cache: "", Fault: "error",
		Attempts: 3, LatencyUS: 20104, Err: "retry",
	})
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "csv_schema.golden", buf.Bytes())
}

// keyTree flattens a JSON object into its set of key paths — the
// golden pins the shape, not the values.
func keyTree(v any, prefix string, out map[string]bool) {
	x, _ := v.(map[string]any)
	for k, child := range x {
		p := prefix + "." + k
		out[p] = true
		keyTree(child, p, out)
	}
}

// writeKeyTree appends the sorted key tree of every doc's JSON encoding
// to b under a header line.
func writeKeyTree(t *testing.T, b *strings.Builder, header string, docs ...any) {
	t.Helper()
	paths := map[string]bool{}
	for _, doc := range docs {
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		keyTree(v, "", paths)
	}
	sorted := make([]string, 0, len(paths))
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)
	fmt.Fprintln(b, header)
	for _, p := range sorted {
		fmt.Fprintln(b, p)
	}
}

// TestSummaryKeyTreeGolden pins the harness's public JSON shapes: the
// Summary that run -summary writes and check -summary strictly decodes,
// and the Scenario that scenarios -json emits and run -config parses.
// A field renamed or dropped here silently breaks whatever consumes
// those documents, so the shapes are held by a golden.
func TestSummaryKeyTreeGolden(t *testing.T) {
	// One synthetic summary exercising every optional field, so the
	// tree is complete without running a (nondeterministic) load run.
	sum := Summary{
		Scenario: "steady-mixed", Server: "baseline", Seed: 1,
		Requests: 10, OK: 6, Shed: 1, DeadlineMiss: 1, InjectedFaults: 2,
		DurationMS: 12.5, ThroughputRPS: 800,
		LatencyP50US: 900, LatencyP99US: 4000, LatencyMaxUS: 5000, LatencySamples: 6,
		ShedRate: 0.1, DeadlineMissRate: 0.1,
		Cache: CacheRatios{Hits: 3, Misses: 3, Coalesced: 1, StaleServed: 1, HitRatio: 0.5, CoalesceRatio: 0.14},
	}
	var scs []any
	for _, sc := range builtins() {
		scs = append(scs, sc)
	}
	var b strings.Builder
	writeKeyTree(t, &b, "# Summary key tree: run -summary, check -summary (shape only)", sum)
	writeKeyTree(t, &b, scenarioTreeHeader, scs...)
	checkGolden(t, "summary_keys.golden", []byte(b.String()))
}

const scenarioTreeHeader = "# Scenario key tree: each scenarios -json element, a run -config file (shape only)"

// goldenScenarioTree returns the Scenario section of summary_keys.golden.
func goldenScenarioTree(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "summary_keys.golden"))
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(string(raw), scenarioTreeHeader)
	if i < 0 {
		t.Fatalf("summary_keys.golden has no %q section", scenarioTreeHeader)
	}
	return string(raw[i:])
}

// builtinKeyTree is the Scenario key tree of the named builtins alone,
// in the golden's format.
func builtinKeyTree(t *testing.T, names ...string) string {
	t.Helper()
	var scs []any
	for _, name := range names {
		sc, ok := Builtin(name)
		if !ok {
			t.Fatalf("no builtin scenario %q", name)
		}
		scs = append(scs, sc)
	}
	var b strings.Builder
	writeKeyTree(t, &b, scenarioTreeHeader, scs...)
	return b.String()
}

// TestBench8KeyTreeGolden: the three scenarios the retired BENCH_8.json
// matrix ran (steady-mixed, burst-open, chaos-faults) between them set
// every Scenario field, so their key tree alone is the whole Scenario
// section of summary_keys.golden, whose lines were carried over from
// BENCH_8.json's key tree. scenarios -json thus shows every knob.
func TestBench8KeyTreeGolden(t *testing.T) {
	got := builtinKeyTree(t, "steady-mixed", "burst-open", "chaos-faults")
	if want := goldenScenarioTree(t); got != want {
		t.Errorf("scenario key tree drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestBench9KeyTreeGolden: the two fault-free scenarios the retired
// BENCH_9.json cluster matrix ran (steady-mixed, burst-open) leave the
// fault knobs out of their JSON. Their key tree is the golden's Scenario
// section without faults, retries and the deadline bounds, as in
// BENCH_9.json's key tree. The union pinned by TestSummaryKeyTreeGolden
// cannot see such a field lose its omitempty; this test can.
func TestBench9KeyTreeGolden(t *testing.T) {
	omitted := map[string]bool{
		".faults": true, ".retries": true,
		".deadline.dist": true, ".deadline.max": true, ".deadline.min": true,
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(goldenScenarioTree(t), "\n") {
		if !omitted[strings.TrimSuffix(line, "\n")] {
			want.WriteString(line)
		}
	}
	if got := builtinKeyTree(t, "steady-mixed", "burst-open"); got != want.String() {
		t.Errorf("scenario key tree drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want.String())
	}
}
