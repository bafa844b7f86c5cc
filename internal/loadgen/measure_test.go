package loadgen

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMeasureBench8 regenerates BENCH_8.json at the repo root: the
// shipped measurement scenarios (steady-mixed, burst-open, chaos-faults)
// against the baseline and constrained server configurations, each cell
// a fresh in-process daemon driven through internal/client on the wall
// clock. Gated behind HETEROSIM_MEASURE=1 because it is a measurement,
// not a regression check:
//
//	HETEROSIM_MEASURE=1 go test -run MeasureBench8 -v ./internal/loadgen/
func TestMeasureBench8(t *testing.T) {
	if os.Getenv("HETEROSIM_MEASURE") == "" {
		t.Skip("set HETEROSIM_MEASURE=1 to regenerate BENCH_8.json")
	}
	m := DefaultMatrix()
	sums, err := RunMatrix(context.Background(), m, MatrixOptions{Progress: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	// Measurement cells must still be self-consistent: every request
	// accounted for, traffic moved, no transport-level failures. Shed
	// and deadline misses are the point of the overload cells, not a
	// failure.
	for _, s := range sums {
		if err := s.Check(); err != nil {
			t.Errorf("cell (%s, %s): %v", s.Scenario, s.Server, err)
		}
	}
	doc := NewBenchDoc(m, sums)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "BENCH_8.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d cells)", path, len(sums))
}

// TestMeasureBench9 regenerates BENCH_9.json at the repo root: the
// non-fault measurement scenarios at one and three nodes, each cell a
// fresh peer-aware cluster driven through the pick-first/failover
// client on the wall clock, with cluster-wide cache ratios. Gated
// behind HETEROSIM_MEASURE=1 because it is a measurement, not a
// regression check:
//
//	HETEROSIM_MEASURE=1 go test -run MeasureBench9 -v ./internal/loadgen/
func TestMeasureBench9(t *testing.T) {
	if os.Getenv("HETEROSIM_MEASURE") == "" {
		t.Skip("set HETEROSIM_MEASURE=1 to regenerate BENCH_9.json")
	}
	m := DefaultClusterMatrix()
	sums, err := RunClusterMatrix(context.Background(), m, MatrixOptions{Progress: os.Stderr})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sums {
		if err := s.Check(); err != nil {
			t.Errorf("cell (%s, %s): %v", s.Scenario, s.Server, err)
		}
	}
	doc := NewClusterBenchDoc(m, sums)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "BENCH_9.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d cells)", path, len(sums))
}
