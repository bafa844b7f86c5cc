package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestFrontierStreamGolden pins the complete frontier NDJSON stream —
// header schema, node-major row schema and order, trailer with the
// crossover table — the same way sweep_stream.golden pins the sweep.
// Non-regenerable: these bytes are the wire contract.
func TestFrontierStreamGolden(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodPost, "/v1/frontier/stream", `{"workload":"MMM","f":0.9,"scenario":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	if cc := rec.Header().Get("X-Heterosim-Cache"); cc != "stream" {
		t.Errorf("X-Heterosim-Cache = %q, want stream", cc)
	}
	want := mustGolden(t, "frontier_stream.golden")
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("streamed frontier drifted from the pinned NDJSON contract:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// rawComparePair splits one buffered compare pair into raw parts so
// its rows can be compared byte-for-byte with the stream.
type rawComparePair struct {
	Scenario int               `json:"scenario"`
	Name     string            `json:"name"`
	Rows     []json.RawMessage `json:"rows"`
}

// TestFrontierMatchesCompareRows is the streamed == buffered property
// for the trajectory surfaces, across every model backend: each
// /v1/frontier/stream row must be byte-identical to the corresponding
// rows element of /v1/compare's pair for the same (scenario, model) —
// the two endpoints answer the same question through one encoder.
func TestFrontierMatchesCompareRows(t *testing.T) {
	for _, backend := range []string{"", "multiamdahl", "multiamdahl-thermal", "sqrtm"} {
		name := backend
		if name == "" {
			name = "default"
		}
		t.Run(name, func(t *testing.T) {
			model := ""
			if backend != "" {
				model = `,"model":"` + backend + `"`
			}
			s := newTestServer(t, Config{})
			buf := do(t, s, http.MethodPost, "/v1/compare",
				`{"workload":"FFT-1024","f":0.99,"pairs":[{"scenario":2`+model+`}]}`)
			if buf.Code != http.StatusOK {
				t.Fatalf("compare status = %d (body %s)", buf.Code, buf.Body)
			}
			var resp struct {
				Pairs []rawComparePair `json:"pairs"`
			}
			if err := json.Unmarshal(buf.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Pairs) != 1 {
				t.Fatalf("got %d pairs, want 1", len(resp.Pairs))
			}
			want := resp.Pairs[0].Rows

			st := do(t, s, http.MethodPost, "/v1/frontier/stream",
				`{"workload":"FFT-1024","f":0.99,"scenario":2`+model+`}`)
			if st.Code != http.StatusOK {
				t.Fatalf("stream status = %d (body %s)", st.Code, st.Body)
			}
			lines := strings.Split(strings.TrimSuffix(st.Body.String(), "\n"), "\n")
			if len(lines) != len(want)+2 {
				t.Fatalf("stream has %d lines, want %d rows + header + trailer", len(lines), len(want))
			}
			for i, w := range want {
				if got := lines[i+1]; got != string(w) {
					t.Errorf("row %d differs:\nstream:  %s\ncompare: %s", i, got, w)
				}
			}
		})
	}
}

// TestCompareValidation holds /v1/compare to the 400 contract for
// request bugs: empty and oversized pair lists, out-of-range scenarios,
// duplicate pairs (including duplicates only visible after the
// top-level model default is pushed down).
func TestCompareValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	pairs := make([]string, maxComparePairs+1)
	for i := range pairs {
		pairs[i] = `{"scenario":1}`
	}
	cases := []struct {
		name, body string
	}{
		{"no pairs", `{"workload":"MMM","f":0.9,"pairs":[]}`},
		{"too many pairs", `{"workload":"MMM","f":0.9,"pairs":[` + strings.Join(pairs, ",") + `]}`},
		{"scenario out of range", `{"workload":"MMM","f":0.9,"pairs":[{"scenario":7}]}`},
		{"negative scenario", `{"workload":"MMM","f":0.9,"pairs":[{"scenario":-1}]}`},
		{"duplicate pair", `{"workload":"MMM","f":0.9,"pairs":[{"scenario":3},{"scenario":3}]}`},
		{"duplicate via pushdown", `{"workload":"MMM","f":0.9,"model":"sqrtm","pairs":[{"scenario":3},{"scenario":3,"model":"sqrtm"}]}`},
		{"unknown model", `{"workload":"MMM","f":0.9,"pairs":[{"scenario":1,"model":"nope"}]}`},
		{"bad f", `{"workload":"MMM","f":2,"pairs":[{"scenario":1}]}`},
		{"bad workload", `{"workload":"nope","f":0.9,"pairs":[{"scenario":1}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, s, http.MethodPost, "/v1/compare", tc.body)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("status = %d, want 400 (body %s)", rec.Code, rec.Body)
			}
		})
	}
}

// TestCompareModelHeader: a uniform-model compare reports the backend
// in X-Heterosim-Model; a mixed-model one must not claim a single
// backend.
func TestCompareModelHeader(t *testing.T) {
	s := newTestServer(t, Config{})
	rec := do(t, s, http.MethodPost, "/v1/compare",
		`{"workload":"MMM","f":0.9,"model":"sqrtm","pairs":[{"scenario":1},{"scenario":2}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	if m := rec.Header().Get("X-Heterosim-Model"); m != "sqrtm" {
		t.Errorf("uniform compare: X-Heterosim-Model = %q, want sqrtm", m)
	}
	rec = do(t, s, http.MethodPost, "/v1/compare",
		`{"workload":"MMM","f":0.9,"pairs":[{"scenario":1},{"scenario":2,"model":"sqrtm"}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (body %s)", rec.Code, rec.Body)
	}
	if m := rec.Header().Get("X-Heterosim-Model"); m != "" {
		t.Errorf("mixed compare: X-Heterosim-Model = %q, want unset", m)
	}
}

// TestStreamParamDispatch holds the generic pipeline's query-param
// contract: ?stream=ndjson on a buffered-only op is a clear 400, an
// unknown stream value is a 400 everywhere, and the stream-only
// frontier endpoint takes bare POSTs (no param needed) but still
// rejects non-POST methods.
func TestStreamParamDispatch(t *testing.T) {
	s := newTestServer(t, Config{})

	rec := do(t, s, http.MethodPost, "/v1/optimize?stream=ndjson",
		`{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("optimize?stream=ndjson: status = %d, want 400 (body %s)", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "does not stream") {
		t.Errorf("optimize?stream=ndjson: error should say the op does not stream, got %s", rec.Body)
	}

	rec = do(t, s, http.MethodPost, "/v1/compare?stream=ndjson",
		`{"workload":"MMM","f":0.9,"pairs":[{"scenario":1}]}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("compare?stream=ndjson: status = %d, want 400 (body %s)", rec.Code, rec.Body)
	}

	// The batch envelope is buffered-only too: it runs the same lifecycle.
	rec = do(t, s, http.MethodPost, "/v1/batch?stream=ndjson",
		`{"items":[{"op":"optimize","request":{"workload":"MMM","f":0.9,"design":{"kind":"sym"}}}]}`)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "batch does not stream") {
		t.Errorf("batch?stream=ndjson: status = %d (body %s), want 400 naming batch", rec.Code, rec.Body)
	}

	rec = do(t, s, http.MethodPost, "/v1/sweep?stream=xml", streamSweepBody)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("sweep?stream=xml: status = %d, want 400 (body %s)", rec.Code, rec.Body)
	}

	rec = do(t, s, http.MethodPost, "/v1/frontier/stream?stream=xml", `{"workload":"MMM","f":0.9}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("frontier?stream=xml: status = %d, want 400 (body %s)", rec.Code, rec.Body)
	}

	// The stream-only endpoint needs no param: bare POST streams, and
	// the redundant-but-correct ?stream=ndjson spelling works too.
	for _, path := range []string{"/v1/frontier/stream", "/v1/frontier/stream?stream=ndjson"} {
		rec = do(t, s, http.MethodPost, path, `{"workload":"MMM","f":0.9}`)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status = %d, want 200 (body %s)", path, rec.Code, rec.Body)
		}
	}

	rec = do(t, s, http.MethodGet, "/v1/frontier/stream", "")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET frontier: status = %d, want 405", rec.Code)
	}
}
