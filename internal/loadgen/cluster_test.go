package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/calcm/heterosim/internal/client"
	"github.com/calcm/heterosim/internal/faultinject"
	"github.com/calcm/heterosim/internal/server"
)

// The cluster chaos suite: boots real multi-daemon clusters (every
// member a full in-process heterosimd with the peer tier wired) and
// holds them to the clustering contract under peer death and injected
// faults. Run under -race this is also the cross-process-boundary race
// shake for the peer tier.

// postJSON POSTs a body to one member and returns (status, response).
func postJSON(t *testing.T, baseURL, path, body string) (int, []byte) {
	t.Helper()
	res, err := http.Post(baseURL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s%s: %v", baseURL, path, err)
	}
	defer res.Body.Close()
	payload, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, payload
}

// metricsOf fetches one member's /metrics document.
func metricsOf(t *testing.T, baseURL string) server.Metrics {
	t.Helper()
	res, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var m server.Metrics
	if err := json.NewDecoder(res.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// optimizeBodies returns n distinct canonical-cold optimize requests.
func optimizeBodies(n int) []string {
	bodies := make([]string, n)
	for i := range bodies {
		f := 0.50 + 0.4*float64(i)/float64(n)
		bodies[i] = fmt.Sprintf(`{"workload":"MMM","f":%.4f,"design":{"kind":"sym"}}`, f)
	}
	return bodies
}

// TestClusterByteIdenticalAndSingleCompute is the core clustering
// acceptance: every member answers every canonical key with identical
// bytes, and a cold key is computed exactly once cluster-wide no matter
// which member was asked.
func TestClusterByteIdenticalAndSingleCompute(t *testing.T) {
	urls, _, stop, err := StartCluster(Scenario{}, server.Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	bodies := optimizeBodies(8)
	for _, body := range bodies {
		var first []byte
		for pi, u := range urls {
			status, payload := postJSON(t, u, "/v1/optimize", body)
			if status != http.StatusOK {
				t.Fatalf("peer %d: status %d (%s)", pi, status, payload)
			}
			if first == nil {
				first = payload
			} else if !bytes.Equal(payload, first) {
				t.Errorf("peer %d answered different bytes for %s:\n got %s\nwant %s", pi, body, payload, first)
			}
		}
	}

	var misses, peerFetches int64
	for pi, u := range urls {
		m := metricsOf(t, u)
		if m.Peers == nil {
			t.Fatalf("peer %d: /metrics has no peers section", pi)
		}
		if m.Peers.Self != urls[pi] {
			t.Errorf("peer %d self = %q, want %q", pi, m.Peers.Self, urls[pi])
		}
		misses += m.Cache.Misses
		peerFetches += m.Peers.Fetches
		if m.Peers.FetchErrors != 0 || m.Peers.LocalFallbacks != 0 {
			t.Errorf("peer %d: fetchErrors %d localFallbacks %d in a healthy cluster",
				pi, m.Peers.FetchErrors, m.Peers.LocalFallbacks)
		}
	}
	if want := int64(len(bodies)); misses != want {
		t.Errorf("cluster-wide computes = %d, want %d (exactly one per cold key)", misses, want)
	}
	if peerFetches == 0 {
		t.Error("no peer fetches happened: ownership routing is not exercising the peer tier")
	}
}

// TestClusterPeerDeathMidBatch kills one member while a cold batch is
// in flight through another: the batch must return 200 with every item
// evaluated (owner loss degrades to local compute, never to request
// loss), and the receiving member's metrics must account for the
// outage as fallbacks, not 5xx.
func TestClusterPeerDeathMidBatch(t *testing.T) {
	urls, stopOne, stop, err := StartCluster(Scenario{}, server.Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	bodies := optimizeBodies(64)
	var sb strings.Builder
	sb.WriteString(`{"items":[`)
	for i, b := range bodies {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"op":"optimize","request":` + b + `}`)
	}
	sb.WriteString(`]}`)

	// Kill peer 2 while the batch fans out through peer 0. The sleep
	// only shapes the interleaving; correctness must hold wherever the
	// kill lands, which is exactly what -race runs shake.
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(2 * time.Millisecond)
		stopOne(2)
	}()
	status, payload := postJSON(t, urls[0], "/v1/batch", sb.String())
	<-done
	if status != http.StatusOK {
		t.Fatalf("batch status = %d (%s)", status, payload)
	}
	var resp server.BatchResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK != len(bodies) || resp.Failed != 0 {
		for _, it := range resp.Items {
			if it.Status != http.StatusOK {
				t.Logf("failed item: %+v", it)
			}
		}
		t.Fatalf("ok/failed = %d/%d, want %d/0 — peer death lost requests", resp.OK, resp.Failed, len(bodies))
	}

	// Every item answered; re-asking the survivors must give the same
	// bytes the batch returned (fallback computes are still canonical).
	for i, b := range bodies[:8] {
		status, payload := postJSON(t, urls[1], "/v1/optimize", b)
		if status != http.StatusOK {
			t.Fatalf("survivor: status %d", status)
		}
		if !bytes.Equal(payload, resp.Items[i].Response) {
			t.Errorf("survivor bytes differ from batch item %d", i)
		}
	}
}

// TestClusterPeerDeathMidStream kills a member while an NDJSON sweep
// streams from another: streams evaluate locally, so the stream must
// run to its trailer with every row intact.
func TestClusterPeerDeathMidStream(t *testing.T) {
	urls, stopOne, stop, err := StartCluster(Scenario{}, server.Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	cli, err := client.New(client.Config{BaseURL: urls[0], MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	rows := 0
	res, err := cli.SweepStream(context.Background(), server.SweepRequest{
		Workload: "MMM",
		Design:   server.DesignSpec{Kind: "sym"},
		F:        server.AxisSpec{Lo: 0.01, Hi: 0.99, Steps: 150},
		AreaScale: &server.AxisSpec{
			Lo: 0.5, Hi: 2, Steps: 40,
		},
	}, func(server.SweepPointJSON) error {
		rows++
		if rows == 100 {
			stopOne(1)
			close(killed)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream failed after %d rows: %v", rows, err)
	}
	<-killed // the kill really happened mid-stream
	if want := 150 * 40; rows != want || res.Rows != want {
		t.Errorf("rows = %d (result %d), want %d", rows, res.Rows, want)
	}
}

// TestClusterFailoverDrainsToSurvivors: a client given all three
// members keeps answering after one dies mid-run — zero lost requests,
// byte-identical answers from whoever serves them.
func TestClusterFailoverDrainsToSurvivors(t *testing.T) {
	urls, stopOne, stop, err := StartCluster(Scenario{}, server.Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	cli, err := client.New(client.Config{
		BaseURLs:    urls,
		MaxAttempts: 8,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 24
	var killOnce sync.Once
	var issued, failed atomic.Int64
	answers := make([]map[float64]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		answers[w] = make(map[float64]string)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/2 {
					// Kill the client's current pick mid-run, once.
					killOnce.Do(func() { stopOne(0) })
				}
				f := 0.5 + 0.002*float64(i%16)
				issued.Add(1)
				resp, err := cli.Optimize(context.Background(), server.OptimizeRequest{
					Workload: "MMM", F: f, Design: server.DesignSpec{Kind: "sym"},
				})
				if err != nil {
					failed.Add(1)
					continue
				}
				b, _ := json.Marshal(resp)
				answers[w][f] = string(b)
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Errorf("%d/%d requests lost to a single peer death (failover should absorb it)", failed.Load(), issued.Load())
	}
	// Cross-worker consistency: same key, same decoded answer, no
	// matter which member served it before or after the kill.
	for f, want := range answers[0] {
		for w := 1; w < workers; w++ {
			if got, ok := answers[w][f]; ok && got != want {
				t.Errorf("worker %d saw different answer for f=%v", w, f)
			}
		}
	}
}

// TestClusterFaultLedger injects deterministic faults into every
// member and audits the ledger: every injected error is accounted for
// either by a client-observed faulted attempt (X-Fault-Injected on a
// direct response) or by a peer-fetch failure recorded in some
// member's metrics — no injected fault vanishes.
func TestClusterFaultLedger(t *testing.T) {
	const n = 3
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	injectors := make([]*faultinject.Injector, n)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := range lns {
		inj, err := faultinject.New(faultinject.Config{Seed: int64(10 + i), ErrorP: 0.15, LatencyP: 0.1, Latency: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		injectors[i] = inj
		srv, err := server.New(server.Config{
			Peers:    urls,
			PeerSelf: urls[i],
			// Roomy limits: the injector must be the only failure source
			// so the ledger arithmetic is exact.
			MaxInflight: 64, MaxQueue: 64,
			Middleware: inj.Wrap,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(ln net.Listener) {
			defer wg.Done()
			srv.Serve(ctx, ln)
		}(lns[i])
	}
	defer func() {
		cancel()
		wg.Wait()
	}()

	var faultedAttempts atomic.Int64
	cli, err := client.New(client.Config{
		BaseURLs:    urls,
		MaxAttempts: 10,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		OnAttempt: func(_ context.Context, a client.Attempt) {
			if a.Fault != "" {
				faultedAttempts.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range optimizeBodies(24) {
		var req server.OptimizeRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Optimize(context.Background(), req); err != nil {
			t.Fatalf("request lost under faults: %v", err)
		}
	}

	var injected, fetchErrors, metricsFaults int64
	for i, inj := range injectors {
		st := inj.Stats()
		injected += st.Errors
		if st.Resets != 0 || st.Truncates != 0 {
			t.Fatalf("unexpected fault kinds injected: %+v", st)
		}
		// /metrics itself passes through the injector; retry until it
		// answers and subtract the faults burned on these reads.
		for {
			res, err := http.Get(urls[i] + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			faulted := res.Header.Get("X-Fault-Injected") != ""
			if faulted {
				metricsFaults++
				res.Body.Close()
				continue
			}
			var m server.Metrics
			if err := json.NewDecoder(res.Body).Decode(&m); err != nil {
				t.Fatal(err)
			}
			res.Body.Close()
			if m.Peers == nil {
				t.Fatalf("peer %d: no peers metrics", i)
			}
			fetchErrors += m.Peers.FetchErrors
			break
		}
		// Later iterations' metrics reads may inject more errors; fold
		// the running injector total in again at the end.
	}
	// Re-snapshot the injectors after the metrics reads so the totals
	// include faults burned on /metrics itself.
	injected = 0
	for _, inj := range injectors {
		injected += inj.Stats().Errors
	}
	accounted := faultedAttempts.Load() + fetchErrors + metricsFaults
	if injected != accounted {
		t.Errorf("fault ledger out of balance: injected %d, accounted %d (client %d + peer-fetch %d + metrics %d)",
			injected, accounted, faultedAttempts.Load(), fetchErrors, metricsFaults)
	}
	if injected == 0 {
		t.Error("no faults injected: the ledger test exercised nothing")
	}
}
