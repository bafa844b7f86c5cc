// Package server is the serving layer of the reproduction: JSON-over-HTTP
// endpoints exposing the Chung et al. model — single design points,
// (f x budget) sweeps, ITRS trajectory projections, and the Section 6.2
// scenario studies — backed by a sharded result cache with request
// coalescing (internal/servecache) and a bounded-concurrency admission
// gate so overload degrades to 429/503 instead of collapsing.
//
// The model is a pure function of the request, which shapes the whole
// design: responses are cached as final bytes keyed by a canonical
// encoding of the request, identical concurrent requests coalesce onto
// one evaluation, and every response is byte-identical at any worker
// count (the engine's determinism guarantee carries through the wire).
//
// Every POST route runs one request lifecycle (lifecycle.go): count and
// time the request, pick its form from the stream parameter, check the
// method, read and prepare the body in the decode span, bound it by the
// request deadline, admit model work through the gate, and map every
// error through one classifier. Routes differ only in their writer:
// buffered bytes for a registry op, an envelope of N buffered lookups
// sharing one admission grant for a batch, or an NDJSON emitter for a
// stream. Every model request runs on a model backend; the paper's own
// (chung) is simply the default one.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/calcm/heterosim/internal/model"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/servecache"
	"github.com/calcm/heterosim/internal/telemetry"
	"github.com/calcm/heterosim/internal/version"
)

// Config parameterizes the serving layer. The zero value is usable:
// every field has a production default applied by New.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string

	// Workers sizes the evaluation worker pool used when a request does
	// not ask for a specific count; <= 0 means GOMAXPROCS. Responses are
	// byte-identical at every worker count.
	Workers int

	// CacheEntries bounds the result cache (default 4096 responses).
	// Any negative value disables storage but keeps request coalescing.
	CacheEntries int

	// MaxInflight bounds concurrent model evaluations admitted past the
	// gate (default 2 x GOMAXPROCS). Cache hits bypass the gate.
	MaxInflight int

	// MaxQueue bounds requests waiting for an evaluation slot; one more
	// is rejected immediately with 429 (default MaxInflight).
	MaxQueue int

	// QueueTimeout bounds how long a queued request waits for a slot
	// before a 503 (default 2s).
	QueueTimeout time.Duration

	// RequestTimeout bounds one model request end to end: queue wait plus
	// evaluation. Work still running at the deadline is cancelled through
	// the engine's context and the request gets 504 (or a stale cached
	// response, when one is retained). 0 means the default 30s; any
	// negative value disables per-request deadlines.
	RequestTimeout time.Duration

	// Middleware, when non-nil, wraps the root handler — the daemon uses
	// it to splice in fault injection behind its env guard. It must not
	// be changed after New. The observability middleware (request IDs,
	// access logging) wraps outside it, so injected faults are logged
	// like any other response.
	Middleware func(http.Handler) http.Handler

	// Peers, when non-empty, turns on the peer-aware cache tier: the
	// static cluster membership as base URLs (bare host:port accepted).
	// Every member must be given the same set — ownership of each
	// canonical cache key is consistent-hashed over the sorted
	// membership, so the lists must agree for the ring to agree.
	// PeerSelf is required alongside it.
	Peers []string

	// PeerSelf is this process's own base URL as it appears in Peers —
	// how the server recognizes the keys it owns.
	PeerSelf string

	// PeerTimeout bounds one owner fetch (default 10s). The request
	// deadline still applies on top; whichever is sooner wins.
	PeerTimeout time.Duration

	// Logger receives one structured line per request plus lifecycle
	// events. nil means discard (tests stay quiet by default).
	Logger *slog.Logger
}

// withDefaults normalizes the config: worker counts go through
// par.Normalize (the same helper the CLI flag uses) and unset fields get
// production defaults.
func (c Config) withDefaults() (Config, error) {
	c.Workers = par.Normalize(c.Workers)
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = -1 // canonical "coalescing only"
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 2 * par.Workers(0)
	}
	if c.MaxInflight < 1 {
		return c, errors.New("server: MaxInflight must be >= 1")
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = c.MaxInflight
	}
	if c.MaxQueue < 0 {
		return c, errors.New("server: MaxQueue must be >= 0")
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.QueueTimeout < 0 {
		return c, errors.New("server: QueueTimeout must be >= 0")
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = -1 // canonical "no per-request deadline"
	}
	if c.PeerTimeout == 0 {
		c.PeerTimeout = 10 * time.Second
	}
	if c.PeerTimeout < 0 {
		return c, errors.New("server: PeerTimeout must be >= 0")
	}
	if len(c.Peers) > 0 && c.PeerSelf == "" {
		return c, errors.New("server: Peers requires PeerSelf")
	}
	if len(c.Peers) == 0 && c.PeerSelf != "" {
		return c, errors.New("server: PeerSelf requires Peers")
	}
	return c, nil
}

// Server is the HTTP serving layer. Construct with New; it is safe for
// concurrent use.
type Server struct {
	cfg     Config
	cache   *servecache.Cache
	cluster *servecache.Cluster // nil when single-node
	gate    *gate
	mux     *http.ServeMux
	handler http.Handler // mux, possibly wrapped by cfg.Middleware, inside observe
	start   time.Time
	logger  *slog.Logger

	// tel holds the latency histograms: reqHist per endpoint, stageHist
	// per pipeline stage (decode/cache/gate/evaluate/encode/sweep).
	tel       *telemetry.Registry
	reqHist   *telemetry.Family
	stageHist *telemetry.Family

	// names and requests are the per-endpoint counters, indexed in
	// registry order with the GET endpoints appended — both derived from
	// the registry in New, so a new op gets its counter for free.
	names     []string
	requests  []atomic.Int64
	responses struct{ ok, clientErr, serverErr atomic.Int64 }

	// onEvaluate, when set (tests only), observes every actual model
	// evaluation — after admission, on misses only — keyed by endpoint.
	onEvaluate func(endpoint string)
}

// New builds a Server from the config (zero value = production
// defaults).
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	entries := cfg.CacheEntries
	if entries < 0 {
		entries = 0
	}
	cache, err := servecache.New(entries)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		cache:  cache,
		gate:   newGate(cfg.MaxInflight, cfg.MaxQueue, cfg.QueueTimeout),
		mux:    http.NewServeMux(),
		start:  time.Now(),
		logger: cfg.Logger,
		tel:    telemetry.NewRegistry(),
	}
	if s.logger == nil {
		s.logger = noopLogger
	}
	s.reqHist = s.tel.Family(famRequestDuration, "endpoint")
	s.stageHist = s.tel.Family(famStageDuration, "stage")
	if err := s.initCluster(); err != nil {
		return nil, err
	}
	s.names = append(append(s.names, registry.Names()...), extraEndpoints[:]...)
	s.requests = make([]atomic.Int64, len(s.names))
	// An op with a streaming form shares its route and counter with it,
	// dispatched on `?stream=`.
	for i, op := range registry.Ops() {
		var stream prepareFunc
		if sop, ok := streamRegistry[op.Name()]; ok {
			stream = streamed(sop)
		}
		s.mux.HandleFunc(op.Path(), s.post(i, op.Name(), buffered(op), stream))
	}
	s.mux.HandleFunc(streamFrontier.Path(), s.post(idxFrontier, streamFrontier.Name(), nil, streamed(streamFrontier)))
	s.mux.HandleFunc("/v1/batch", s.post(idxBatch, "batch", batch(registryOps), nil))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/version", s.handleVersion)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.handler = http.Handler(s.mux)
	if cfg.Middleware != nil {
		s.handler = cfg.Middleware(s.handler)
	}
	s.handler = s.observe(s.handler)
	return s, nil
}

// Config returns the server's effective (default-applied) configuration.
func (s *Server) Config() Config { return s.cfg }

// Handler returns the root handler (middleware included), for mounting
// or httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// Serve accepts connections on ln until ctx is cancelled, then drains
// in-flight requests for up to 5 seconds. It returns nil on a clean
// shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ListenAndServe listens on cfg.Addr and calls Serve. ready, if non-nil,
// receives the bound address once listening (useful with ":0").
func (s *Server) ListenAndServe(ctx context.Context, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	return s.Serve(ctx, ln)
}

// handleHealthz reports liveness.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.requests[idxHealthz].Add(1)
	defer s.timeEndpoint(idxHealthz, time.Now())
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// handleVersion reports the build identity, stamped with the model
// backends this build can serve.
func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	s.requests[idxVersion].Add(1)
	defer s.timeEndpoint(idxVersion, time.Now())
	w.Header().Set("Content-Type", "application/json")
	info := version.Get()
	info.Models = model.Names()
	json.NewEncoder(w).Encode(info)
}

// handleModels reports the model-backend registry: every backend's
// capabilities and parameters, plus the default answering requests
// that omit the model field.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	s.requests[idxModels].Add(1)
	defer s.timeEndpoint(idxModels, time.Now())
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ModelsResponse{Default: model.DefaultName, Models: model.Infos()})
}

// Metrics is the /metrics document: expvar-style JSON with no external
// dependencies. Peers appears only when the peer tier is configured,
// so single-node documents keep their exact pre-cluster shape.
type Metrics struct {
	UptimeSeconds float64               `json:"uptimeSeconds"`
	Version       version.Info          `json:"version"`
	Cache         servecache.Stats      `json:"cache"`
	Peers         *servecache.PeerStats `json:"peers,omitempty"`
	Admission     gateStats             `json:"admission"`
	Requests      map[string]int64      `json:"requests"`
	Responses     map[string]int64      `json:"responses"`
	Workers       int                   `json:"workers"`
}

// Snapshot returns the current metrics document.
func (s *Server) Snapshot() Metrics {
	reqs := make(map[string]int64, len(s.names))
	for i, name := range s.names {
		reqs[name] = s.requests[i].Load()
	}
	m := Metrics{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Version:       version.Get(),
		Cache:         s.cache.Stats(),
		Admission:     s.gate.stats(),
		Requests:      reqs,
		Responses: map[string]int64{
			"ok":          s.responses.ok.Load(),
			"clientError": s.responses.clientErr.Load(),
			"serverError": s.responses.serverErr.Load(),
		},
		Workers: s.cfg.Workers,
	}
	if s.cluster != nil {
		ps := s.cluster.Stats()
		m.Peers = &ps
	}
	return m
}

// handleMetrics serves the counters: the PR 2/3 JSON document by
// default (byte-compatible — existing scrapers and goldens see no
// change), Prometheus text exposition when the client asks via
// ?format=prometheus or an Accept header (see wantsPrometheus).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests[idxMetrics].Add(1)
	defer s.timeEndpoint(idxMetrics, time.Now())
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.writePrometheus(w); err != nil {
			s.logger.LogAttrs(r.Context(), slog.LevelWarn, "metrics write failed",
				slog.String("error", err.Error()))
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}
