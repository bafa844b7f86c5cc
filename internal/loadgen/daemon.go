package loadgen

import (
	"context"
	"fmt"
	"net"
	"sync"

	"github.com/calcm/heterosim/internal/faultinject"
	"github.com/calcm/heterosim/internal/server"
)

// withFaults splices the scenario's fault injector, when it asks for
// one, in front of the server as its Middleware.
func withFaults(sc Scenario, cfg server.Config) (server.Config, error) {
	if sc.Faults == "" {
		return cfg, nil
	}
	fcfg, err := faultinject.Parse(sc.Faults)
	if err != nil {
		return server.Config{}, err
	}
	inj, err := faultinject.New(fcfg)
	if err != nil {
		return server.Config{}, err
	}
	cfg.Middleware = inj.Wrap
	return cfg, nil
}

// StartInProcess boots a fresh daemon with cfg on an ephemeral
// localhost port (cfg.Addr is ignored), splicing in the scenario's
// fault injector when one is specified. stop shuts it down and blocks
// until the listener is released.
func StartInProcess(sc Scenario, cfg server.Config) (baseURL string, stop func(), err error) {
	urls, _, stop, err := start(sc, cfg, 1, false)
	if err != nil {
		return "", nil, err
	}
	return urls[0], stop, nil
}

// StartCluster boots n peer-aware daemons of one configuration, each
// knowing the full membership: listeners are bound first so every
// member's base URL is known before any server starts, then each
// daemon serves on its pre-bound port with -peers-equivalent wiring.
// Every member gets its own fault injector when the scenario asks for
// faults. stopOne(i) kills a single member (chaos tests); stop shuts
// the rest down and blocks until every listener is released.
func StartCluster(sc Scenario, cfg server.Config, n int) (baseURLs []string, stopOne func(i int), stop func(), err error) {
	return start(sc, cfg, n, true)
}

// start boots n daemons on pre-bound ephemeral ports; peered wires
// them into one cluster.
func start(sc Scenario, cfg server.Config, n int, peered bool) (baseURLs []string, stopOne func(i int), stop func(), err error) {
	if n < 1 {
		return nil, nil, nil, fmt.Errorf("loadgen: cluster size %d, want >= 1", n)
	}
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	closeAll := func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	cancels := make([]context.CancelFunc, n)
	dones := make([]chan error, n)
	for i := range lns {
		srvCfg, err := withFaults(sc, cfg)
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		if peered {
			srvCfg.Peers = urls
			srvCfg.PeerSelf = urls[i]
		}
		srv, err := server.New(srvCfg)
		if err != nil {
			closeAll()
			return nil, nil, nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		cancels[i], dones[i] = cancel, done
		go func(ln net.Listener) { done <- srv.Serve(ctx, ln) }(lns[i])
	}
	var mu sync.Mutex
	stopped := make([]bool, n)
	stopOne = func(i int) {
		mu.Lock()
		dead := stopped[i]
		stopped[i] = true
		mu.Unlock()
		if dead {
			return
		}
		cancels[i]()
		<-dones[i]
	}
	stop = func() {
		for i := range cancels {
			stopOne(i)
		}
	}
	return urls, stopOne, stop, nil
}
