package main

import (
	"context"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/calcm/heterosim/internal/client"
	"github.com/calcm/heterosim/internal/telemetry"
)

// tapKey carries an op's *tap through the request context, so the
// transport can hash the raw response bytes internal/client reads.
type tapKey struct{}

// tap collects what one op saw on the wire.
type tap struct {
	digest   uint64
	attempts atomic.Int32
	cache    string // X-Heterosim-Cache of the last attempt
}

// hashTransport wraps every response body in a reader that feeds a
// 64-bit FNV-1a hash of the bytes as they are read; Close drains the
// rest of the body into the hash before recording the digest.
type hashTransport struct{ base http.RoundTripper }

func (t hashTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	res, err := t.base.RoundTrip(r)
	if err != nil {
		return res, err
	}
	if tp, ok := r.Context().Value(tapKey{}).(*tap); ok {
		res.Body = &hashBody{rc: res.Body, h: fnv.New64a(), tap: tp}
	}
	return res, nil
}

type hashBody struct {
	rc   io.ReadCloser
	h    hash.Hash64
	tap  *tap
	done bool
}

func (b *hashBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.h.Write(p[:n])
	return n, err
}

func (b *hashBody) Close() error {
	if !b.done {
		b.done = true
		io.Copy(b.h, b.rc)
		b.tap.digest = b.h.Sum64()
	}
	return b.rc.Close()
}

// newClient is the load generator's internal/client with its default
// retry policy, a connection pool sized for the client count, and the
// hashing transport.
func newClient(base string, clients int, seed int64) (*client.Client, error) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 2 * clients
	return client.New(client.Config{
		BaseURL:    base,
		HTTPClient: &http.Client{Transport: hashTransport{base: tr}},
		Seed:       seed,
		OnAttempt: func(ctx context.Context, a client.Attempt) {
			if tp, ok := ctx.Value(tapKey{}).(*tap); ok {
				tp.attempts.Add(1)
				tp.cache = a.Cache
			}
		},
	})
}

// result is one completed op.
type result struct {
	idx      int
	start    time.Duration // since the timed phase began
	latency  time.Duration
	digest   uint64
	attempts int
	err      error
	id       string
}

// send issues o with request ID id and returns what the wire saw.
func send(c *client.Client, o op, id string) (uint64, int, error) {
	tp := &tap{}
	ctx := context.WithValue(telemetry.WithRequestID(context.Background(), id), tapKey{}, tp)
	err := issue(ctx, c, o)
	return tp.digest, int(tp.attempts.Load()), err
}

// closedLoop runs `clients` callers, each sending its next op only when
// the previous reply has arrived, until dur has passed. Op i is next(i);
// ops are handed out in index order from a shared counter. sample, when
// set, is called at the end of every window.
func closedLoop(c *client.Client, clients int, dur, window time.Duration, prefix string,
	next func(i int) op, sample func()) ([]result, time.Duration) {
	var counter atomic.Int64
	per := make([][]result, clients)
	start := time.Now()
	deadline := start.Add(dur)
	stopSampling := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		if sample == nil {
			return
		}
		for w := 1; ; w++ {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(w) * window))):
				sample()
			case <-stopSampling:
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			out := make([]result, 0, 1<<14)
			for time.Now().Before(deadline) {
				i := int(counter.Add(1) - 1)
				o := next(i)
				id := fmt.Sprintf("%s%d", prefix, i)
				t0 := time.Now()
				d, n, err := send(c, o, id)
				out = append(out, result{idx: i, start: t0.Sub(start), latency: time.Since(t0),
					digest: d, attempts: n, err: err, id: id})
			}
			per[k] = out
		}(k)
	}
	wg.Wait()
	wall := time.Since(start)
	close(stopSampling)
	<-sampled
	var all []result
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].idx < all[b].idx })
	return all, wall
}
