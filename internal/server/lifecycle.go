package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"github.com/calcm/heterosim/internal/engine"
	"github.com/calcm/heterosim/internal/servecache"
	"github.com/calcm/heterosim/internal/telemetry"
)

// This file is the one request lifecycle every POST route shares: count
// and time the request, pick its buffered or stream form, check the
// method, read and prepare the body inside the decode span, report the
// model header, bound the request by its deadline, hand it to its
// writer, and map any error through the one classifier. Routes differ
// only in how the result is written:
//
//   - buffered: one registry op, one cache key, the response bytes;
//   - batch: N buffered lookups sharing one admission grant, written as
//     one envelope (op_batch.go);
//   - stream: an NDJSON emitter, never cached (stream.go).

// prepareFunc is a writer's decode step: decode, validate, and
// canonicalize body, and return the step that evaluates and writes.
type prepareFunc func(body []byte, env engine.Env) (respondFunc, error)

// respondFunc evaluates a prepared request under its exchange and writes
// the response. An error it returns becomes a plain JSON error response,
// so it must return nil once it has written anything.
type respondFunc func(x *exchange) error

// exchange is one POST request in the lifecycle: where it answers, the
// context bounding it, and its admission grant.
type exchange struct {
	s     *Server
	w     http.ResponseWriter
	r     *http.Request
	ctx   context.Context // the request context, bounded by RequestTimeout
	grant grant

	// meta is what Prepare reports about the request — the resolved
	// model backend, carried by the response header and the access log.
	// It never reaches cache keys or response bodies.
	meta engine.Meta
}

// post builds the handler for one POST route. i indexes the route's
// counter and name labels its errors; buffered or stream is nil when the
// route has no such form.
func (s *Server) post(i int, name string, buffered, stream prepareFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests[i].Add(1)
		defer s.timeEndpoint(i, time.Now())
		prepare, err := pickForm(r, name, buffered, stream)
		if err == nil && r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			err = &apiError{Status: http.StatusMethodNotAllowed, Message: "use POST"}
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		x := &exchange{s: s, w: w, r: r, ctx: r.Context(), grant: grant{gate: s.gate}}
		decode := telemetry.StartSpan(x.ctx, stageDecode)
		var respond respondFunc
		body, err := readBody(r)
		if err == nil {
			respond, err = prepare(body, engine.Env{Workers: s.cfg.Workers, Meta: &x.meta})
		}
		decode.End()
		if x.meta.Model != "" {
			w.Header().Set(headerModel, x.meta.Model)
		}
		if err != nil {
			s.writeError(w, err)
			return
		}
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			x.ctx, cancel = context.WithTimeout(x.ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		defer x.grant.release()
		if err := respond(x); err != nil {
			s.writeError(w, err)
		}
	}
}

// pickForm chooses a route's form from its stream parameter: absent
// means buffered, "ndjson" the stream, and a stream-only route streams
// either way. Any other value, or any value on a route that cannot
// stream, is a 400, so the parameter is never silently ignored.
func pickForm(r *http.Request, name string, buffered, stream prepareFunc) (prepareFunc, error) {
	v := ""
	if r.URL.RawQuery != "" {
		v = r.URL.Query().Get("stream")
	}
	switch {
	case v != "" && stream == nil:
		return nil, badRequest("%s does not stream: drop the stream parameter", name)
	case v != "" && v != "ndjson":
		return nil, badRequest("unknown stream format %q (want ndjson)", v)
	case v == "" && buffered != nil:
		return buffered, nil
	}
	return stream, nil
}

// maxBodyBytes bounds request bodies; the largest legitimate request (a
// dense sweep spec) is well under a kilobyte.
const maxBodyBytes = 1 << 20

// readBody slurps and bounds the request body.
func readBody(r *http.Request) ([]byte, error) {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	if err != nil {
		return nil, badRequest("reading body: %v", err)
	}
	return body, nil
}

// buffered is the writer for a registry op: one cached lookup, answered
// with the response bytes and their cache outcome.
func buffered(op engine.Op) prepareFunc {
	return func(body []byte, env engine.Env) (respondFunc, error) {
		key, eval, err := op.Prepare(body, env)
		if err != nil {
			return nil, err
		}
		return func(x *exchange) error {
			resp, outcome, err := x.lookup(op.Name(), key, eval)
			// The slot covers the evaluation, not the response write.
			x.grant.release()
			if err != nil {
				return err
			}
			encode := telemetry.StartSpan(x.ctx, stageEncode)
			x.w.Header().Set("Content-Type", "application/json")
			x.w.Header().Set("X-Heterosim-Cache", outcome.String())
			x.s.responses.ok.Add(1)
			x.w.Write(resp)
			encode.End()
			return nil
		}, nil
	}
}

// lookup routes one keyed evaluation: the local cache when single-node
// or when this request already crossed a peer boundary (the single-hop
// guarantee), the cluster tier otherwise. Only a miss evaluates, so only
// a miss is admitted (cached work is free and must stay admissible under
// overload).
func (x *exchange) lookup(name, key string, eval func(context.Context) ([]byte, error)) ([]byte, servecache.Outcome, error) {
	fn := func(ctx context.Context) ([]byte, error) { return x.evaluate(ctx, name, eval) }
	if x.s.cluster == nil || x.r.Header.Get(headerPeerHop) != "" {
		return x.s.cache.Do(x.ctx, key, fn)
	}
	return x.s.cluster.Do(x.ctx, key, fn)
}

// evaluate runs model work for the request: it takes the admission
// grant, reports to the test hook, and times the work in the evaluate
// span.
func (x *exchange) evaluate(ctx context.Context, name string, eval func(context.Context) ([]byte, error)) ([]byte, error) {
	if err := x.grant.admit(ctx); err != nil {
		return nil, err
	}
	if x.s.onEvaluate != nil {
		x.s.onEvaluate(name)
	}
	defer telemetry.StartSpan(ctx, stageEvaluate).End()
	return eval(ctx)
}

// classify is the one error classifier, shared by plain responses,
// batch items, and in-band stream errors: an apiError carries its own
// status, an expired request deadline is 504, a disconnected client 503
// (moot — nobody reads it), anything else a 500.
func classify(err error) *apiError {
	var ae *apiError
	switch {
	case errors.As(err, &ae):
		return ae
	case errors.Is(err, context.DeadlineExceeded):
		return &apiError{Status: http.StatusGatewayTimeout, Message: "request deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return &apiError{Status: http.StatusServiceUnavailable, Message: "request cancelled"}
	default:
		return &apiError{Status: http.StatusInternalServerError, Message: err.Error()}
	}
}

// countError records one failed response under its status class.
func (s *Server) countError(status int) {
	if status >= 500 {
		s.responses.serverErr.Add(1)
	} else {
		s.responses.clientErr.Add(1)
	}
}

// writeError answers with the classified error as a JSON body; 429s
// and 503s invite a retry.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	ae := classify(err)
	s.countError(ae.Status)
	w.Header().Set("Content-Type", "application/json")
	if ae.Status == http.StatusServiceUnavailable || ae.Status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(ae.Status)
	json.NewEncoder(w).Encode(ae)
}
