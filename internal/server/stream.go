package server

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"

	"github.com/calcm/heterosim/internal/engine"
)

// This file is the stream writer of the request lifecycle
// (lifecycle.go), written once against engine.StreamOp: gate admission
// (one slot for the whole stream), evaluate span, chunked flush, and
// in-band error lines. Streams always evaluate: the response never
// enters the result cache or the peer tier — a stream is a bulk
// export, not a cacheable unit — and the X-Heterosim-Cache header says
// "stream" so clients can tell.
//
// An op may shadow a buffered registry op under the same route (the
// sweep does — `?stream=ndjson` picks the stream) or own a stream-only
// route (the frontier).

// streamRegistry is the streaming surface, keyed by op name. An entry
// whose name matches a registry op shares that op's route and counter;
// the rest get stream-only routes.
var streamRegistry = map[string]engine.StreamOp{
	streamSweep.Name():    streamSweep,
	streamFrontier.Name(): streamFrontier,
}

// streamed is the writer for a stream op. Until the first line is out
// a failure is still a plain HTTP error; after it, errors go in-band.
func streamed(op engine.StreamOp) prepareFunc {
	return func(body []byte, env engine.Env) (respondFunc, error) {
		stream, err := op.PrepareStream(body, env)
		if err != nil {
			return nil, err
		}
		return func(x *exchange) error {
			flusher, _ := x.w.(http.Flusher)
			e := &streamEmitter{w: x.w, flusher: flusher}
			_, err := x.evaluate(x.ctx, op.Name(), func(ctx context.Context) ([]byte, error) {
				x.w.Header().Set("Content-Type", "application/x-ndjson")
				x.w.Header().Set("X-Heterosim-Cache", "stream")
				return nil, stream(ctx, e)
			})
			switch {
			case err == nil:
				if e.Flush() == nil {
					x.s.responses.ok.Add(1)
				}
			case e.dead:
				// Client gone; nothing to clean up.
			case !e.started:
				return err
			default:
				x.s.streamError(x.r.Context(), op.Name(), e, err)
			}
			return nil
		}, nil
	}
}

// streamEmitter adapts an http.ResponseWriter to engine.StreamEmitter.
// Emit buffers complete NDJSON lines; Flush writes the buffer and
// pushes it through the HTTP flusher, so the op's flush granularity
// (after the header, after each evaluation window) becomes the wire's.
// The first write decides the stream is committed: from then on errors
// go in-band, not as HTTP statuses.
type streamEmitter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	buf     []byte
	started bool // any line emitted: the 200 header is (about to be) spent
	dead    bool // a write failed: the client is gone
}

func (e *streamEmitter) Emit(line []byte) error {
	if e.dead {
		return errStreamClientGone
	}
	e.started = true
	e.buf = append(e.buf, line...)
	e.buf = append(e.buf, '\n')
	return nil
}

func (e *streamEmitter) Flush() error {
	if err := e.write(); err != nil {
		return err
	}
	if e.flusher != nil {
		e.flusher.Flush()
	}
	return nil
}

// write drains the line buffer to the response without forcing an HTTP
// flush.
func (e *streamEmitter) write() error {
	if e.dead {
		return errStreamClientGone
	}
	if len(e.buf) == 0 {
		return nil
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	if err != nil {
		e.dead = true
		return errStreamClientGone
	}
	return nil
}

// errStreamClientGone marks a failed response write: the client went
// away mid-stream. Nothing is salvageable — no error line can reach
// anyone — so the pipeline returns without a trace beyond the access
// log's byte count.
var errStreamClientGone = errors.New("stream client gone")

// streamError reports a failure after frames are on the wire: an
// in-band NDJSON error line carrying the classified message, counted
// under the classified status, and logged — a stream that dies with no
// trailer must always be attributable in the access log's vicinity,
// because its HTTP status is a lie (200).
func (s *Server) streamError(ctx context.Context, name string, e *streamEmitter, err error) {
	ae := classify(err)
	s.countError(ae.Status)
	s.logger.LogAttrs(ctx, slog.LevelWarn, "stream failed in-band",
		slog.String("endpoint", name),
		slog.Int("status", ae.Status),
		slog.String("error", err.Error()))
	// A lone string field always marshals.
	line, _ := json.Marshal(SweepStreamError{Error: ae.Message})
	if e.Emit(line) == nil {
		e.Flush()
	}
}
