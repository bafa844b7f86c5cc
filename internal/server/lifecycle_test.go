package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/calcm/heterosim/internal/engine"
)

// TestNegativeAlphaIs400 pins that a negative alpha is rejected on every
// endpoint that takes one, whatever the backend. model.New reads any
// alpha <= 0 as the paper default, so the serving layer must reject it
// before resolving the model.
func TestNegativeAlphaIs400(t *testing.T) {
	s := newTestServer(t, Config{})
	const sweep = `{"workload":"MMM","alpha":-1,"design":{"kind":"sym"},"f":{"values":[0.9]}}`
	cases := []struct{ path, body string }{
		{"/v1/optimize", `{"workload":"MMM","f":0.9,"alpha":-1,"design":{"kind":"sym"}}`},
		{"/v1/optimize", `{"workload":"MMM","f":0.9,"alpha":-1,"design":{"kind":"sym"},"model":"multiamdahl"}`},
		{"/v1/sweep", sweep},
		{"/v1/sweep?stream=ndjson", sweep},
		{"/v1/sensitivity", `{"workload":"MMM","f":0.9,"alpha":-1,"design":{"kind":"sym"}}`},
	}
	for _, tc := range cases {
		rec := do(t, s, http.MethodPost, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s: status %d (%s), want 400", tc.path, tc.body, rec.Code, rec.Body.String())
			continue
		}
		var e struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "alpha") {
			t.Errorf("%s: error body %q does not name alpha", tc.path, rec.Body.String())
		}
	}
}

// TestOneErrorClassifier drives the same evaluation failures through all
// three writers: each must surface the same status and message whether
// answered standalone, as a batch item, or as an in-band NDJSON error
// line after the stream has started.
func TestOneErrorClassifier(t *testing.T) {
	cases := []struct {
		name    string
		err     error
		status  int
		message string
	}{
		{"request deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, "request deadline exceeded"},
		{"client cancel", fmt.Errorf("evaluating: %w", context.Canceled), http.StatusServiceUnavailable, "request cancelled"},
		{"apiError", unprocessable("no feasible design"), http.StatusUnprocessableEntity, "no feasible design"},
		{"plain error", errors.New("boom"), http.StatusInternalServerError, "boom"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := engine.New("fake", func(*struct{}, engine.Env) (func(context.Context) (struct{}, error), error) {
				return func(context.Context) (struct{}, error) { return struct{}{}, tc.err }, nil
			})
			sop := engine.NewStream("fake", "/v1/fake", func(*struct{}, engine.Env) (engine.StreamFunc, error) {
				return func(_ context.Context, e engine.StreamEmitter) error {
					if err := e.Emit([]byte(`{"header":true}`)); err != nil {
						return err
					}
					if err := e.Flush(); err != nil {
						return err
					}
					return tc.err
				}, nil
			})
			var logs bytes.Buffer
			s := newTestServer(t, Config{Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
			serve := func(h http.HandlerFunc, body string) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				h(rec, httptest.NewRequest(http.MethodPost, "/v1/fake", strings.NewReader(body)))
				return rec
			}

			rec := serve(s.post(0, "fake", buffered(op), nil), `{}`)
			var plain struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &plain); err != nil {
				t.Fatalf("standalone body %q: %v", rec.Body.String(), err)
			}
			if rec.Code != tc.status || plain.Error != tc.message {
				t.Errorf("standalone = (%d, %q), want (%d, %q)", rec.Code, plain.Error, tc.status, tc.message)
			}

			rec = serve(s.post(idxBatch, "batch", batch(map[string]engine.Op{"fake": op}), nil),
				`{"items":[{"op":"fake","request":{}}]}`)
			var env BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || len(env.Items) != 1 {
				t.Fatalf("batch body %q: %v", rec.Body.String(), err)
			}
			if it := env.Items[0]; it.Status != tc.status || it.Error != tc.message {
				t.Errorf("batch item = (%d, %q), want (%d, %q)", it.Status, it.Error, tc.status, tc.message)
			}

			rec = serve(s.post(0, "fake", nil, streamed(sop)), `{}`)
			lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
			var line SweepStreamError
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || len(lines) != 2 {
				t.Fatalf("stream body %q: want the header then one error line (%v)", rec.Body.String(), err)
			}
			var logged struct {
				Msg    string
				Status int
			}
			for _, l := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
				if json.Unmarshal([]byte(l), &logged) == nil && logged.Msg == "stream failed in-band" {
					break
				}
			}
			if logged.Status != tc.status || line.Error != tc.message {
				t.Errorf("in-band = (%d, %q), want (%d, %q)", logged.Status, line.Error, tc.status, tc.message)
			}
		})
	}
}
