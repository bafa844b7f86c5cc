package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHandlerCacheHitAllocs pins allocations per request on the
// cache-hit paths through the full handler stack: a warm optimize, a
// warm sweep, and a one-item optimize batch. The counts include the
// httptest request and recorder, so they are ceilings on the whole
// exchange; a change that adds an allocation to a hit path fails here.
// The race detector changes allocation counts, so the pin skips under
// it (CI runs it without -race).
func TestHandlerCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cases := []struct {
		name, path, body string
		max              float64
	}{
		{"optimize-hit", "/v1/optimize", benchOptimizeBody, 62},
		{"sweep-hit", "/v1/sweep", benchSweepBody, 75},
		{"batch-hit", "/v1/batch", `{"items":[{"op":"optimize","request":` + benchOptimizeBody + `}]}`, 83},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newTestServer(t, Config{})
			post := func() {
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			post() // makes the key resident
			got := testing.AllocsPerRun(200, post)
			t.Logf("%s: %.0f allocs/op (ceiling %.0f)", c.name, got, c.max)
			if got > c.max {
				t.Errorf("%s: %.0f allocs/op, want <= %.0f", c.name, got, c.max)
			}
		})
	}
}
