package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"github.com/calcm/heterosim/internal/engine"
	"github.com/calcm/heterosim/internal/par"
	"github.com/calcm/heterosim/internal/telemetry"
)

// POST /v1/batch — a heterogeneous list of registry ops in one
// round-trip: decoded once, admitted once, fanned out through
// internal/par, with per-item status/cache/model metadata so a burst
// of N correlated design-space questions costs one HTTP exchange
// instead of N.
//
// Semantics: the batch itself answers 200 whenever its envelope was
// well-formed; each item carries its own status exactly as the
// standalone endpoint would have produced (200/400/422/429/...), so
// partial success is first-class. Structural problems — not JSON, no
// items, too many items — are batch-level 4xxs. Items flow through the
// same per-op Prepare, cache/coalescing/peer lookup, and error mapping
// as standalone requests: two identical items in one batch coalesce
// onto one evaluation, and a batch item's response bytes are
// byte-identical to the standalone endpoint's.
//
// "Admitted once" means the whole batch occupies at most one admission
// slot: the first item that actually needs to evaluate acquires the
// gate and every later evaluating item shares that slot (hits and
// coalesced items bypass the gate, exactly like standalone requests).
// A gate rejection surfaces as that item's status, not the batch's.

// maxBatchItems bounds one batch; bigger bursts should be split so the
// admission gate can interleave other traffic between them.
const maxBatchItems = 256

// BatchItemRequest is one operation in a batch: the registry op name
// and its request body, verbatim.
type BatchItemRequest struct {
	Op      string          `json:"op"`
	Request json.RawMessage `json:"request"`
}

// BatchRequest is the POST /v1/batch envelope.
type BatchRequest struct {
	Items []BatchItemRequest `json:"items"`
}

// BatchItemResponse is one item's outcome. Status is the HTTP status
// the standalone endpoint would have answered; Response carries the
// byte-identical standalone body on success, Error the message
// otherwise. Cache is the item's cache outcome
// (hit/miss/coalesced/stale/peer) and Model the canonical backend that
// answered, both mirroring the standalone response headers.
type BatchItemResponse struct {
	Op       string          `json:"op"`
	Status   int             `json:"status"`
	Cache    string          `json:"cache,omitempty"`
	Model    string          `json:"model,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// BatchResponse is the batch envelope: items in request order plus the
// ok/failed tally.
type BatchResponse struct {
	Items  []BatchItemResponse `json:"items"`
	OK     int                 `json:"ok"`
	Failed int                 `json:"failed"`
}

// batch is the writer for /v1/batch: it decodes the envelope and
// prepares every item up front — decode once, before any evaluation —
// so validation failures are itemized without costing a gate slot. ops
// resolves an item's op field.
func batch(ops map[string]engine.Op) prepareFunc {
	return func(body []byte, env engine.Env) (respondFunc, error) {
		var req BatchRequest
		if err := engine.DecodeStrict(body, &req); err != nil {
			return nil, err
		}
		if len(req.Items) == 0 {
			return nil, badRequest("batch needs at least one item")
		}
		if len(req.Items) > maxBatchItems {
			return nil, badRequest("batch has %d items, limit %d: split the request", len(req.Items), maxBatchItems)
		}
		items := make([]BatchItemResponse, len(req.Items))
		preps := make([]batchPrep, len(req.Items))
		for i, it := range req.Items {
			items[i].Op = it.Op
			op, ok := ops[it.Op]
			if !ok {
				items[i].Status = http.StatusBadRequest
				items[i].Error = "unknown op " + strconv.Quote(it.Op)
				continue
			}
			meta := engine.Meta{}
			key, eval, err := op.Prepare(it.Request, engine.Env{Workers: env.Workers, Meta: &meta})
			items[i].Model = meta.Model
			if err != nil {
				items[i].fail(err)
				continue
			}
			preps[i] = batchPrep{key: key, eval: eval}
		}
		return func(x *exchange) error {
			x.s.handleBatch(x, items, preps)
			return nil
		}, nil
	}
}

// batchPrep is one prepared item: its cache key and evaluation, or a
// nil eval when the item already failed validation.
type batchPrep struct {
	key  string
	eval func(context.Context) ([]byte, error)
}

// handleBatch evaluates the prepared items as buffered lookups sharing
// the exchange's one admission grant, fanned out through the bounded
// pool, and writes the envelope. Errors never propagate to ForEach —
// each item keeps its own — so one failing item cannot cancel its
// siblings. The fan-out closure lives in a method of this name because
// perfbench's CPU-profile attribution (perfbench/profile.go) recognizes
// batch workers by it.
func (s *Server) handleBatch(x *exchange, items []BatchItemResponse, preps []batchPrep) {
	par.ForEach(x.ctx, len(items), s.cfg.Workers, func(ctx context.Context, i int) error {
		if preps[i].eval == nil {
			return nil // already itemized as an error
		}
		resp, outcome, err := x.lookup(items[i].Op, preps[i].key, preps[i].eval)
		if err != nil {
			items[i].fail(err)
			return nil
		}
		items[i].Status = http.StatusOK
		items[i].Cache = outcome.String()
		items[i].Response = resp
		return nil
	})
	out := BatchResponse{Items: items}
	for i := range items {
		if items[i].Status == http.StatusOK {
			out.OK++
		} else {
			out.Failed++
		}
	}
	encode := telemetry.StartSpan(x.ctx, stageEncode)
	x.w.Header().Set("Content-Type", "application/json")
	s.responses.ok.Add(1)
	json.NewEncoder(x.w).Encode(out)
	encode.End()
}

// fail records an item's failure exactly as the standalone endpoint
// would have answered it.
func (it *BatchItemResponse) fail(err error) {
	ae := classify(err)
	it.Status, it.Error = ae.Status, ae.Message
}
