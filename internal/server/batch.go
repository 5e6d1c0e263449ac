package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"schedsearch/internal/engine"
	"schedsearch/internal/ingest"
	"schedsearch/internal/job"
	"schedsearch/internal/wire"
)

// maxBatchItems caps the jobs in one batched submit. It exists so a
// body full of `{}` items cannot buy 1 MiB worth of queue slots with
// one request; larger workloads split across requests.
const maxBatchItems = 4096

// retryAfterSeconds is the Retry-After hint attached to backpressure
// rejections: the accept queue drains in milliseconds, so the shortest
// expressible delay is honest.
const retryAfterSeconds = "1"

// BatchItemResult is one item's outcome in a BatchResponse. Status is
// the HTTP status the item would have received as a single submit
// (201, 202, 400, 409, 429, 503), so clients reuse their single-submit
// error handling per item; a 202 item carries its job's ID.
type BatchItemResult struct {
	Index  int    `json:"index"`
	ID     int    `json:"id,omitempty"`
	Status int    `json:"status"`
	Code   string `json:"code,omitempty"`
	Error  string `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/jobs body for an array request: the
// batch itself succeeds (HTTP 200) even when individual items were
// rejected — one bad job does not reject its neighbors. Accepted counts
// the 201 and 202 items.
type BatchResponse struct {
	Accepted int               `json:"accepted"`
	Rejected int               `json:"rejected"`
	Items    []BatchItemResult `json:"items"`
}

// submitStatus maps an admission error to its HTTP status and stable
// error code; the single, the batched and the shard-admit path use it.
// A front whose shards cannot be reached refuses with 503, since the
// job is good and a retry may find the shard back.
// An error of no known kind is the job's fault only while the backend is
// alive: a backend with a fatal error (a journal on a full device)
// refuses every job with that error, and telling the client its job is
// malformed would have it drop a good job instead of retrying elsewhere.
func (s *Server) submitStatus(err error) (int, string) {
	switch {
	case errors.Is(err, engine.ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, engine.ErrUnreachable):
		return http.StatusServiceUnavailable, "shard_unreachable"
	case errors.Is(err, engine.ErrUncertain):
		return http.StatusAccepted, "outcome_unknown"
	case errors.Is(err, engine.ErrDuplicateID):
		return http.StatusConflict, "duplicate_id"
	case errors.Is(err, ingest.ErrQuota):
		return http.StatusTooManyRequests, "quota_exceeded"
	case s.e.Err() != nil:
		return http.StatusInternalServerError, "backend_failed"
	default:
		return http.StatusBadRequest, "invalid_job"
	}
}

// writeRefusal writes a single submit's admission error, or the error
// of a read that a front could not ask a shard for (503); a refusal the
// client should retry (429, 503) carries the Retry-After hint, as the
// saturated queue's does, and a 202 the job's Location under id.
func (s *Server) writeRefusal(w http.ResponseWriter, id int, err error) {
	status, code := s.submitStatus(err)
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		w.Header().Set("Retry-After", retryAfterSeconds)
	case http.StatusAccepted:
		w.Header().Set("Location", fmt.Sprintf("/v1/jobs/%d", id))
	}
	writeError(w, status, code, err)
}

// batchScratch is one batched submit's reusable memory: the decoded
// jobs and the per-item results.
type batchScratch struct {
	jobs  []job.Job
	items []BatchItemResult
}

var batchScratches = sync.Pool{New: func() any { return new(batchScratch) }}

// submitBatch handles an array-bodied POST /v1/jobs through the ingest
// queue: per-item results, group-committed admission, explicit
// backpressure. body is the raw request payload (already bounded by
// MaxBytesReader).
func (s *Server) submitBatch(w http.ResponseWriter, body []byte, st submitTrace) {
	if s.ingest == nil {
		writeError(w, http.StatusBadRequest, "batch_unsupported",
			errors.New("batched submits need the ingest queue (run with -ingest-pending > 0)"))
		return
	}
	sc := batchScratches.Get().(*batchScratch)
	defer func() {
		// A body of a million {} items must not pin its memory.
		if cap(sc.jobs) <= maxBatchItems {
			batchScratches.Put(sc)
		}
	}()
	jobs, err := wire.DecodeJobs(sc.jobs, body)
	sc.jobs = jobs
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_json", err)
		return
	}
	if len(jobs) == 0 {
		writeError(w, http.StatusBadRequest, "empty_batch", errors.New("batch holds no jobs"))
		return
	}
	if len(jobs) > maxBatchItems {
		writeError(w, http.StatusRequestEntityTooLarge, "batch_too_large",
			fmt.Errorf("batch of %d jobs exceeds the %d-item cap", len(jobs), maxBatchItems))
		return
	}
	// Items that fail the cheap checks are resolved here; the rest move
	// to the front of jobs, in order, and stay 201 until the queue says
	// otherwise.
	sc.items = slices.Grow(sc.items[:0], len(jobs))[:len(jobs)]
	items := sc.items
	live := jobs[:0]
	for i, j := range jobs {
		if j.ID < 0 {
			items[i] = BatchItemResult{
				Index: i, Status: http.StatusBadRequest, Code: "invalid_job",
				Error: fmt.Sprintf("invalid job ID %d", j.ID),
			}
			continue
		}
		items[i] = BatchItemResult{Index: i, Status: http.StatusCreated}
		live = append(live, j)
	}
	var results []ingest.ItemResult
	if len(live) > 0 {
		results, err = s.ingest.SubmitBatch(live)
		if err != nil {
			s.writeSaturated(w, err)
			return
		}
	}
	resp := BatchResponse{Items: items}
	k := 0
	for i := range items {
		it := &items[i]
		if it.Status == http.StatusCreated {
			if r := results[k]; r.Err != nil {
				status, code := s.submitStatus(r.Err)
				*it = BatchItemResult{Index: i, Status: status, Code: code, Error: r.Err.Error()}
				if status == http.StatusAccepted {
					it.ID = max(r.ID, live[k].ID) // the burned ID or the caller's
				}
			} else {
				s.bindSubmitTrace(&st, r.ID, k)
				it.ID = r.ID
			}
			k++
		}
		if it.Status < 300 {
			resp.Accepted++
		} else {
			resp.Rejected++
		}
	}
	writeAppended(w, http.StatusOK, func(b []byte) []byte { return appendBatchResponse(b, &resp) })
}

// appendBatchResponse appends resp as writeJSON writes it: indented by
// two spaces, an empty id, code and error omitted, a trailing newline.
func appendBatchResponse(b []byte, resp *BatchResponse) []byte {
	b = wire.AppendInt(b, "{\n  \"accepted\": ", resp.Accepted)
	b = wire.AppendInt(b, ",\n  \"rejected\": ", resp.Rejected)
	switch {
	case resp.Items == nil:
		b = append(b, ",\n  \"items\": null"...)
	case len(resp.Items) == 0:
		b = append(b, ",\n  \"items\": []"...)
	default:
		sep := ",\n  \"items\": [\n    {\n      \"index\": "
		for _, it := range resp.Items {
			b = wire.AppendInt(b, sep, it.Index)
			sep = "\n    },\n    {\n      \"index\": "
			if it.ID != 0 {
				b = wire.AppendInt(b, ",\n      \"id\": ", it.ID)
			}
			b = wire.AppendInt(b, ",\n      \"status\": ", it.Status)
			if it.Code != "" {
				b = wire.AppendString(b, ",\n      \"code\": ", it.Code)
			}
			if it.Error != "" {
				b = wire.AppendString(b, ",\n      \"error\": ", it.Error)
			}
		}
		b = append(b, "\n    }\n  ]"...)
	}
	return append(b, "\n}\n"...)
}

// writeSaturated renders a whole-request backpressure rejection: 503
// with a Retry-After hint. Nothing of the batch was queued.
func (s *Server) writeSaturated(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", retryAfterSeconds)
	code := "saturated"
	if errors.Is(err, ingest.ErrClosed) {
		code = "draining"
	}
	writeError(w, http.StatusServiceUnavailable, code, err)
}

// firstJSONByte returns the first non-whitespace byte of the body ('['
// selects the batch path).
func firstJSONByte(body []byte) byte {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) == 0 {
		return 0
	}
	return trimmed[0]
}

// HealthResponse is the GET /v1/healthz body.
type HealthResponse struct {
	OK bool `json:"ok"`
}

// ReadyResponse is the GET /v1/readyz body; Ready is false (and the
// status 503) while the backend drains, the accept queue is saturated,
// the backend has a fatal error (GET /v1/metrics carries it) or — on a
// federated router — any shard is unreachable or rebuilding.
// Shards carries the per-shard breakdown on federated backends so an
// operator (or orchestrator) can see which shard is holding readiness
// down.
type ReadyResponse struct {
	Ready     bool                 `json:"ready"`
	Draining  bool                 `json:"draining"`
	Saturated bool                 `json:"saturated"`
	Shards    []engine.ShardHealth `json:"shards,omitempty"`
}

// healthz is liveness: the process is up and serving.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{OK: true})
}

// readyz is readiness: 200 only while the daemon is admitting work, its
// backend is alive and every federated shard is reachable.
func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	resp := ReadyResponse{Draining: s.e.Draining()}
	if s.ingest != nil && !s.ingest.Ready() {
		resp.Saturated = true
	}
	allShardsHealthy := true
	if fb, ok := s.e.(FederationBackend); ok {
		resp.Shards = fb.ShardHealth()
		for _, sh := range resp.Shards {
			if !sh.Healthy {
				allShardsHealthy = false
			}
		}
	}
	resp.Ready = !resp.Draining && !resp.Saturated && allShardsHealthy && s.e.Err() == nil
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
