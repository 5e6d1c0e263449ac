package federation

// The engine.Shard surface of RemoteShard, one wire call per method;
// remote.go holds the transport (attempts, retries, failure taxonomy)
// they all go through.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/sim"
	"schedsearch/internal/wire"
)

// Job fetches one job's status in a single attempt: a 404 is the
// shard's answer "no such job" (false, nil error), and any other
// failure is an error — the router then knows it could not ask.
func (rs *RemoteShard) Job(id int) (engine.JobStatus, bool, error) {
	var jr wire.JobResponse
	err := rs.once(http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), nil, jsonInto(&jr), id)
	if err == nil {
		return statusFromResponse(jr), true, nil
	}
	var ae *apiError
	if errors.As(err, &ae) {
		if ae.Status == http.StatusNotFound {
			return engine.JobStatus{}, false, nil
		}
		return engine.JobStatus{}, false, mapAPIError(ae)
	}
	return engine.JobStatus{}, false, err
}

// statusFromResponse reconstructs an engine.JobStatus from the public
// job schema.
func statusFromResponse(jr wire.JobResponse) engine.JobStatus {
	st := engine.JobStatus{
		Job: job.Job{
			ID: jr.ID, Submit: jr.SubmitS, Nodes: jr.Nodes,
			Runtime: jr.RuntimeS, Request: jr.RequestS, User: jr.User,
		},
		Estimate: jr.EstimateS,
		NodeIDs:  jr.NodeIDs,
	}
	switch jr.State {
	case engine.StateRunning.String():
		st.State = engine.StateRunning
	case engine.StateDone.String():
		st.State = engine.StateDone
	default:
		st.State = engine.StateWaiting
	}
	if jr.StartS != nil {
		st.Start = *jr.StartS
	}
	if jr.EndS != nil {
		st.End = *jr.EndS
	}
	return st
}

// SubmitJob admits a job with a caller-assigned ID on the shard (the
// shard stamps the submit time from its own clock).
func (rs *RemoteShard) SubmitJob(j job.Job) error {
	req := wire.SubmitRequest{ID: j.ID, Nodes: j.Nodes, RuntimeS: j.Runtime, RequestS: j.Request, User: j.User}
	return rs.postJobVerified("/v1/jobs", wire.AppendSubmit(nil, &req), j.ID)
}

// Admit admits a migrated job preserving its ID and submit time.
func (rs *RemoteShard) Admit(j job.Job) error {
	return rs.postJobVerified("/v1/shard/admit", jsonBody(wire.JobToWire(j)), j.ID)
}

// Withdraw removes a still-queued job from the shard and returns it.
// The shard's withdraw tombstone makes retries idempotent: if the
// original landed and only the acknowledgment was lost, the retry
// returns the same job instead of failing.
func (rs *RemoteShard) Withdraw(id int) (job.Job, error) {
	var resp wire.WithdrawResponse
	if err := rs.do(http.MethodPost, "/v1/shard/withdraw", jsonBody(wire.WithdrawRequest{ID: id}), jsonInto(&resp), id, nil); err != nil {
		return job.Job{}, err
	}
	return resp.Job.ToJob(), nil
}

// Queue returns the shard's waiting queue in arrival order.
func (rs *RemoteShard) Queue() ([]engine.JobStatus, error) {
	var qr wire.QueueResponse
	if err := rs.get("/v1/queue", jsonInto(&qr)); err != nil {
		return nil, err
	}
	out := make([]engine.JobStatus, len(qr.Jobs))
	for i, jr := range qr.Jobs {
		out[i] = statusFromResponse(jr)
	}
	return out, nil
}

// Machine returns the shard's occupancy snapshot.
func (rs *RemoteShard) Machine() (engine.Machine, error) {
	var mr wire.MachineResponse
	if err := rs.get("/v1/machine", jsonInto(&mr)); err != nil {
		return engine.Machine{}, err
	}
	m := engine.Machine{
		Now: mr.NowS, Capacity: mr.Capacity, FreeNodes: mr.FreeNodes,
		Running: make([]sim.RunningJob, len(mr.Running)),
	}
	for i, rj := range mr.Running {
		m.Running[i] = sim.RunningJob{
			ID: rj.ID, Nodes: rj.Nodes, User: rj.User,
			Start: rj.StartS, PredictedEnd: rj.PredictedEndS,
		}
	}
	return m, nil
}

// Load returns the shard's occupancy summary in a single attempt (no
// retries): the router calls it whenever its cached answer's window has
// closed or the shard is dark, and keeps the last answer itself.
func (rs *RemoteShard) Load() (engine.Load, error) {
	var lr wire.LoadResponse
	if err := rs.once(http.MethodGet, "/v1/shard/load", nil, loadInto(&lr), 0); err != nil {
		return engine.Load{}, err
	}
	return engine.Load(lr), nil // the wire type is engine.Load with JSON tags
}

// Metrics returns the shard's running report; when unreachable, the
// last-known report (a shard daemon that exited after its drain keeps
// its final numbers) or, with nothing cached, a minimal report
// carrying the wire error.
func (rs *RemoteShard) Metrics() engine.Metrics {
	var m engine.Metrics
	if err := rs.get("/v1/metrics", jsonInto(&m)); err != nil {
		rs.mu.Lock()
		defer rs.mu.Unlock()
		if rs.haveMetrics {
			return rs.lastMetrics
		}
		return engine.Metrics{Error: err.Error()}
	}
	rs.mu.Lock()
	rs.lastMetrics = m
	rs.haveMetrics = true
	if m.Error != "" && rs.remoteFatal == nil {
		rs.remoteFatal = fmt.Errorf("remote shard %s: %s", rs.base, m.Error)
	}
	rs.mu.Unlock()
	return m
}

// Records returns the shard's completion records (shard-local node
// IDs); nil when unreachable.
func (rs *RemoteShard) Records() []sim.Record {
	var resp wire.RecordsResponse
	if err := rs.get("/v1/shard/records", jsonInto(&resp)); err != nil {
		return nil
	}
	out := make([]sim.Record, len(resp.Records))
	for i, wr := range resp.Records {
		out[i] = sim.Record{
			Job: wr.Job.ToJob(), Start: wr.StartS, End: wr.EndS,
			NodeIDs: wr.NodeIDs, Measured: wr.Measured,
		}
	}
	return out
}

// Drain asks the shard to stop admitting and waits (polling) until its
// backlog is empty or ctx is done. A shard daemon exits by itself once
// its drain completes, so a connection refused after the drain was
// acknowledged means done-and-gone, not failure — without this, the
// poll would chase a process that has already finished everything it
// was asked to.
func (rs *RemoteShard) Drain(ctx context.Context) error {
	if err := rs.once(http.MethodPost, "/v1/drain", nil, nil, 0); err != nil {
		var ae *apiError
		if errors.As(err, &ae) {
			return mapAPIError(ae)
		}
		return fmt.Errorf("%w: drain: %v", ErrUnreachable, err)
	}
	for {
		var m engine.Metrics
		err := rs.once(http.MethodGet, "/v1/metrics", nil, jsonInto(&m), 0)
		if err == nil {
			rs.mu.Lock()
			rs.lastMetrics = m
			rs.haveMetrics = true
			rs.mu.Unlock()
			if m.Jobs.Waiting == 0 && m.Jobs.Running == 0 {
				return nil
			}
		} else if isDialError(err) {
			// The shard accepted the drain and has since stopped
			// listening: a drained schedd only exits once its machine is
			// empty.
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		rs.sleep(20 * time.Millisecond)
	}
}

// Err returns a fatal error the shard has reported over the wire, nil
// otherwise. Reachability is Healthy's business, not Err's — a
// partitioned shard is unhealthy, not failed.
func (rs *RemoteShard) Err() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.remoteFatal
}

var _ engine.Shard = (*RemoteShard)(nil)
