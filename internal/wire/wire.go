// Package wire holds the HTTP/JSON wire schema shared by the server
// (which produces and consumes these bodies in its handlers) and by
// federation.RemoteShard (which speaks the same schema as a client).
//
// It exists as its own leaf package so that the client side never has
// to import the server: internal/federation imports only this package.
// That keeps server tests free to import federation (and ingest tests
// free to import federation, which batches through the server) without
// creating an import cycle through the test binary. Router and shard
// processes can be different builds, so the schema is pinned by a
// golden test (testdata/schema.golden.json).
//
// It also holds the one hand-written JSON codec (codec.go): the
// messages that cross the wire once per job or more (the submit, its
// job answer and the shard's load answer) are decoded and encoded
// without reflection, byte for byte as encoding/json does, on both the
// server and the router side. The rarer messages use encoding/json.
//
// The package may import only leaf domain packages (internal/job);
// anything needing engine or sim types stays in internal/server.
package wire

import "schedsearch/internal/job"

// SubmitRequest is the POST /v1/jobs body.
type SubmitRequest struct {
	// ID optionally assigns the job ID (trace replay clients); 0 lets
	// the engine assign the next free one. A taken ID is a 409.
	ID int `json:"id"`
	// Nodes is the number of whole nodes requested.
	Nodes int `json:"nodes"`
	// RuntimeS is the actual runtime in seconds (the engine
	// self-completes the job after this long; a deployment against a
	// real resource manager would take completions from it instead).
	RuntimeS job.Duration `json:"runtime_s"`
	// RequestS is the user-requested runtime limit in seconds;
	// defaults to runtime_s.
	RequestS job.Duration `json:"request_s"`
	// User identifies the submitting user (optional).
	User int `json:"user"`
}

// JobResponse describes one job's current state.
type JobResponse struct {
	ID    int    `json:"id"`
	State string `json:"state"`
	Nodes int    `json:"nodes"`
	User  int    `json:"user"`

	SubmitS   job.Time     `json:"submit_s"`
	RuntimeS  job.Duration `json:"runtime_s"`
	RequestS  job.Duration `json:"request_s"`
	EstimateS job.Duration `json:"estimate_s,omitempty"`

	// StartS/EndS are set once known; WaitS is the wait so far for
	// waiting jobs and the final wait otherwise.
	StartS *job.Time `json:"start_s,omitempty"`
	EndS   *job.Time `json:"end_s,omitempty"`
	WaitS  job.Time  `json:"wait_s"`
	// BoundedSlowdown is set for completed jobs (the paper's measure).
	BoundedSlowdown *float64 `json:"bounded_slowdown,omitempty"`
	NodeIDs         []int    `json:"node_ids,omitempty"`
}

// QueueResponse is the GET /v1/queue body.
type QueueResponse struct {
	Length int           `json:"length"`
	Jobs   []JobResponse `json:"jobs"`
}

// MachineResponse is the GET /v1/machine body.
type MachineResponse struct {
	NowS      job.Time     `json:"now_s"`
	Capacity  int          `json:"capacity"`
	FreeNodes int          `json:"free_nodes"`
	Running   []RunningJob `json:"running"`
}

// RunningJob is one executing job in the machine snapshot.
type RunningJob struct {
	ID            int      `json:"id"`
	Nodes         int      `json:"nodes"`
	User          int      `json:"user"`
	StartS        job.Time `json:"start_s"`
	PredictedEndS job.Time `json:"predicted_end_s"`
}

// DrainResponse is the POST /v1/drain body.
type DrainResponse struct {
	Draining int `json:"draining"`
	Running  int `json:"running"`
}

// ErrorResponse is every error body: a human-readable message plus a
// stable machine-readable code clients can switch on.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// WireJob is job.Job on the wire (job.Job itself carries no JSON tags;
// the wire names follow the public API's submit_s/runtime_s style).
type WireJob struct {
	ID       int          `json:"id"`
	SubmitS  job.Time     `json:"submit_s"`
	Nodes    int          `json:"nodes"`
	RuntimeS job.Duration `json:"runtime_s"`
	RequestS job.Duration `json:"request_s"`
	User     int          `json:"user"`
}

// ToJob converts the wire form back to the domain job.
func (w WireJob) ToJob() job.Job {
	return job.Job{
		ID: w.ID, Submit: w.SubmitS, Nodes: w.Nodes,
		Runtime: w.RuntimeS, Request: w.RequestS, User: w.User,
	}
}

// JobToWire converts a domain job to its wire form.
func JobToWire(j job.Job) WireJob {
	return WireJob{
		ID: j.ID, SubmitS: j.Submit, Nodes: j.Nodes,
		RuntimeS: j.Runtime, RequestS: j.Request, User: j.User,
	}
}

// AdmitResponse is the POST /v1/shard/admit success body.
type AdmitResponse struct {
	ID int `json:"id"`
}

// WithdrawRequest is the POST /v1/shard/withdraw body.
type WithdrawRequest struct {
	ID int `json:"id"`
}

// WithdrawResponse is the POST /v1/shard/withdraw success body.
// Retried marks an idempotent replay: the original withdraw had
// already committed and the same job is returned from its tombstone.
type WithdrawResponse struct {
	Job     WireJob `json:"job"`
	Retried bool    `json:"retried,omitempty"`
}

// LoadResponse is the GET /v1/shard/load body (engine.Load on the
// wire, so the names match field for field). Now, Slope and StableUntil
// are the answer's exact window: until StableUntil on the shard's clock
// only remaining_node_sec moves, falling by Slope node-seconds per
// second. NextID is one past the largest job ID the shard has admitted.
type LoadResponse struct {
	Capacity         int      `json:"capacity"`
	FreeNodes        int      `json:"free_nodes"`
	Waiting          int      `json:"waiting"`
	Running          int      `json:"running"`
	QueuedNodeSec    int64    `json:"queued_node_sec"`
	RemainingNodeSec int64    `json:"remaining_node_sec"`
	MinQueuedNodeSec int64    `json:"min_queued_node_sec"`
	Now              job.Time `json:"now_s"`
	Slope            int      `json:"slope_nodes"`
	StableUntil      job.Time `json:"stable_until_s"`
	NextID           int      `json:"next_id"`
}

// WireRecord is sim.Record on the wire.
type WireRecord struct {
	Job      WireJob  `json:"job"`
	StartS   job.Time `json:"start_s"`
	EndS     job.Time `json:"end_s"`
	NodeIDs  []int    `json:"node_ids,omitempty"`
	Measured bool     `json:"measured"`
}

// RecordsResponse is the GET /v1/shard/records body.
type RecordsResponse struct {
	Records []WireRecord `json:"records"`
}
