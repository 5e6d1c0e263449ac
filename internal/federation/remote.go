package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"schedsearch/internal/engine"
	"schedsearch/internal/obs"
	"schedsearch/internal/wire"
)

// ErrUnreachable is engine.ErrUnreachable: the request certainly never
// reached a shard. The router's degraded mode reroutes submissions on
// it, and the server answers it 503.
var ErrUnreachable = engine.ErrUnreachable

// ErrUncertain is engine.ErrUncertain (timeout or connection loss after
// the request was sent, retries exhausted). Mutations failing this way
// are parked for reconciliation, never blindly redirected.
var ErrUncertain = engine.ErrUncertain

// retryBackoff is the first retry's delay; it doubles per attempt.
const retryBackoff = 25 * time.Millisecond

// RemoteShardOptions tunes a RemoteShard's wire behavior.
type RemoteShardOptions struct {
	// Timeout bounds each HTTP call (default 5s).
	Timeout time.Duration
	// Retries is how many times a failed call is retried (default 2,
	// so 3 attempts total). Structured API errors are never retried —
	// only transport failures.
	Retries int
	// Sleep replaces time.Sleep between retries (tests and
	// virtual-clock harnesses pass a no-op).
	Sleep func(time.Duration)
	// Transport replaces the HTTP transport (fault injection).
	Transport http.RoundTripper
	// Logger receives structured retry/failure events on the wire paths
	// (default: discard). Job-scoped events carry the job's trace ID
	// when a Tracer is attached and the job is bound.
	Logger *slog.Logger
	// Tracer, when non-nil, stamps X-Schedsearch-Trace on every
	// job-scoped request whose job is bound in the tracer's registry,
	// propagating the trace across the process boundary.
	Tracer *obs.Tracer
}

// RemoteShard drives one out-of-process schedd shard through its HTTP
// API, implementing the same engine.Shard seam the router uses for
// in-process engines: submissions, withdraw/admit migration steps,
// load snapshots, records and metrics all cross the wire as JSON.
//
// Every call carries a per-call timeout. Mutations and the queue and
// machine reads retry with exponential backoff; Job and Load make one
// attempt. Failures are classified: a dial error means the request was
// never delivered (certain, safe to reroute), anything after the
// request may have been sent is uncertain — mutations then resolve the
// uncertainty by reading the shard back (submit/admit verify the job
// landed; withdraw retries against the shard's idempotent tombstone)
// and only report ErrUncertain once retries are exhausted with the
// shard still dark.
//
// A read that cannot reach the shard returns an error, never a guess:
// Job's false is the shard's own "no such job", and keeping a dark
// shard's last-known load is the router's choice, not the client's.
// Healthy is the error of the last call; the router skips unhealthy
// shards when placing work and readyz reports the per-shard breakdown.
// All methods are goroutine-safe.
type RemoteShard struct {
	base    string
	hc      *http.Client
	timeout time.Duration
	retries int
	sleep   func(time.Duration)
	log     *slog.Logger
	tracer  *obs.Tracer

	mu sync.Mutex
	// lastErr is the transport outcome of the most recent attempt (nil
	// after any response from the shard, including API errors).
	lastErr error
	// remoteFatal is a fatal error the shard itself reported via
	// metrics (engine.Metrics.Error).
	remoteFatal error
	// The last-known metrics, served when the shard is unreachable so a
	// front can report final metrics for shard daemons that exited after
	// a drain.
	lastMetrics engine.Metrics
	haveMetrics bool
}

// NewRemoteShard returns a client for the shard at baseURL (e.g.
// "http://127.0.0.1:8080").
func NewRemoteShard(baseURL string, opts RemoteShardOptions) *RemoteShard {
	if opts.Timeout <= 0 {
		opts.Timeout = 5 * time.Second
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = 2
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	tr := opts.Transport
	if tr == nil {
		tr = http.DefaultTransport
	}
	logger := opts.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	base := strings.TrimRight(baseURL, "/")
	return &RemoteShard{
		base:    base,
		hc:      &http.Client{Transport: tr},
		timeout: opts.Timeout,
		retries: opts.Retries,
		sleep:   opts.Sleep,
		log:     logger.With("shard", base),
		tracer:  opts.Tracer,
	}
}

// jobLogger scopes log to one job's events — id 0 means the call is
// about no particular job — with the job's trace attached when the
// tracer knows it.
func jobLogger(log *slog.Logger, tr *obs.Tracer, id int) *slog.Logger {
	if id == 0 {
		return log
	}
	log = log.With("job", id)
	if tc, ok := tr.Lookup(id); ok {
		log = log.With(obs.TraceAttr(tc))
	}
	return log
}

// Addr returns the shard's base URL.
func (rs *RemoteShard) Addr() string { return rs.base }

// Healthy returns nil when the last call reached the shard and the
// shard reports no fatal error; otherwise the blocking error.
func (rs *RemoteShard) Healthy() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.lastErr != nil {
		return rs.lastErr
	}
	return rs.remoteFatal
}

// apiError is a structured error body answered by the shard: the shard
// is alive and definitively rejected the request.
type apiError struct {
	Status int
	Code   string
	Msg    string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("remote shard: %d %s: %s", e.Status, e.Code, e.Msg)
}

// mapAPIError translates wire error codes back into the sentinel
// errors in-process shards return, so the router's error handling is
// transport-agnostic.
func mapAPIError(ae *apiError) error {
	switch ae.Code {
	case "duplicate_id":
		return fmt.Errorf("%w: %v", engine.ErrDuplicateID, ae)
	case "draining":
		return fmt.Errorf("%w (%v)", engine.ErrDraining, ae)
	case "not_queued", "unknown_job":
		return fmt.Errorf("%w: %v", engine.ErrNotQueued, ae)
	}
	return ae
}

// isDialError reports whether the transport failure happened before
// the request could have been delivered — the one class of failure
// where "it did not happen" is certain.
func isDialError(err error) bool {
	var oe *net.OpError
	return errors.As(err, &oe) && oe.Op == "dial"
}

// maxResponseBytes bounds response bodies the client will buffer; a
// hostile or corrupted shard cannot balloon the router's memory.
const maxResponseBytes = 64 << 20

// jsonBody encodes a rare message's request body: an integer-only wire
// type (WireJob, WithdrawRequest), which json.Marshal cannot refuse.
func jsonBody(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}

// jsonInto returns the decoder of a rare message's reply into out.
func jsonInto(out any) func([]byte) error {
	return func(data []byte) error { return json.Unmarshal(data, out) }
}

// loadInto returns the decoder of a load answer into lr.
func loadInto(lr *wire.LoadResponse) func([]byte) error {
	return func(data []byte) (err error) {
		*lr, err = wire.DecodeLoad(data)
		return err
	}
}

// once performs a single HTTP attempt, sending reqBody (none when nil)
// and handing a success reply's bytes to decode (ignored when nil). A
// returned *apiError means the shard answered; any other error is a
// transport failure. Health is updated either way. jobID, when
// non-zero, names the job the call is about; a bound trace for it rides
// along as X-Schedsearch-Trace.
func (rs *RemoteShard) once(method, path string, reqBody []byte, decode func([]byte) error, jobID int) error {
	var body io.Reader
	if reqBody != nil {
		body = bytes.NewReader(reqBody)
	}
	ctx, cancel := context.WithTimeout(context.Background(), rs.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, rs.base+path, body)
	if err != nil {
		return err
	}
	if reqBody != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Job 0 is never bound and a nil tracer knows no job: no header.
	if h := rs.tracer.Header(jobID); h != "" {
		req.Header.Set(obs.TraceHeader, h)
	}
	resp, err := rs.hc.Do(req)
	if err != nil {
		rs.mark(err)
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err == nil && len(data) > maxResponseBytes {
		err = fmt.Errorf("federation: %s %s: response exceeds %d bytes", method, path, maxResponseBytes)
	}
	// Any complete response proves the shard alive, even a rejection.
	rs.mark(err)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var er wire.ErrorResponse
		_ = json.Unmarshal(data, &er)
		if er.Error == "" {
			er.Error = strings.TrimSpace(string(data))
		}
		return &apiError{Status: resp.StatusCode, Code: er.Code, Msg: er.Error}
	}
	if decode != nil {
		if err := decode(data); err != nil {
			// A garbled success body: the operation's outcome on the
			// shard is fine, but the caller cannot use the answer.
			// Treated as a transport-class failure (retryable).
			return fmt.Errorf("federation: decode %s %s: %w", method, path, err)
		}
	}
	return nil
}

// mark records the transport outcome of an attempt for Healthy.
func (rs *RemoteShard) mark(err error) {
	rs.mu.Lock()
	rs.lastErr = err
	rs.mu.Unlock()
}

// do runs one logical call as up to 1+retries attempts with exponential
// backoff — the one retry loop every retried operation goes through. A
// structured API error ends it at once (the shard is alive and said
// no). When the attempts run out, the failure is classified: a read
// (GET) is always ErrUnreachable — nothing happened that a redirect
// could duplicate; a mutation is ErrUncertain if any attempt failed
// after the request may have been delivered, ErrUnreachable if every
// attempt died dialing.
//
// landed, when non-nil, is the per-attempt verification of a
// job-delivering POST: after an uncertain attempt the shard is read
// back before resending, and a duplicate-ID rejection following an
// uncertain attempt is checked the same way — jobLanded proves the
// original landed, which is success; jobAbsent leaves the rejection
// definitive. When that read-back cannot be made (jobUnknown) the 409
// may be this call's own first delivery answering its retry, so the
// call ends ErrUncertain: reporting ErrDuplicateID would free the router
// to admit the same ID on a second shard.
func (rs *RemoteShard) do(method, path string, reqBody []byte, decode func([]byte) error, id int, landed func() landing) error {
	mutation := method != http.MethodGet
	uncertain := false
	var lastErr error
attempts:
	for a := 0; a <= rs.retries; a++ {
		if a > 0 {
			rs.sleep(retryBackoff << (a - 1)) // doubling per retry
		}
		err := rs.once(method, path, reqBody, decode, id)
		if err == nil {
			return nil
		}
		var ae *apiError
		if errors.As(err, &ae) {
			if ae.Code == "duplicate_id" && uncertain && landed != nil {
				switch landed() {
				case jobLanded:
					return nil
				case jobUnknown:
					lastErr = err
					break attempts
				}
			}
			return mapAPIError(ae)
		}
		lastErr = err
		jobLogger(rs.log, rs.tracer, id).Debug("wire attempt failed", "method", method, "path", path, "attempt", a+1, "err", err)
		if mutation && !isDialError(err) {
			uncertain = true
			if landed != nil && landed() == jobLanded {
				return nil
			}
		}
	}
	log := jobLogger(rs.log, rs.tracer, id)
	what := method + " " + path
	if id != 0 {
		what = fmt.Sprintf("%s job %d", what, id)
	}
	if uncertain {
		log.Warn("request outcome unknown after retries", "call", what, "err", lastErr)
		return fmt.Errorf("%w: %s: %v", ErrUncertain, what, lastErr)
	}
	log.Warn("shard unreachable", "call", what, "err", lastErr)
	return fmt.Errorf("%w: %s: %v", ErrUnreachable, what, lastErr)
}

// get performs an idempotent GET with retries; exhaustion wraps
// ErrUnreachable.
func (rs *RemoteShard) get(path string, decode func([]byte) error) error {
	return rs.do(http.MethodGet, path, nil, decode, 0, nil)
}

// landing is what reading the shard back after a job-delivering POST
// learned: the lookup failing is not the shard answering "no such job".
type landing int

const (
	jobUnknown landing = iota // the shard could not be asked
	jobAbsent                 // the shard answered: no such job
	jobLanded
)

// postJobVerified delivers a job-admitting POST (SubmitJob or the
// migration Admit) with landed-verification (see do).
func (rs *RemoteShard) postJobVerified(path string, reqBody []byte, id int) error {
	return rs.do(http.MethodPost, path, reqBody, nil, id, func() landing {
		switch _, ok, err := rs.Job(id); {
		case err != nil:
			return jobUnknown
		case ok:
			return jobLanded
		}
		return jobAbsent
	})
}
