// Package env exposes the simulator as a step/observe/act environment
// — the gym-style export mirroring the deep-batch-scheduler
// environments: an external optimizer (RL, black-box search) observes
// queue and machine feature vectors, returns scheduling decisions, and
// is rewarded on the same uniform objective the search policies
// optimize, against the exact simulator the differential tests trust.
//
// The Env is built directly on sim.Stepper — the same step/apply
// primitives sim.Run loops over — so an agent that feeds back a native
// policy's own decisions reproduces that policy's schedule
// bit-identically by construction (the replay keystone pins this).
// cmd/schedenv serves the environment over a JSON-lines stdio
// protocol (see wire.go).
package env

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"schedsearch/internal/core"
	"schedsearch/internal/metrics"
	"schedsearch/internal/sim"
)

// Config describes one environment: the workload episode and the
// policy resolver backing "policy" actions.
type Config struct {
	// Input is the episode workload (a generated suite month, a replay,
	// anything sim.Run accepts).
	Input sim.Input
	// Label names the environment in results and errors.
	Label string
	// Resolve builds a named policy for Action kind "policy" (the
	// facade's ParsePolicy, typically). nil disables policy actions.
	Resolve func(name string) (sim.Policy, error)
}

// Env is one episode of the scheduling environment. Not goroutine-
// safe. Create with New, drive with Reset then Step.
type Env struct {
	cfg       Config
	st        *sim.Stepper
	cur       *sim.Snapshot
	seq       int64
	total     float64
	scorer    *core.PlanScorer
	policies  map[string]sim.Policy
	obs       Observation
	eval      core.OrderEvaluator
	startsBuf []int
	seen      []bool
}

// New builds the environment; call Reset to begin the episode.
func New(cfg Config) (*Env, error) {
	if cfg.Label == "" {
		cfg.Label = "env"
	}
	// Both lists start empty, not nil, so an idle machine or an empty
	// queue encodes as [] on every observation, the first included.
	return &Env{
		cfg:    cfg,
		scorer: core.NewPlanScorer(),
		obs:    Observation{Running: []RunningFeature{}, Queue: []QueueFeature{}},
	}, nil
}

// Reset (re)starts the episode from the beginning of the workload and
// returns the first observation. A nil observation with a nil error
// means the episode has no decision points at all (empty workload).
// Policy instances resolved by earlier episodes are discarded, so
// every episode is bit-reproducible from the input alone.
func (e *Env) Reset() (*Observation, error) {
	st, err := sim.NewStepper(e.cfg.Input, e.cfg.Label)
	if err != nil {
		return nil, err
	}
	e.st = st
	e.cur = nil
	e.seq = 0
	e.total = 0
	e.policies = nil
	snap, err := st.Next()
	if err != nil {
		return nil, err
	}
	if snap == nil {
		return nil, nil
	}
	e.cur = snap
	return e.observe(snap), nil
}

// Step commits the action for the pending observation, advances to the
// next decision point, and returns the next observation, the reward of
// this action (negated plan score — higher is better), and whether the
// episode completed (obs is nil when done). Invalid actions (bad
// indices, unknown policy, wire-level infeasibility) return an error
// WITHOUT consuming the decision — the caller may retry; simulator-
// level errors poison the episode.
func (e *Env) Step(a Action) (obs *Observation, reward float64, done bool, err error) {
	if e.st == nil {
		return nil, 0, false, fmt.Errorf("env: Step before Reset")
	}
	if e.cur == nil {
		return nil, 0, true, fmt.Errorf("env: Step on a completed episode")
	}
	starts, err := e.resolve(a)
	if err != nil {
		return nil, 0, false, err
	}
	reward = -e.scorer.Scalar(e.scorer.Score(e.cur, starts))
	if _, err := e.st.Apply(starts); err != nil {
		e.cur = nil
		return nil, 0, false, err
	}
	e.total += reward
	snap, err := e.st.Next()
	if err != nil {
		e.cur = nil
		return nil, 0, false, err
	}
	if snap == nil {
		e.cur = nil
		return nil, reward, true, nil
	}
	e.cur = snap
	return e.observe(snap), reward, false, nil
}

// Result returns the completed episode's simulation result (nil until
// Step reported done).
func (e *Env) Result() *sim.Result {
	if e.st == nil {
		return nil
	}
	return e.st.Result()
}

// TotalReward is the summed reward of the episode so far.
func (e *Env) TotalReward() float64 { return e.total }

// Decisions is the number of decision points surfaced so far.
func (e *Env) Decisions() int {
	if e.st == nil {
		return 0
	}
	return e.st.Decisions()
}

func (e *Env) observe(snap *sim.Snapshot) *Observation {
	e.seq++
	o := &e.obs
	o.Seq = e.seq
	o.NowS = int64(snap.Now)
	o.Capacity = snap.Capacity
	o.FreeNodes = snap.FreeNodes
	o.Running = o.Running[:0]
	for _, r := range snap.Running {
		rem := int64(r.PredictedEnd - snap.Now)
		if rem < 1 {
			rem = 1
		}
		o.Running = append(o.Running, RunningFeature{
			JobID: r.ID, User: r.User, Nodes: r.Nodes,
			StartS: int64(r.Start), RemainingS: rem,
		})
	}
	o.Queue = o.Queue[:0]
	for _, w := range snap.Queue {
		o.Queue = append(o.Queue, QueueFeature{
			QueuePos: w.QueuePos, JobID: w.Job.ID, User: w.Job.User,
			Nodes:     w.Job.Nodes,
			EstimateS: int64(w.Estimate),
			RequestS:  int64(w.Job.Request),
			WaitS:     int64(snap.Now - w.Job.Submit),
		})
	}
	return o
}

// resolve turns an action into QueuePos starts for the pending
// snapshot, validating at the wire level so bad actions never reach
// (and poison) the ledger.
func (e *Env) resolve(a Action) ([]int, error) {
	snap := e.cur
	n := len(snap.Queue)
	switch a.Kind {
	case "start":
		e.seen = core.Resize(e.seen, n)
		width := 0
		for _, qi := range a.Start {
			if qi < 0 || qi >= n {
				return nil, fmt.Errorf("env: start index %d out of range [0,%d)", qi, n)
			}
			if e.seen[qi] {
				return nil, fmt.Errorf("env: duplicate start index %d", qi)
			}
			e.seen[qi] = true
			width += snap.Queue[qi].Job.Nodes
		}
		if width > snap.FreeNodes {
			return nil, fmt.Errorf("env: starts need %d nodes, only %d free", width, snap.FreeNodes)
		}
		return append(e.startsBuf[:0], a.Start...), nil
	case "order":
		if len(a.Order) != n {
			return nil, fmt.Errorf("env: order has %d entries for a queue of %d", len(a.Order), n)
		}
		e.seen = core.Resize(e.seen, n)
		for _, qi := range a.Order {
			if qi < 0 || qi >= n || e.seen[qi] {
				return nil, fmt.Errorf("env: order is not a permutation of [0,%d)", n)
			}
			e.seen[qi] = true
		}
		return e.orderStarts(snap, a.Order), nil
	case "policy":
		if e.cfg.Resolve == nil {
			return nil, fmt.Errorf("env: policy actions are not enabled")
		}
		p, ok := e.policies[a.Policy]
		if !ok {
			var err error
			p, err = e.cfg.Resolve(a.Policy)
			if err != nil {
				return nil, fmt.Errorf("env: %w", err)
			}
			if e.policies == nil {
				e.policies = make(map[string]sim.Policy)
			}
			e.policies[a.Policy] = p
		}
		return append(e.startsBuf[:0], p.Decide(snap)...), nil
	default:
		return nil, fmt.Errorf("env: unknown action kind %q (want start, order or policy)", a.Kind)
	}
}

// orderStarts evaluates a full queue ordering the way the search
// policies commit one (core.OrderEvaluator): each job placed at its
// earliest fit in order, and the jobs whose placement lands at now
// start now, in the order given.
func (e *Env) orderStarts(snap *sim.Snapshot, order []int) []int {
	e.eval.Reset(snap)
	// Only the start-now marks are needed; the plan's cost is not.
	_, startNow := e.eval.Eval(snap.Queue, order, core.HierarchicalCost, 0)
	starts := e.startsBuf[:0]
	for _, qi := range order {
		if startNow[qi] {
			starts = append(starts, qi)
		}
	}
	e.startsBuf = starts
	return starts
}

// ServeConfig configures the JSON-lines stdio driver.
type ServeConfig struct {
	// NewInput builds a fresh episode workload for each reset.
	NewInput func() (sim.Input, error)
	// Resolve backs "policy" actions.
	Resolve func(name string) (sim.Policy, error)
	// Label names the environment in the hello line.
	Label string
}

// Serve speaks the wire protocol over r/w: hello first, then one JSON
// response line per request line (reset → observe, act → observe or
// done, close → return). Malformed or out-of-protocol requests get an
// error line and the session continues; episode-poisoning simulator
// errors also emit an error line (reset recovers). Returns on close,
// EOF, or a transport error.
func Serve(cfg ServeConfig, r io.Reader, w io.Writer) error {
	in, err := cfg.NewInput()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(Hello{
		Type: "hello", SchemaVersion: SchemaVersion,
		Capacity: in.Capacity, Jobs: len(in.Jobs), Label: cfg.Label,
	}); err != nil {
		return err
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var e *Env         // current episode (nil before first reset / after poison)
	inputReady := true // `in` holds an unused episode input
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			if err := enc.Encode(ErrorMsg{Type: "error", Error: "malformed request: " + err.Error()}); err != nil {
				return err
			}
			continue
		}
		switch req.Type {
		case "close":
			return nil
		case "reset":
			if !inputReady {
				fresh, err := cfg.NewInput()
				if err != nil {
					return err
				}
				in = fresh
			}
			inputReady = false
			env, err := New(Config{Input: in, Label: cfg.Label, Resolve: cfg.Resolve})
			if err != nil {
				return err
			}
			obs, err := env.Reset()
			if err != nil {
				if err := enc.Encode(ErrorMsg{Type: "error", Error: err.Error()}); err != nil {
					return err
				}
				continue
			}
			if obs == nil {
				if err := enc.Encode(DoneMsg{Type: "done"}); err != nil {
					return err
				}
				continue
			}
			e = env
			if err := enc.Encode(ObserveMsg{Type: "observe", Observation: *obs}); err != nil {
				return err
			}
		case "act":
			if e == nil {
				if err := enc.Encode(ErrorMsg{Type: "error", Error: "no active episode (send reset)"}); err != nil {
					return err
				}
				continue
			}
			obs, reward, done, err := e.Step(req.Action)
			if err != nil {
				poisoned := e.cur == nil
				if poisoned {
					e = nil
				}
				if err := enc.Encode(ErrorMsg{Type: "error", Error: err.Error()}); err != nil {
					return err
				}
				continue
			}
			if done {
				res := e.Result()
				msg := DoneMsg{
					Type: "done", Reward: reward, TotalReward: e.TotalReward(),
					Decisions: e.Decisions(), Jobs: len(res.Records),
					Summary: metrics.Summarize(res),
				}
				e = nil
				if err := enc.Encode(msg); err != nil {
					return err
				}
				continue
			}
			if err := enc.Encode(ObserveMsg{Type: "observe", Reward: reward, Observation: *obs}); err != nil {
				return err
			}
		default:
			if err := enc.Encode(ErrorMsg{Type: "error", Error: fmt.Sprintf("unknown request type %q", req.Type)}); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}
