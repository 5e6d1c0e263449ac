package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"schedsearch/internal/job"
	"schedsearch/internal/sim"
	"schedsearch/internal/stats"
	"schedsearch/internal/wire"
	"schedsearch/internal/workload"
)

// monthInput is one suite month turned into a simulation input.
type monthInput struct {
	Label string
	In    sim.Input
}

// suiteSeed generates the ten-month suite. It is fixed: the suite is the
// paper's workload, and redrawing its job population per benchmark seed
// moved bsld_vs_fcfs by 15 % between seeds at the sizes a ten-second
// run affords, which no bound could then resolve.
const suiteSeed = 1

// arrivalJitter is the most, in seconds, the benchmark seed delays one
// arrival. About a tenth of the mean interarrival time, it reorders
// neighbouring arrivals and shifts every backfill window, so schedules
// of two seeds diverge within simulated hours, while the job population
// — and with it the amount of work — stays the same.
const arrivalJitter = 60

// suiteState is what set-up builds for the workloads that replay suite
// months.
type suiteState struct {
	Months []monthInput
	// GenMs and InputMs are the workload layer's metrics.
	GenMs, InputMs float64
	// Bodies are the encoded POST bodies of every month's jobs
	// (serve_month only).
	Bodies [][][]byte
}

func (st *suiteState) jobs() int {
	n := 0
	for _, m := range st.Months {
		n += len(m.In.Jobs)
	}
	return n
}

func (st *suiteState) report(res *result) {
	res.set("workload.suite_gen_ms", st.GenMs)
	res.set("workload.input_ms", st.InputMs)
}

// suiteInputs generates the ten-month suite, builds the inputs of the
// named months and perturbs every arrival with the seed.
func suiteInputs(seed uint64, scale float64, labels []string, opt workload.SimOptions) (*suiteState, error) {
	st := &suiteState{}
	t0 := time.Now()
	suite := workload.NewSuite(workload.Config{Seed: suiteSeed, JobScale: scale})
	st.GenMs = msSince(t0)
	t0 = time.Now()
	for li, label := range labels {
		in, _, err := suite.Input(label, opt)
		if err != nil {
			return nil, err
		}
		rng := stats.NewRNG(seed, uint64(2000+li))
		for i := range in.Jobs {
			in.Jobs[i].Submit += job.Time(rng.IntN(arrivalJitter + 1))
		}
		sort.Stable(job.BySubmit(in.Jobs))
		st.Months = append(st.Months, monthInput{Label: label, In: in})
	}
	st.InputMs = msSince(t0)
	return st, nil
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) / 1e6 }

// decisionSnapshot builds a contended decision point in the shape
// cmd/searchbench uses — a 128-node machine, 30 running jobs holding
// 100 nodes with staggered predicted ends, depth queued jobs of mixed
// widths and estimates — with every arithmetic stride offset by the
// seed and the variant, so each (seed, variant) is a different tree.
func decisionSnapshot(depth int, seed uint64, variant int) *sim.Snapshot {
	off := int((seed*131 + uint64(variant)*17) % 9973)
	snap := &sim.Snapshot{Now: 100000, Capacity: 128, FreeNodes: 128}
	used := 0
	for i := 0; i < 30 && used < 100; i++ {
		k := i + off
		n := 1 + (k*7)%8
		if used+n > 100 {
			n = 100 - used
		}
		used += n
		snap.Running = append(snap.Running, sim.RunningJob{
			ID: 1000 + i, Nodes: n, Start: 0,
			PredictedEnd: snap.Now + job.Duration(300+k*977%21600),
		})
	}
	snap.FreeNodes = 128 - used
	for i := 0; i < depth; i++ {
		k := i + off
		est := job.Duration(300 + (k*2311)%43200)
		snap.Queue = append(snap.Queue, sim.WaitingJob{
			Job: job.Job{
				ID:      i + 1,
				Submit:  snap.Now - job.Time(60+(k*3571)%36000),
				Nodes:   1 + (k*13)%64,
				Runtime: est, Request: est,
			},
			Estimate: est,
			QueuePos: i,
		})
	}
	return snap
}

// stormUsers is the user-ID space storm submissions are drawn from;
// quota buckets are provisioned lazily, so memory tracks active users.
const stormUsers = 1_000_000

// stormJobs draws n ID-less submissions for one storm client.
func stormJobs(seed uint64, client, n int) []job.Job {
	rng := stats.NewRNG(seed, uint64(1000+client))
	jobs := make([]job.Job, n)
	for i := range jobs {
		rt := job.Duration(300 + rng.IntN(14400))
		jobs[i] = job.Job{
			Nodes:   1 + rng.IntN(64),
			Runtime: rt,
			Request: rt,
			User:    rng.IntN(stormUsers),
		}
	}
	return jobs
}

// encodeBatches splits jobs into array bodies of batch submissions,
// encoded before the timed section: building the request is the
// client's work, not the system's.
func encodeBatches(jobs []job.Job, batch int) ([][]byte, error) {
	var bodies [][]byte
	for lo := 0; lo < len(jobs); lo += batch {
		hi := lo + batch
		if hi > len(jobs) {
			hi = len(jobs)
		}
		reqs := make([]wire.SubmitRequest, 0, hi-lo)
		for _, j := range jobs[lo:hi] {
			reqs = append(reqs, submitRequest(j))
		}
		b, err := json.Marshal(reqs)
		if err != nil {
			return nil, fmt.Errorf("encode batch: %w", err)
		}
		bodies = append(bodies, b)
	}
	return bodies, nil
}

func submitRequest(j job.Job) wire.SubmitRequest {
	return wire.SubmitRequest{ID: j.ID, Nodes: j.Nodes, RuntimeS: j.Runtime, RequestS: j.Request, User: j.User}
}
