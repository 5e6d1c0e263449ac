package chaos

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"schedsearch/internal/core"
	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/policy"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

func fcfs() sim.Policy { return policy.FCFSBackfill() }
func lxf() sim.Policy  { return policy.LXFBackfill() }
func dds() sim.Policy  { return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 100) }

// TestFaultMatrix runs every fault class in isolation and in
// combination, across policies and fixed seeds, and requires the
// oracle invariants to hold in all of them (Run fails otherwise). This
// is the ISSUE's "≥ 6 distinct fault types with fixed seeds" suite.
func TestFaultMatrix(t *testing.T) {
	cases := []struct {
		name   string
		faults Fault
		pol    func() sim.Policy
	}{
		{"clock-jumps", FaultClockJumps, fcfs},
		{"burst-submits", FaultBurstSubmits, lxf},
		{"duplicate-ids", FaultDuplicateIDs, fcfs},
		{"reordered-submits", FaultReorderedSubmits, lxf},
		{"hostile-specs", FaultHostileSpecs, fcfs},
		{"policy-panic", FaultPolicyPanic, dds},
		{"policy-latency", FaultPolicyLatency, dds},
		{"crash-rebuild", FaultCrashRebuild, dds},
		{"everything-fcfs", AllFaults, fcfs},
		{"everything-search", AllFaults, dds},
	}
	for _, tc := range cases {
		for _, seed := range []uint64{1, 7} {
			tc, seed := tc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				res, err := Run(Config{Seed: seed, Faults: tc.faults, Policy: tc.pol})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Records) != len(res.Accepted) {
					t.Fatalf("%d records for %d accepted jobs", len(res.Records), len(res.Accepted))
				}
				if tc.faults&(FaultDuplicateIDs|FaultHostileSpecs) != 0 && res.Rejected == 0 {
					t.Error("injected bad submissions but none were rejected")
				}
				if tc.faults&FaultPolicyPanic != 0 && res.Panics == 0 {
					t.Error("panic injection enabled but no panics were recovered")
				}
				if tc.faults&FaultCrashRebuild != 0 && !res.Rebuilt {
					t.Error("crash-rebuild enabled but the engine was never rebuilt")
				}
			})
		}
	}
}

// recordFingerprint serializes everything a schedule determines.
func recordFingerprint(res *Result) string {
	out := fmt.Sprintf("rejected=%d panics=%d\n", res.Rejected, res.Panics)
	for _, r := range res.Records {
		out += fmt.Sprintf("job=%d submit=%d start=%d end=%d nodes=%v\n",
			r.Job.ID, r.Job.Submit, r.Start, r.End, r.NodeIDs)
	}
	return out
}

// TestDeterminism replays each fault mix with the same seed and
// requires bit-identical committed schedules, including under clock
// jumps, recovered panics and a mid-run crash.
func TestDeterminism(t *testing.T) {
	for _, faults := range []Fault{
		FaultClockJumps | FaultBurstSubmits,
		FaultPolicyPanic | FaultReorderedSubmits,
		AllFaults,
	} {
		faults := faults
		t.Run(faults.String(), func(t *testing.T) {
			cfg := Config{Seed: 11, Faults: faults, Policy: dds, Jobs: 90}
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if fa, fb := recordFingerprint(a), recordFingerprint(b); fa != fb {
				t.Fatalf("same seed, different schedules:\n--- run A ---\n%s--- run B ---\n%s", fa, fb)
			}
		})
	}
}

// TestCrashRebuildBitIdentical is the ISSUE's acceptance case: an
// injected mid-run crash, rebuilt from the committed event journal on
// the same clock, must commit exactly the schedule the uninterrupted
// engine commits — same starts, ends and concrete node IDs for every
// job. Policy panics are excluded (a restarted injector would panic on
// a different cadence by design); every other fault stays on.
func TestCrashRebuildBitIdentical(t *testing.T) {
	base := AllFaults &^ (FaultCrashRebuild | FaultPolicyPanic)
	for _, tc := range []struct {
		name string
		pol  func() sim.Policy
	}{
		{"FCFS-backfill", fcfs},
		{"LXF-backfill", lxf},
		{"DDS-lxf-dynB", dds},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			smooth, err := Run(Config{Seed: 23, Faults: base, Policy: tc.pol})
			if err != nil {
				t.Fatal(err)
			}
			crashed, err := Run(Config{Seed: 23, Faults: base | FaultCrashRebuild, Policy: tc.pol})
			if err != nil {
				t.Fatal(err)
			}
			if !crashed.Rebuilt {
				t.Fatal("crash was never injected")
			}
			fs, fc := recordFingerprint(smooth), recordFingerprint(crashed)
			if fs != fc {
				t.Fatalf("crash-rebuild diverged from the uninterrupted run:\n--- uninterrupted ---\n%s--- crashed ---\n%s", fs, fc)
			}
		})
	}
}

type nopPolicy struct{}

func (nopPolicy) Name() string               { return "nop" }
func (nopPolicy) Decide(*sim.Snapshot) []int { return nil }

// TestFlakyPolicyCadence pins the injector's determinism: the panic
// pattern depends only on the call count.
func TestFlakyPolicyCadence(t *testing.T) {
	p := &FlakyPolicy{Inner: nopPolicy{}, Panic: true}
	panics := 0
	for i := 0; i < 3*panicEvery; i++ {
		func() {
			defer func() {
				if recover() != nil {
					panics++
				}
			}()
			p.Decide(&sim.Snapshot{})
		}()
	}
	if panics != 3 {
		t.Fatalf("%d calls recovered %d panics, want 3", 3*panicEvery, panics)
	}
}

// TestConfigValidation covers the config seams.
func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Seed: 1}); err == nil {
		t.Fatal("Run without a policy must fail")
	}
	for _, tc := range []struct {
		f    Fault
		want string
	}{
		{0, "none"},
		{FaultClockJumps | FaultPolicyPanic, "clock-jumps+policy-panic"},
	} {
		if got := tc.f.String(); got != tc.want {
			t.Errorf("Fault(%#x).String() = %q, want %q", uint(tc.f), got, tc.want)
		}
	}
}

// TestSearchCountersSurviveWrapper: the engine reads search effort
// through core.SchedulerOf, so a scheduler under FlakyPolicy (here with
// no faults armed) must report exactly the bare scheduler's non-zero
// counters on the same replayed month instead of zeros.
func TestSearchCountersSurviveWrapper(t *testing.T) {
	in, _, err := workload.NewSuite(workload.Config{Seed: 3, JobScale: 0.05}).Input("7/03", workload.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counters := func(pol sim.Policy) engine.Counters {
		vc := engine.NewVirtualClock()
		e, err := engine.New(engine.Config{Capacity: in.Capacity, Policy: pol, Clock: vc})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range in.Jobs {
			j := j
			vc.AfterFunc(j.Submit, func() {
				if err := e.SubmitJob(j); err != nil {
					t.Errorf("submit job %d: %v", j.ID, err)
				}
			})
		}
		vc.Run()
		if err := e.Err(); err != nil {
			t.Fatal(err)
		}
		return e.Metrics().Engine
	}
	newDDS := func() *core.Scheduler {
		return core.New(core.DDS, core.HeuristicLXF, core.DynamicBound(), 200)
	}
	bare, wrapped := counters(newDDS()), counters(&FlakyPolicy{Inner: newDDS()})
	if bare.SearchNodes == 0 || bare.SearchLeaves == 0 || bare.BudgetHits == 0 {
		t.Fatalf("bare scheduler reports no search effort: %+v", bare)
	}
	if wrapped.SearchNodes != bare.SearchNodes || wrapped.SearchLeaves != bare.SearchLeaves ||
		wrapped.BudgetHits != bare.BudgetHits {
		t.Errorf("wrapped counters nodes=%d leaves=%d budget_hits=%d, bare nodes=%d leaves=%d budget_hits=%d",
			wrapped.SearchNodes, wrapped.SearchLeaves, wrapped.BudgetHits,
			bare.SearchNodes, bare.SearchLeaves, bare.BudgetHits)
	}
}

// TestSweep pins the conservation check every tier ends with: on a
// correct system no scenario loses a job, so nothing else would notice
// the sweep going lenient.
func TestSweep(t *testing.T) {
	status := map[int]engine.JobStatus{
		1: {Job: job.Job{ID: 1}, State: engine.StateDone},
		2: {Job: job.Job{ID: 2}, State: engine.StateDone},
		3: {Job: job.Job{ID: 3}, State: engine.StateRunning},
	}
	dark := map[int]bool{}
	lookup := func(id int) (engine.JobStatus, bool, error) {
		if dark[id] {
			return engine.JobStatus{}, false, engine.ErrUnreachable
		}
		st, ok := status[id]
		return st, ok, nil
	}
	never := func(int) bool { return false }
	if got, err := sweep(2, lookup, never); err != nil || len(got) != 2 || got[1].ID != 2 {
		t.Fatalf("two done jobs: %v, %v", got, err)
	}
	if _, err := sweep(3, lookup, never); err == nil || !strings.Contains(err.Error(), "job 3 still running") {
		t.Fatalf("an unfinished job passed the sweep: %v", err)
	}
	if _, err := sweep(3, lookup, func(int) bool { return true }); err == nil {
		t.Fatal("an excuse for absence excused an unfinished job")
	}
	status[3] = engine.JobStatus{Job: job.Job{ID: 3}, State: engine.StateDone}
	if _, err := sweep(4, lookup, never); err == nil || !strings.Contains(err.Error(), "job 4 lost") {
		t.Fatalf("a lost job passed the sweep: %v", err)
	}
	if got, err := sweep(4, lookup, func(id int) bool { return id == 4 }); err != nil || len(got) != 3 {
		t.Fatalf("an excused absence: %v, %v", got, err)
	}
	// A job that could not be looked up is not absent: no excuse covers it.
	dark[4] = true
	if _, err := sweep(4, lookup, func(id int) bool { return id == 4 }); !errors.Is(err, engine.ErrUnreachable) {
		t.Fatalf("an unanswered lookup passed the sweep as an excused absence: %v", err)
	}
}
