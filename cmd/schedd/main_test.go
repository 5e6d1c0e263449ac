package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/obs"
)

// TestParseConfigRejects covers every flag combination the daemon
// cannot honour: each must come back as an error naming the offending
// flag, not as a silently ignored option.
func TestParseConfigRejects(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantSub string
	}{
		{"-shards 2 -join http://a:1", "-shards"},
		{"-join http://a:1 -rebalance 0", "-rebalance 0"},
		// -join is the one remote mode: the process supervisor is gone.
		{"-fanout 2", "flag provided but not defined: -fanout"},
		// A -join front runs no engine of its own, so the flags only a
		// shard daemon honours are refused rather than ignored.
		{"-join http://a:1 -policy LDS/fcfs/100h", "-policy"},
		{"-join http://a:1 -L 50", "-L"},
		{"-join http://a:1 -workers 2", "-workers"},
		{"-join http://a:1 -requested", "-requested"},
		{"-join http://a:1 -capacity 64", "-capacity"},
		{"-join http://a:1 -journal j", "-journal"},
		{"-join http://a:1 -group-commit 1", "-group-commit"},
		{"-join http://a:1 -compact-every 100", "-compact-every"},
		{"-policy BFS/lxf/dynB", "unknown search algorithm"},
		{"-policy meta(DDS/lxf/dynB,)", "empty member"},
		// Replay is schedsim's: the daemon has no replay flag left.
		{"-virtual", "-virtual"},
		{"-month 1/04", "-month"},
		{"-swf t.swf", "-swf"},
	} {
		_, err := parseConfig(strings.Fields(tc.args))
		if err == nil {
			t.Errorf("schedd %s: accepted", tc.args)
		} else if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("schedd %s: error %q does not mention %q", tc.args, err, tc.wantSub)
		}
	}
}

// TestParseConfigAccepts pins what the cross-checks must let through
// and what they derive: the shipped defaults and trimmed -join URLs.
func TestParseConfigAccepts(t *testing.T) {
	c, err := parseConfig(nil)
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if c.fed.remote() || c.fed.rebalance != 600 || c.addr != ":8080" ||
		c.ing.pending != 4096 || c.dur.group != 64 {
		t.Errorf("defaults parsed as %+v", c)
	}

	c, err = parseConfig(strings.Fields("-shards 4 -capacity 512 -rebalance 0 -speedup 50"))
	if err != nil {
		t.Fatalf("in-process federation: %v", err)
	}
	if c.fed.shards != 4 || c.capacity != 512 || c.fed.rebalance != 0 || c.speedup != 50 {
		t.Errorf("in-process federation parsed as %+v", c)
	}

	// The front's own flags (its clock, its pass, its accept queue)
	// pass the -join check.
	c, err = parseConfig([]string{"-join", " http://a:1, http://b:2 ,",
		"-speedup", "600", "-rebalance", "30", "-ingest-pending", "16", "-quota-rate", "0.5"})
	if err != nil {
		t.Fatalf("-join: %v", err)
	}
	if want := []string{"http://a:1", "http://b:2"}; !reflect.DeepEqual(c.fed.join, want) {
		t.Errorf("-join URLs %q, want %q", c.fed.join, want)
	}
	if c.speedup != 600 || c.fed.rebalance != 30 || c.ing.pending != 16 || c.ing.quotaRate != 0.5 {
		t.Errorf("-join front parsed as %+v", c)
	}
}

// TestCompactEveryWithoutJournal: -compact-every bounds the in-memory
// event tail of a daemon started without -journal (the default), bare
// engine and in-process shards alike, and folding the tail changes no
// metric of the run.
func TestCompactEveryWithoutJournal(t *testing.T) {
	const capacity, jobs, every = 64, 120, 32
	run := func(args string) (engine.Metrics, []engine.Counters) {
		t.Helper()
		c, err := parseConfig(strings.Fields(args))
		if err != nil {
			t.Fatalf("schedd %s: %v", args, err)
		}
		return runStack(t, c, capacity, jobs)
	}
	for _, mode := range []string{"-policy FCFS-backfill", "-policy FCFS-backfill -shards 2 -rebalance 0"} {
		full, fullPer := run(mode + " -compact-every 0")
		got, gotPer := run(fmt.Sprintf("%s -compact-every %d", mode, every))
		for i := range gotPer {
			// A submit, a start and an end per job: well past the bound.
			if fullPer[i].JournalTail < 3*jobs/int64(len(fullPer))/2 || fullPer[i].Compactions != 0 {
				t.Fatalf("schedd %s: uncompacted engine %d holds %d events after %d compactions",
					mode, i, fullPer[i].JournalTail, fullPer[i].Compactions)
			}
			// An engine folds at the first commit that finds `every` events,
			// and one commit adds a handful at most.
			if gotPer[i].Compactions == 0 || gotPer[i].JournalTail >= every+16 {
				t.Errorf("schedd %s -compact-every %d: engine %d journal_tail %d after %d compactions",
					mode, every, i, gotPer[i].JournalTail, gotPer[i].Compactions)
			}
		}
		if !reflect.DeepEqual(got.Summary, full.Summary) {
			t.Errorf("schedd %s: compaction changed the summary\n got %+v\nwant %+v", mode, got.Summary, full.Summary)
		}
	}
}

// runStack builds c's stack on a virtual clock, replays jobs synthetic
// jobs through it, and returns the whole-machine report and every
// engine's own counters (the router's report does not carry its shards'
// journal tails).
func runStack(t *testing.T, c config, capacity, jobs int) (engine.Metrics, []engine.Counters) {
	t.Helper()
	vc := engine.NewVirtualClock()
	c.capacity = capacity
	st, err := buildBackend(c, vc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		spec := job.Job{Nodes: 1 + (i*7)%(capacity/4), Runtime: job.Duration(600 + 90*(i%11)), User: i % 5}
		spec.Request = spec.Runtime + 300
		vc.AfterFunc(job.Time(100*i), func() {
			if _, err := st.bk.Submit(spec); err != nil {
				t.Errorf("submit: %v", err)
			}
		})
	}
	vc.Run()
	if err := st.bk.Err(); err != nil {
		t.Fatal(err)
	}
	if err := st.bk.SyncJournal(); err != nil {
		t.Fatal(err)
	}
	m := st.bk.Metrics()
	if st.router == nil {
		return m, []engine.Counters{m.Engine}
	}
	var per []engine.Counters
	for _, sh := range st.router.Federation().PerShard {
		per = append(per, sh.Metrics.Engine)
	}
	return m, per
}

// TestAuditEveryEngine: the journal of a bare engine and of each
// in-process shard re-decides clean under the daemon's policy, the
// audits count exactly the decisions the engines made, and each job
// starts in exactly one audited decision.
func TestAuditEveryEngine(t *testing.T) {
	const capacity, jobs = 64, 120
	for _, args := range []string{"-policy DDS/lxf/dynB -L 50", "-policy DDS/lxf/dynB -L 50 -shards 2"} {
		path := filepath.Join(t.TempDir(), "j")
		c, err := parseConfig(append(strings.Fields(args), "-journal", path))
		if err != nil {
			t.Fatalf("schedd %s: %v", args, err)
		}
		_, per := runStack(t, c, capacity, jobs)
		paths := []string{path}
		if c.fed.shards > 1 {
			paths = []string{path + ".shard-0", path + ".shard-1"}
		}
		var decisions, audited int64
		started := map[int]int{}
		for i, ec := range per {
			if ec.Decisions == 0 {
				t.Errorf("schedd %s: engine %d made no decision", args, i)
			}
			decisions += ec.Decisions
			cp, err := engine.LoadCheckpoint(paths[i])
			if err != nil {
				t.Fatal(err)
			}
			err = engine.Audit(engine.Config{Capacity: capacity / len(per), Policy: c.newPolicy(i)}, cp,
				func(rec *obs.DecisionRecord) {
					audited++
					for _, id := range rec.Started {
						started[id]++
					}
				})
			if err != nil {
				t.Errorf("schedd %s: engine %d: %v", args, i, err)
			}
		}
		if audited != decisions {
			t.Errorf("schedd %s: audited %d decisions, the engines made %d", args, audited, decisions)
		}
		for id := 1; id <= jobs; id++ {
			if started[id] != 1 {
				t.Errorf("schedd %s: job %d started in %d audited decisions", args, id, started[id])
			}
		}
	}
}
