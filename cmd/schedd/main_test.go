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
		{"-join http://a:1 -rebalance 0", "-rebalance 0"},
		// Only a -join front has a pass to time.
		{"-rebalance 300", "-rebalance"},
		// -join is the one remote mode (the process supervisor is gone)
		// and the one federated daemon (in-process shards are schedsim's).
		{"-fanout 2", "flag provided but not defined: -fanout"},
		{"-shards 2", "flag provided but not defined: -shards"},
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
// event tail of a daemon started without -journal (the default), and
// folding the tail changes no metric of the run.
func TestCompactEveryWithoutJournal(t *testing.T) {
	const capacity, jobs, every = 64, 120, 32
	run := func(args string) engine.Metrics {
		t.Helper()
		c, err := parseConfig(strings.Fields(args))
		if err != nil {
			t.Fatalf("schedd %s: %v", args, err)
		}
		return runStack(t, c, capacity, jobs)
	}
	full := run("-policy FCFS-backfill -compact-every 0")
	got := run(fmt.Sprintf("-policy FCFS-backfill -compact-every %d", every))
	// A submit, a start and an end per job: well past the bound.
	if full.Engine.JournalTail < 3*jobs/2 || full.Engine.Compactions != 0 {
		t.Fatalf("uncompacted engine holds %d events after %d compactions",
			full.Engine.JournalTail, full.Engine.Compactions)
	}
	// An engine folds at the first commit that finds `every` events, and
	// one commit adds a handful at most.
	if got.Engine.Compactions == 0 || got.Engine.JournalTail >= every+16 {
		t.Errorf("-compact-every %d: journal_tail %d after %d compactions",
			every, got.Engine.JournalTail, got.Engine.Compactions)
	}
	if !reflect.DeepEqual(got.Summary, full.Summary) {
		t.Errorf("compaction changed the summary\n got %+v\nwant %+v", got.Summary, full.Summary)
	}
}

// runStack builds c's stack on a virtual clock, replays jobs synthetic
// jobs through it, and returns the engine's report.
func runStack(t *testing.T, c config, capacity, jobs int) engine.Metrics {
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
	return st.bk.Metrics()
}

// TestAuditEveryEngine: the daemon's journal re-decides clean under
// its policy, the audit counts exactly the decisions the engine made,
// and each job starts in exactly one audited decision. (TestScheddJoin
// audits every shard daemon's journal behind a -join front.)
func TestAuditEveryEngine(t *testing.T) {
	const capacity, jobs = 64, 120
	path := filepath.Join(t.TempDir(), "j")
	c, err := parseConfig([]string{"-policy", "DDS/lxf/dynB", "-L", "50", "-journal", path})
	if err != nil {
		t.Fatal(err)
	}
	m := runStack(t, c, capacity, jobs)
	if m.Engine.Decisions == 0 {
		t.Fatal("the engine made no decision")
	}
	cp, err := engine.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var audited int64
	started := map[int]int{}
	err = engine.Audit(engine.Config{Capacity: capacity, Policy: c.newPolicy()}, cp,
		func(rec *obs.DecisionRecord) {
			audited++
			for _, id := range rec.Started {
				started[id]++
			}
		})
	if err != nil {
		t.Error(err)
	}
	if audited != m.Engine.Decisions {
		t.Errorf("audited %d decisions, the engine made %d", audited, m.Engine.Decisions)
	}
	for id := 1; id <= jobs; id++ {
		if started[id] != 1 {
			t.Errorf("job %d started in %d audited decisions", id, started[id])
		}
	}
}
