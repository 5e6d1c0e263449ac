package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"schedsearch/internal/engine"
	"schedsearch/internal/job"
	"schedsearch/internal/sim"
)

// TestParseConfigRejects covers every flag combination no mode can
// honour: each must come back as an error naming the offending flag,
// not as a silently ignored option.
func TestParseConfigRejects(t *testing.T) {
	for _, tc := range []struct {
		args    string
		wantSub string
	}{
		{"-join http://a:1 -fanout 2", "mutually exclusive"},
		{"-fanout 1", "-fanout 1"},
		{"-fanout -3", "-fanout -3"},
		{"-shards 2 -join http://a:1", "-shards"},
		{"-virtual -fanout 2", "serving-mode only"},
		{"-swf t.swf -join http://a:1", "serving-mode only"},
		{"-join http://a:1 -rebalance 0", "-rebalance 0"},
		{"-fanout 2 -rebalance 0", "-rebalance 0"},
		{"-virtual -month 7/03 -capacity 64", "-capacity 64"},
		{"-policy BFS/lxf/dynB", "unknown search algorithm"},
		{"-policy meta(DDS/lxf/dynB,)", "empty member"},
		{"-virtual -journal j", "-journal"},
		{"-swf t.swf -journal j", "-journal"},
		{"-virtual -addr :9", "-addr"},
		{"-virtual -ingest-pending 8", "-ingest-pending"},
		{"-virtual -ingest-batch 8", "-ingest-batch"},
		{"-virtual -quota-rate 1", "-quota-rate"},
		{"-virtual -quota-burst 4", "-quota-burst"},
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
// and what they derive: the shipped defaults, a replay that sets only
// replay flags, trimmed -join URLs and the flags a fanout supervisor
// forwards to its children.
func TestParseConfigAccepts(t *testing.T) {
	c, err := parseConfig(nil)
	if err != nil {
		t.Fatalf("defaults: %v", err)
	}
	if c.replayMode() || c.fed.remote() || c.fed.rebalance != 600 || c.addr != ":8080" ||
		c.ing.pending != 4096 || c.dur.group != 64 || c.obs.flight != 256 {
		t.Errorf("defaults parsed as %+v", c)
	}

	c, err = parseConfig(strings.Fields("-virtual -month 1/04 -shards 4 -capacity 512 -rebalance 0 -speedup 50"))
	if err != nil {
		t.Fatalf("federated replay: %v", err)
	}
	if !c.replayMode() || c.fed.shards != 4 || c.capacity != 512 || c.fed.rebalance != 0 {
		t.Errorf("federated replay parsed as %+v", c)
	}
	// An SWF trace brings its own machine size; a serving daemon's is
	// whatever it is told.
	for _, args := range []string{"-swf t.swf -capacity 64", "-capacity 64"} {
		if _, err := parseConfig(strings.Fields(args)); err != nil {
			t.Errorf("schedd %s: %v", args, err)
		}
	}

	c, err = parseConfig([]string{"-join", " http://a:1, http://b:2 ,"})
	if err != nil {
		t.Fatalf("-join: %v", err)
	}
	if want := []string{"http://a:1", "http://b:2"}; !reflect.DeepEqual(c.fed.join, want) {
		t.Errorf("-join URLs %q, want %q", c.fed.join, want)
	}

	for _, tc := range []struct {
		args, want   string
		compactEvery int
	}{
		{"-fanout 4 -policy LDS/fcfs/100h -L 50 -speedup 600 -journal j",
			"-policy LDS/fcfs/100h -L 50 -workers 1 -requested=false -speedup 600 -compact-every 4096 -ingest-pending 0", 4096},
		// Without -journal the bound still folds each child's in-memory tail.
		{"-fanout 4 -compact-every 100",
			"-policy DDS/lxf/dynB -L 1000 -workers 1 -requested=false -speedup 1 -compact-every 100 -ingest-pending 0", 100},
	} {
		c, err := parseConfig(strings.Fields(tc.args))
		if err != nil {
			t.Fatalf("schedd %s: %v", tc.args, err)
		}
		if got := strings.Join(c.fed.childArgs, " "); got != tc.want {
			t.Errorf("schedd %s: fanout child flags\n got %s\nwant %s", tc.args, got, tc.want)
		}
		// The forwarded flags must themselves parse as a bare shard daemon.
		child, err := parseConfig(c.fed.childArgs)
		if err != nil || child.fed.remote() || child.ing.pending != 0 || child.dur.compactEvery != tc.compactEvery {
			t.Errorf("schedd %s: child flags re-parse: %v, %+v", tc.args, err, child)
		}
	}
}

// TestCompactEveryWithoutJournal: -compact-every bounds the in-memory
// event tail of a daemon started without -journal (the default), bare
// engine and in-process shards alike, and folding the tail changes no
// metric of the run.
func TestCompactEveryWithoutJournal(t *testing.T) {
	const capacity, jobs, every = 64, 120, 32
	// run returns the whole-machine report and every engine's own counters
	// (the router's report does not carry its shards' journal tails).
	run := func(args string) (engine.Metrics, []engine.Counters) {
		t.Helper()
		c, err := parseConfig(strings.Fields(args))
		if err != nil {
			t.Fatalf("schedd %s: %v", args, err)
		}
		vc := engine.NewVirtualClock()
		st, err := buildBackend(c, vc, sim.Input{Capacity: capacity}, nil, nil)
		if err != nil {
			t.Fatalf("schedd %s: %v", args, err)
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
