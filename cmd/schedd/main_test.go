package main

import (
	"reflect"
	"strings"
	"testing"
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

	c, err = parseConfig(strings.Fields("-fanout 4 -policy LDS/fcfs/100h -L 50 -warm -speedup 600 -journal j"))
	if err != nil {
		t.Fatalf("-fanout: %v", err)
	}
	want := "-policy LDS/fcfs/100h -L 50 -workers 1 -warm=true -slo 0s -requested=false -speedup 600 -ingest-pending 0"
	if got := strings.Join(c.fed.childArgs, " "); got != want {
		t.Errorf("fanout child flags\n got %s\nwant %s", got, want)
	}
	// The forwarded flags must themselves parse as a bare shard daemon.
	if child, err := parseConfig(c.fed.childArgs); err != nil || child.fed.remote() || child.ing.pending != 0 {
		t.Errorf("child flags re-parse: %v, %+v", err, child)
	}
}
