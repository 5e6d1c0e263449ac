package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// BENCHMARK.json is generated from the registry (-write-spec); the two
// must not drift, and the file must stay inside the contract's limits.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit is 64 KiB", len(b))
	}
	var got specFile
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if want := currentSpec(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry; regenerate it with: bash bench/run.sh -write-spec BENCHMARK.json")
	}
}

func TestSpecLimits(t *testing.T) {
	sf := currentSpec()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(n, u, better string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is outside the contract", n, u)
		}
		if better != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	if n := len(sf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range sf.Workloads {
		check(w.Name, "", "")
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if n := len(sf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	setup := false
	for _, m := range sf.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(sf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, m := range sf.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if sf.RunSeconds < 1 || sf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", sf.RunSeconds)
	}
}

func TestTraceFlagTakesAValue(t *testing.T) {
	var f traceFlag
	for _, c := range []struct {
		in   string
		want bool
		ok   bool
	}{{"1", true, true}, {"0", false, true}, {"true", true, true}, {"false", false, true}, {"2", false, false}} {
		err := f.Set(c.in)
		if (err == nil) != c.ok || (c.ok && bool(f) != c.want) {
			t.Errorf("Set(%q): flag %v, err %v", c.in, f, err)
		}
	}
}
