package schedsearch_test

import (
	"testing"

	"schedsearch"
)

// FuzzParsePolicy asserts the parse → Name → parse round trip: any
// string ParsePolicy accepts must produce a policy whose canonical
// Name parses back to the same policy, and the parser must never
// panic on arbitrary input.
func FuzzParsePolicy(f *testing.F) {
	for _, name := range allPolicies {
		f.Add(name)
	}
	for _, seed := range []string{
		"DDS/lxf/fixB=100h", "LDS/fcfs/30m", "DFS/lxf/90s", "DDS/fcfs/0h",
		"DDS/lxf/", "DDS//dynB", "//", "DDS/lxf/99999999999999999999h",
		"dds/LXF/DYNB", " FCFS-backfill", "FCFS-backfill ",
		"CDDS/lxf/dynB", "ADDS/fcfs/dynB", "CDDS/fcfs/fixB=100h",
		"ADDS/lxf/30m", "cdds/lxf/dynB", "ADDS//dynB", "ADDS/lxf/dynB",
		"Conservative-backfill(FCFS)",
		"meta(DDS/lxf/dynB)", "meta(DDS/lxf/dynB,FCFS-backfill)",
		"meta(DDS/lxf/fixB=100h,LDS/fcfs/dynB,LXF-backfill)",
		"meta()", "meta(", "meta(DDS/lxf/dynB", "meta(DDS/lxf/dynB,)",
		"meta(,)", "meta(meta(DDS/lxf/dynB))", "meta(DDS/lxf/dynB))",
		"META(DDS/lxf/dynB)", "meta (DDS/lxf/dynB)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		pol, err := schedsearch.ParsePolicy(s, 100)
		if err != nil {
			return // rejected input: only the no-panic guarantee applies
		}
		name := pol.Name()
		again, err := schedsearch.ParsePolicy(name, 100)
		if err != nil {
			t.Fatalf("ParsePolicy(%q) ok but canonical name %q rejected: %v", s, name, err)
		}
		if got := again.Name(); got != name {
			t.Fatalf("canonical name not a fixed point: %q -> %q -> %q", s, name, got)
		}
	})
}
