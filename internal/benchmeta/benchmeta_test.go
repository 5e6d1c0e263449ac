package benchmeta

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

func TestCollect(t *testing.T) {
	m := Collect("bench")
	if m.GeneratedBy != "bench" {
		t.Errorf("GeneratedBy = %q", m.GeneratedBy)
	}
	if m.GoVersion != runtime.Version() {
		t.Errorf("GoVersion = %q, want %q", m.GoVersion, runtime.Version())
	}
	if m.GOOS != runtime.GOOS || m.GOARCH != runtime.GOARCH {
		t.Errorf("GOOS/GOARCH = %q/%q", m.GOOS, m.GOARCH)
	}
	if m.NumCPU < 1 || m.GOMAXPROCS < 1 {
		t.Errorf("NumCPU=%d GOMAXPROCS=%d", m.NumCPU, m.GOMAXPROCS)
	}
	if _, err := time.Parse(time.RFC3339, m.GeneratedAt); err != nil {
		t.Errorf("GeneratedAt %q is not RFC 3339: %v", m.GeneratedAt, err)
	}
}

// TestMetaEmbedsFlat ensures embedding Meta in a report struct keeps
// the provenance keys at the top level of the JSON document (the
// BENCH_*.json schema relies on this).
func TestMetaEmbedsFlat(t *testing.T) {
	type report struct {
		Meta
		Results []int `json:"results"`
	}
	b, err := json.Marshal(report{Meta: Collect("x"), Results: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	var flat map[string]any
	if err := json.Unmarshal(b, &flat); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"generated_by", "go_version", "gomaxprocs", "results"} {
		if _, ok := flat[key]; !ok {
			t.Errorf("key %q missing from embedded-Meta JSON: %s", key, b)
		}
	}
}
