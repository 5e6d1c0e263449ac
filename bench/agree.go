package main

import (
	"fmt"
	"io"
	"math"
)

// runAgree runs the full untraced set twice back to back and prints, for
// every end-to-end metric on every workload, both values and their
// relative difference. It reports false when a pair differs by more
// than the metric's bound in BENCHMARK.json, when an exact metric does
// not repeat to the last digit, or when any check failed.
func runAgree(mk func() *runCtx, w io.Writer) (bool, error) {
	bounds, err := loadBounds("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("-agree judges by the bounds in BENCHMARK.json: %w", err)
	}
	var sets [2][]*result
	for pass := range sets {
		for _, wl := range workloads {
			ctx := mk()
			ctx.Trace = false
			res, err := wl.run(ctx)
			if err != nil {
				return false, fmt.Errorf("pass %d, %s: %w", pass+1, wl.Name, err)
			}
			sets[pass] = append(sets[pass], res)
		}
	}
	ok := true
	fmt.Fprintf(w, "%-13s %-18s %16s %16s %9s %7s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	for i, wl := range workloads {
		a, b := sets[0][i], sets[1][i]
		for _, r := range []*result{a, b} {
			for _, p := range r.Problems {
				fmt.Fprintln(w, "FAILED:", p)
				ok = false
			}
		}
		for _, m := range endToEnd {
			va, vb := a.Values[m.Name], b.Values[m.Name]
			rel := 0.0
			if va != 0 {
				rel = math.Abs(vb-va) / math.Abs(va)
			}
			verdict := "ok"
			switch {
			case m.Exact && va != vb:
				verdict, ok = "DIFFERS (must repeat exactly)", false
			case !m.Exact && rel > bounds[m.Name]:
				verdict, ok = "OUT OF BOUND", false
			}
			fmt.Fprintf(w, "%-13s %-18s %16.6g %16.6g %8.2f%% %6.0f%%  %s\n", wl.Name, m.Name, va, vb, 100*rel, 100*bounds[m.Name], verdict)
		}
	}
	return ok, nil
}

// runSpread runs each selected workload once per seed 1..n and prints,
// for every end-to-end metric, the median and quartiles of the n values
// and their spread — the interquartile distance as a share of the
// median, which is what the harness holds against the bound. It is how
// the spread table in README.md is made.
func runSpread(mk func() *runCtx, selected []workloadDef, n int, w io.Writer) (bool, error) {
	ok := true
	fmt.Fprintf(w, "| workload | metric | median | q1 | q3 | spread | bound |\n|---|---|---|---|---|---|---|\n")
	for _, wl := range selected {
		values := make(map[string][]float64)
		for seed := 1; seed <= n; seed++ {
			ctx := mk()
			ctx.Seed, ctx.Trace = uint64(seed), false
			res, err := wl.run(ctx)
			if err != nil {
				return false, fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
			for _, p := range res.Problems {
				fmt.Fprintln(w, "FAILED:", p)
				ok = false
			}
			for _, m := range endToEnd {
				values[m.Name] = append(values[m.Name], res.Values[m.Name])
			}
		}
		for _, m := range endToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			fmt.Fprintf(w, "| `%s` | `%s` | %.5g | %.5g | %.5g | %.1f %% | %.0f %% |\n", wl.Name, m.Name, q2, q1, q3, 100*spread(values[m.Name]), 100*m.Bound)
		}
	}
	return ok, nil
}
