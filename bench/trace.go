package main

import (
	"fmt"
	"os"

	"schedsearch/internal/obs"
)

// reportTrace prints the per-layer table of a traced round — calls,
// busy time, self time and share of the round's wall — and, with
// -trace-out, writes the round's spans next to the product tracer's.
func reportTrace(ctx *runCtx, res *result, rec *recorder, product *obs.Tracer) error {
	if rec == nil {
		return nil
	}
	spans := rec.snapshot()
	fmt.Fprintf(ctx.Out, "-- %s: layers of the last traced round (%d spans)\n", res.Workload, len(spans))
	printLayerTable(ctx.Out, layerTable(spans), rec.rootNs(), rec.concurrent)
	if ctx.TraceOut == "" {
		return nil
	}
	f, err := os.Create(ctx.TraceOut)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, rec.epoch, spans, product.Spans()); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", ctx.TraceOut, err)
	}
	return f.Close()
}

// setObsMetrics reports the product tracer's own per-span averages and
// the share of traced jobs with every required span: the cross-check
// for the decorators' numbers.
func setObsMetrics(res *result, tr *obs.Tracer, required ...string) {
	st := tr.Stats()
	for _, name := range []string{"submit", "route", "probe", "admit", "decide"} {
		if s := st[name]; s.Count > 0 {
			res.set("obs.span_"+name+"_us", float64(s.TotalNs)/float64(s.Count)/1e3)
		}
	}
	if covered, total := tr.JobCoverage(required...); total > 0 {
		res.set("obs.span_coverage", float64(covered)/float64(total))
	}
}
