// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all              # everything, full scale (slow)
//	experiments -run fig4 -scale 0.25 # one figure, quick
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"schedsearch/internal/experiments"
)

func main() {
	var (
		run    = flag.String("run", "all", "experiment id (or comma list, or 'all')")
		list   = flag.Bool("list", false, "list experiment ids")
		seed   = flag.Uint64("seed", 1, "workload generation seed")
		scale  = flag.Float64("scale", 1, "workload scale factor (1 = paper scale)")
		months = flag.String("months", "", "comma-separated month labels (default all)")
		lscale = flag.Float64("limitscale", 1, "scale factor on the paper's search node limits")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := experiments.Config{Seed: *seed, Scale: *scale, LimitScale: *lscale}
	if *months != "" {
		cfg.Months = strings.Split(*months, ",")
	}

	var ids []string
	if *run == "all" {
		for _, e := range experiments.All {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*run, ",")
	}

	for _, id := range ids {
		e, ok := experiments.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (try -list)\n", id)
			os.Exit(1)
		}
		start := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
