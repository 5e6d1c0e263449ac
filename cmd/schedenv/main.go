// Command schedenv serves the simulator as a step/observe/act
// environment over a JSON-lines stdio protocol, so external optimizers
// (RL agents, black-box search, other languages) can drive scheduling
// decisions against the exact simulator the native policies run on.
//
// Usage:
//
//	schedenv -month 7/03 -load 0.9
//
// The driver writes a hello line, then answers each request line with
// exactly one response line:
//
//	→ {"type":"reset"}
//	← {"type":"observe","reward":0,"observation":{...}}
//	→ {"type":"act","action":{"kind":"policy","policy":"DDS/lxf/dynB"}}
//	← {"type":"observe","reward":-12.5,"observation":{...}}
//	...
//	← {"type":"done","total_reward":...,"summary":{...}}
//	→ {"type":"close"}
//
// Actions: {"kind":"start","start":[qpos,...]} starts the listed queue
// positions now; {"kind":"order","order":[...]} submits a full queue
// permutation (placed greedily, earliest fit per job, jobs landing at
// now start); {"kind":"policy","policy":"NAME"} delegates the decision
// to any built-in policy — including meta(...) portfolios. Rewards are
// negated plan scores under the paper's uniform objective, so higher
// is better and the episode total tracks the schedule's weighted cost.
package main

import (
	"flag"
	"fmt"
	"os"

	"schedsearch"
	"schedsearch/internal/env"
	"schedsearch/internal/sim"
	"schedsearch/internal/workload"
)

func main() {
	var (
		month     = flag.String("month", "6/03", "month label (6/03 .. 3/04)")
		nodeLimit = flag.Int("L", 1000, "search node limit for policies resolved by \"policy\" actions")
		workers   = flag.Int("workers", 1, "parallel search workers for resolved search policies")
		warm      = flag.Bool("warm", false, "warm-start resolved search policies")
		load      = flag.Float64("load", 0, "target offered load (0 = original)")
		seed      = flag.Uint64("seed", 1, "workload generation seed")
		scale     = flag.Float64("scale", 1, "job-count/duration scale factor")
		requested = flag.Bool("requested", false, "schedulers and observations use requested runtimes (R* = R)")
	)
	flag.Parse()

	if err := serve(*month, *seed, *scale, *load, *requested, *nodeLimit, *workers, *warm); err != nil {
		fmt.Fprintln(os.Stderr, "schedenv:", err)
		os.Exit(1)
	}
}

func serve(month string, seed uint64, scale, load float64, requested bool, nodeLimit, workers int, warm bool) error {
	cfg, err := serveConfig(month, seed, scale, load, requested, nodeLimit, workers, warm)
	if err != nil {
		return err
	}
	return env.Serve(cfg, os.Stdin, os.Stdout)
}

// serveConfig wires the workload suite and the policy resolver into the
// driver config (split from serve so tests can run the protocol over
// in-memory pipes).
func serveConfig(month string, seed uint64, scale, load float64, requested bool, nodeLimit, workers int, warm bool) (env.ServeConfig, error) {
	// Loaded once, so a bad month label fails before the hello line; the
	// simulator only reads its input, so every reset replays the same one.
	in, _, err := schedsearch.LoadInput("", 0, workload.Config{Seed: seed, JobScale: scale}, month,
		workload.SimOptions{TargetLoad: load, UseRequested: requested})
	if err != nil {
		return env.ServeConfig{}, err
	}
	cfg := env.ServeConfig{
		Label:    fmt.Sprintf("schedenv %s", month),
		NewInput: func() (sim.Input, error) { return in, nil },
		Resolve: func(name string) (sim.Policy, error) {
			pol, err := schedsearch.ParsePolicy(name, nodeLimit)
			if err != nil {
				return nil, err
			}
			schedsearch.ApplySearchOptions(pol, workers, warm)
			return pol, nil
		},
	}
	return cfg, nil
}
