#!/usr/bin/env python3
"""The benchmark's memory: one record of the repository benchmark per commit.

    python3 scripts/bench_record.py [CHECKOUT]
    python3 scripts/bench_record.py --check
    python3 scripts/bench_record.py --diff

The first form runs `bash bench/run.sh -workload W -seed S -trace T` in
CHECKOUT (default: the repository holding this script) for every workload
BENCHMARK.json names, seeds 1 and 2, and T of 0 and 1, at the benchmark's
own run length. Of each run it keeps the stderr header (the `bench: ` lines
that stamp the commit, the dirty flag and the CPU count) and the last stdout
line (the JSON result), and it appends one record to BENCH_trajectory.json
at the root of the repository holding this script. It refuses a CHECKOUT
with uncommitted changes, since the commit would not identify the code it
measured. Recording a parent commit works from a clean clone of it:

    git clone -q . /tmp/parent && git -C /tmp/parent checkout -q REV
    python3 scripts/bench_record.py /tmp/parent

The second form checks the file's shape without running the benchmark:
every record's runs cover every workload, seed and trace setting; every
header is clean and names the record's commit; every run is correct with no
failed operation; and every untraced run carries all of BENCHMARK.json's
end-to-end metrics.

The third form runs the benchmark in the repository holding this script at
`-seconds 2`, seeds 1 and 2, and requires every exact metric to equal the
last record's: both `*_vs_fcfs` ratios of every workload (untraced runs),
paper_suite's five search counts and fed_remote's two wire counts and its
migration count (traced runs). These come off the virtual clock or count
the search's nodes, so they are the same at every run length and on every
machine; a change that moves one on purpose appends a new record with it.
"""

import datetime
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_trajectory.json")
SEEDS = (1, 2)
TRACES = (0, 1)
HEADER = re.compile(r"^bench: commit ([0-9a-f]{40}) dirty=(true|false) ")
RATIOS = ("bsld_vs_fcfs", "max_wait_vs_fcfs")
# The exact metrics --diff holds to the last record, by (workload, trace).
EXACT_TRACED = {
    "paper_suite": ("sim.decisions", "core.nodes_per_decision", "core.leaves_per_knode",
                    "core.budget_hit_rate", "core.nodes_to_best_share"),
    "fed_remote": ("wire.calls_per_job", "wire.load_calls_per_job", "federation.migrations"),
}


def spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        b = json.load(f)
    return [w["name"] for w in b["workloads"]], [m["name"] for m in b["end_to_end"]]


def git(checkout, *args):
    return subprocess.run(["git", "-C", checkout, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run(checkout, workload, seed, trace, *extra):
    cmd = ["bash", "bench/run.sh", "-workload", workload, "-seed", str(seed), "-trace", str(trace), *extra]
    print(f"bench_record: {' '.join(cmd)}", file=sys.stderr, flush=True)
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"bench_record: {' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    header = [l for l in p.stderr.splitlines() if l.startswith("bench: ")]
    return {"workload": workload, "seed": seed, "trace": trace,
            "header": header, "result": json.loads(lines[-1])}


def record(checkout):
    checkout = os.path.abspath(checkout)
    if git(checkout, "status", "--porcelain"):
        sys.exit(f"bench_record: {checkout} has uncommitted changes; commit or stash them first")
    workloads, end_to_end = spec(checkout)
    rec = {
        "commit": git(checkout, "rev-parse", "HEAD"),
        "subject": git(checkout, "log", "-1", "--format=%s"),
        "recorded": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "runs": [run(checkout, w, s, t) for s in SEEDS for t in TRACES for w in workloads],
    }
    problems = check_record(rec, workloads, end_to_end)
    if problems:
        sys.exit("bench_record: not recorded:\n  " + "\n  ".join(problems))
    records = load()
    records.append(rec)
    with open(TRAJECTORY, "w") as f:
        dump(records, f)
    print(f"bench_record: appended {rec['commit'][:12]} to {TRAJECTORY} ({len(records)} records)", file=sys.stderr)


def dump(records, f):
    """Writes the records as a JSON list with one line per run, so that a
    new record is a block of added lines in a diff."""
    f.write("[\n")
    for i, rec in enumerate(records):
        head = json.dumps({k: v for k, v in rec.items() if k != "runs"}, sort_keys=True)
        f.write(" {" + head[1:-1] + ', "runs": [\n')
        f.write(",\n".join("  " + json.dumps(r, sort_keys=True) for r in rec["runs"]))
        f.write("\n ]}" + ("," if i < len(records) - 1 else "") + "\n")
    f.write("]\n")


def load():
    if not os.path.exists(TRAJECTORY):
        return []
    with open(TRAJECTORY) as f:
        return json.load(f)


def check_record(rec, workloads, end_to_end):
    problems = []
    where = rec.get("commit", "?")[:12]
    seen = set()
    for r in rec.get("runs", []):
        key = (r.get("workload"), r.get("seed"), r.get("trace"))
        seen.add(key)
        at = f"{where} {key[0]} seed {key[1]} trace {key[2]}"
        m = HEADER.match((r.get("header") or [""])[0])
        if not m or m.group(2) != "false" or m.group(1) != rec.get("commit"):
            problems.append(f"{at}: header is not a clean stamp of the record's commit: {r.get('header')}")
        res = r.get("result", {})
        if res.get("correct") is not True or res.get("failed") != 0:
            problems.append(f"{at}: run not correct (correct={res.get('correct')}, failed={res.get('failed')})")
        if key[2] == 0:
            missing = [n for n in end_to_end if n not in res.get("metrics", {})]
            if missing:
                problems.append(f"{at}: end-to-end metrics missing: {missing}")
    for w in workloads:
        for s in SEEDS:
            for t in TRACES:
                if (w, s, t) not in seen:
                    problems.append(f"{where}: no run of {w} at seed {s}, trace {t}")
    return problems


def check():
    workloads, end_to_end = spec(ROOT)
    records = load()
    if not records:
        sys.exit(f"bench_record: {TRAJECTORY} holds no record")
    problems = [p for rec in records for p in check_record(rec, workloads, end_to_end)]
    if problems:
        sys.exit("bench_record: " + TRAJECTORY + ":\n  " + "\n  ".join(problems))
    print(f"bench_record: {len(records)} records, each with {len(workloads)} workloads x seeds {SEEDS} x trace {TRACES}; "
          f"last {records[-1]['commit'][:12]}")


def diff():
    workloads, _ = spec(ROOT)
    records = load()
    if not records:
        sys.exit(f"bench_record: {TRAJECTORY} holds no record to diff against")
    last = records[-1]
    want = {(r["workload"], r["seed"], r["trace"]): r["result"]["metrics"] for r in last["runs"]}
    exact = [(w, 0, RATIOS) for w in workloads] + [(w, 1, names) for w, names in EXACT_TRACED.items()]
    problems, checked = [], 0
    for seed in SEEDS:
        for w, trace, names in exact:
            res = run(ROOT, w, seed, trace, "-seconds", "2")["result"]
            at = f"{w} seed {seed} trace {trace}"
            if res.get("correct") is not True or res.get("failed") != 0:
                problems.append(f"{at}: run not correct (correct={res.get('correct')}, failed={res.get('failed')})")
            for name in names:
                got = res["metrics"].get(name, {}).get("value")
                rec = want.get((w, seed, trace), {}).get(name, {}).get("value")
                checked += 1
                print(f"bench_record: {at}: {name} {got!r} (record {rec!r})", file=sys.stderr)
                if got is None or got != rec:
                    problems.append(f"{at}: {name} is {got!r}, the record of {last['commit'][:12]} has {rec!r}")
    if problems:
        sys.exit("bench_record: exact metrics differ from the last record:\n  " + "\n  ".join(problems))
    print(f"bench_record: {checked} exact metrics equal the record of {last['commit'][:12]}")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--check"]:
        check()
    elif args == ["--diff"]:
        diff()
    elif len(args) <= 1 and not (args and args[0].startswith("-")):
        record(args[0] if args else ROOT)
    else:
        sys.exit(__doc__)
