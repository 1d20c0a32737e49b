"""Alternated benchmark pairs of two checkouts, written to ``BENCH_<n>.json``.

Usage (from the root of a checkout)::

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workloads certificates endgame elimination --seeds 1-10 \\
        --out BENCH_6.json

With ``--tier1``, the Tier-1 suite (``python -m pytest -q
--continue-on-collection-errors --durations=0`` with ``src`` on the path)
first runs once in each checkout, parent first; its wall time, exit
status, summary line and the call durations of the AC2, AC3, AC4, AC8 and
AC9 acceptance tests go to ``tier1``.

For each workload and seed, one pair runs ``perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once in each checkout, one after the
other, with ``T`` the ``run_seconds`` of the change's ``BENCHMARK.json``;
the side that runs first alternates from pair to pair.  Each run
uses the ``perfbench/`` of its own checkout, so both sides must carry the
same benchmark code.  The output holds every run's result line (the last
line of ``run.py``'s standard output) and, per workload and end-to-end
metric (taken from ``BENCHMARK.json`` of the change), each side's median
and quartiles and the number of pairs the change won (ties count for
neither side).  Those figures read only the pairs where both sides gave a
result, so each workload and side also records every run's unscaled median
pass (from ``run.py``'s ``unscaled:`` line, null when it printed none) and
``gauge_refusals``, the runs that exited 2 because the speed gauge had too
few samples around a pass, and ``gauge_headroom``: the smallest unscaled
pass over the gauge floor ``MIN_SAMPLES * SAMPLE_S``, both read from the
side's own ``perfbench/run.py`` (below 1 the gauge refuses such a pass).
The file is rewritten after every pair, so an interrupted recording keeps
its finished pairs.  Only the standard library is used.

Before the pairs, one traced run (``perfbench/run.py --workload W --seed 1
--seconds 0 --trace 1``) of each workload runs in each checkout, parent
first.  Its count metrics (the names ending in ``.calls``, ``.ops``,
``.raised`` and ``.cells``) go to ``counts``, per workload and metric with
both sides and the change's ratio to the parent, next to each run's exit
status.  ``--seeds ''`` runs no timed pairs, so it records only the counts.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the acceptance tests whose durations ``--tier1`` records
AC_TESTS = ("test_ac2_", "test_ac3_", "test_ac4_", "test_ac8_", "test_ac9_")
DURATION = re.compile(r"^([0-9.]+)s call\s+\S+::(\w+)$")
UNSCALED = re.compile(r"^unscaled: median pass ([0-9.]+) s;", re.MULTILINE)
GAUGE_REFUSAL = "speed samples around an interval"
SIDES = ("parent", "change")
# the traced per-layer metrics that count work rather than time it
COUNT_SUFFIXES = (".calls", ".ops", ".raised", ".cells")


def parse_seeds(text):
    """``"1-10"`` or ``"1,4,7"`` (or a mix) as a list of ints."""
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def gauge_floor_s(checkout):
    """``MIN_SAMPLES * SAMPLE_S`` of ``checkout``'s ``perfbench/run.py``,
    read without importing it: about the shortest pass its gauge
    measures."""
    tree = ast.parse((Path(checkout) / "perfbench" / "run.py").read_text())
    found = {target.id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets
             if isinstance(target, ast.Name)
             and target.id in ("MIN_SAMPLES", "SAMPLE_S")}
    return found["MIN_SAMPLES"] * found["SAMPLE_S"]


def run_once(checkout, workload, seed, seconds, trace=0):
    """One run in ``checkout``: its exit status, result and unscaled median
    pass."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    unscaled = UNSCALED.search(proc.stdout)
    return {"exit": proc.returncode, "result": result,
            "stderr": proc.stderr.strip()[-2000:] or None,
            "unscaled_pass_s": float(unscaled.group(1)) if unscaled else None}


def run_tier1(checkout):
    """One Tier-1 run in ``checkout``: wall time, exit status, the summary
    line and the call durations of the tests named in ``AC_TESTS``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors", "--durations=0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    durations = {}
    for line in lines:
        match = DURATION.match(line)
        if match and match.group(2).startswith(AC_TESTS):
            durations[match.group(2)] = float(match.group(1))
    return {"exit": proc.returncode, "wall_s": round(wall, 2),
            "summary": lines[-1] if lines else None,
            "durations_s": durations}


def count_metrics(result):
    """The count metrics of a traced run's result line, by name."""
    metrics = (result or {}).get("metrics", {})
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith(COUNT_SUFFIXES)}


def compare_counts(runs):
    """Per count metric of either side: both sides' values (None where a
    side lacks it) and the change's ratio to the parent."""
    counts = {side: count_metrics(runs[side]["result"]) for side in SIDES}
    table = {}
    for name in sorted(set(counts["parent"]) | set(counts["change"])):
        parent, change = (counts[side].get(name) for side in SIDES)
        ratio = (round(change / parent, 4)
                 if parent and change is not None else None)
        table[name] = {"parent": parent, "change": change,
                       "change_over_parent": ratio}
    return table


def quartiles(values):
    """(first quartile, median, third quartile) of at least one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def gauge_refused(run):
    """Whether ``run.py`` exited 2 for want of speed samples around a pass."""
    return run["exit"] == 2 and GAUGE_REFUSAL in (run["stderr"] or "")


def headroom(passes, floor):
    """The smallest recorded pass over the gauge floor (None when no pass
    was recorded)."""
    passes = [s for s in passes if s is not None]
    return round(min(passes) / floor, 3) if passes else None


def summarize(pairs, metrics, floors):
    """Per workload and metric: both sides' quartiles and the change's wins;
    per workload and side: every run's unscaled pass, the gauge refusals
    and the gauge headroom over ``floors[side]``."""
    out = {}
    for workload in sorted({p["workload"] for p in pairs}):
        runs = [p for p in pairs if p["workload"] == workload]
        done = [p for p in runs
                if p["parent"]["result"] and p["change"]["result"]]
        passes = {side: [p[side]["unscaled_pass_s"] for p in runs]
                  for side in SIDES}
        table = out[workload] = {
            "pairs": len(done),
            "failed_ops": {side: sum(p[side]["result"]["failed"]
                                     for p in done) for side in SIDES},
            "gauge_refusals": {side: sum(gauge_refused(p[side])
                                         for p in runs) for side in SIDES},
            "gauge_headroom": {side: headroom(passes[side], floors[side])
                               for side in SIDES},
            "unscaled_pass_s": passes}
        for name, better in metrics.items() if done else ():
            values = {side: [p[side]["result"]["metrics"][name]["value"]
                             for p in done] for side in SIDES}
            sign = 1 if better == "lower" else -1
            wins = sum(sign * (c - a) < 0 for a, c in
                       zip(values["parent"], values["change"]))
            row = {"better": better, "change_wins": wins}
            for side, vals in values.items():
                q1, q2, q3 = quartiles(vals)
                row[side] = {"median": q2, "q1": q1, "q3": q3}
            table[name] = row
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path,
                    help="checkout of the change")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10", type=parse_seeds,
                    help="seeds, one pair each: 1-10 or 1,4,7")
    ap.add_argument("--out", required=True, type=Path,
                    help="the BENCH_<n>.json to write")
    ap.add_argument("--tier1", action="store_true",
                    help="also time the Tier-1 suite once per checkout")
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    floors = {side: gauge_floor_s(getattr(args, side)) for side in SIDES}
    record = {
        "command": "perfbench/run.py --seconds %g --trace 0" % seconds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "system": platform.platform()},
        "pairs": [], "summary": {}}
    if args.tier1:
        record["tier1"] = {side: run_tier1(getattr(args, side))
                           for side in SIDES}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True)
                            + "\n")
        print("tier1: exit %d/%d" % (record["tier1"]["parent"]["exit"],
                                     record["tier1"]["change"]["exit"]),
              flush=True)
    record["counts"] = {}
    for workload in args.workloads:
        runs = {side: run_once(getattr(args, side), workload, 1, 0, trace=1)
                for side in SIDES}
        record["counts"][workload] = {
            "exit": {side: runs[side]["exit"] for side in SIDES},
            "metrics": compare_counts(runs)}
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True)
                            + "\n")
        print("%s counts: exit %d/%d" % (workload, runs["parent"]["exit"],
                                         runs["change"]["exit"]), flush=True)
    index = 0
    for workload in args.workloads:
        for seed in args.seeds:
            first = "parent" if index % 2 == 0 else "change"
            second = "change" if first == "parent" else "parent"
            pair = {"workload": workload, "seed": seed, "first": first}
            for side in (first, second):
                pair[side] = run_once(getattr(args, side), workload, seed,
                                      seconds)
            record["pairs"].append(pair)
            record["summary"] = summarize(record["pairs"], metrics, floors)
            args.out.write_text(json.dumps(record, indent=1, sort_keys=True)
                                + "\n")
            print("%s seed %d (%s first): exit %d/%d" % (
                workload, seed, first, pair["parent"]["exit"],
                pair["change"]["exit"]), flush=True)
            index += 1
    exits = [p[side]["exit"] for p in record["pairs"] for side in SIDES]
    exits += [run["exit"] for run in record.get("tier1", {}).values()]
    exits += [code for table in record["counts"].values()
              for code in table["exit"].values()]
    return 1 if any(exits) else 0


if __name__ == "__main__":
    sys.exit(main())
