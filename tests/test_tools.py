"""The benchmark tooling: ``tools/bench_pairs.py`` keeps a trace of
refused runs, every workload's set-up probe runs, and the short workloads'
traced runs reach every layer they expect."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_counts_gauge_refusals_and_unscaled_passes():
    bench = load_bench_pairs()
    assert bench.UNSCALED.search(
        "x\nunscaled: median pass 0.312 s; median kernel 1.0 ms\n"
    ).group(1) == "0.312"

    def ok(wall, unscaled):
        return {"exit": 0, "stderr": None, "unscaled_pass_s": unscaled,
                "result": {"failed": 0,
                           "metrics": {"wall_s": {"value": wall}}}}

    refused = {"exit": 2, "result": None, "unscaled_pass_s": None,
               "stderr": "perfbench: 7 speed samples around an interval "
                         "of 0.014 s"}
    crashed = dict(refused, stderr="Traceback ...")
    pairs = [{"workload": "w", "parent": ok(1.0, 0.4), "change": ok(0.9, 0.3)},
             {"workload": "w", "parent": ok(1.0, 0.5), "change": refused},
             {"workload": "w", "parent": crashed, "change": refused}]
    table = bench.summarize(pairs, {"wall_s": "lower"},
                            {"parent": 0.32, "change": 0.32})["w"]
    assert table["pairs"] == 1
    assert table["gauge_refusals"] == {"parent": 0, "change": 2}
    assert table["unscaled_pass_s"] == {"parent": [0.4, 0.5, None],
                                        "change": [0.3, None, None]}
    assert table["wall_s"]["change_wins"] == 1
    assert table["gauge_headroom"] == {"parent": 1.25, "change": 0.938}


def test_summary_sets_the_gauge_headroom_per_side():
    """``gauge_headroom`` is each side's smallest unscaled pass over its
    gauge floor, read from the checkout's ``perfbench/run.py``; a side
    with no recorded pass has none."""
    bench = load_bench_pairs()
    floor = bench.gauge_floor_s(ROOT)
    assert 0.3 < floor < 0.35

    def run(unscaled):
        return {"exit": 0, "stderr": None, "unscaled_pass_s": unscaled,
                "result": {"failed": 0,
                           "metrics": {"wall_s": {"value": 1.0}}}}

    pairs = [{"workload": "a", "parent": run(0.48), "change": run(0.36)},
             {"workload": "a", "parent": run(0.40), "change": run(None)},
             {"workload": "b", "parent": run(None), "change": run(0.2)}]
    summary = bench.summarize(pairs, {"wall_s": "lower"},
                              {"parent": 0.32, "change": 0.4})
    assert summary["a"]["gauge_headroom"] == {"parent": 1.25, "change": 0.9}
    assert summary["b"]["gauge_headroom"] == {"parent": None, "change": 0.5}


def test_counts_are_set_side_by_side():
    """``count_metrics`` keeps the count metrics of a traced result line,
    and only those; ``compare_counts`` sets both sides side by side with
    the change's ratio to the parent."""
    bench = load_bench_pairs()
    line = json.dumps({"correct": True, "attempted": 116, "failed": 0,
                       "metrics": {
                           "hochschild.Derived.value.calls":
                               {"value": 37278, "unit": "count"},
                           "hochschild.Derived.value.self_s":
                               {"value": 0.31, "unit": "s"},
                           "exact.GradedVector.ops":
                               {"value": 408930, "unit": "count"},
                           "exact.WindowOverflow.raised":
                               {"value": 12, "unit": "count"},
                           "exact.bareiss_echelon.cells":
                               {"value": 0, "unit": "count"},
                           "liealg.UgWindow.mul_keys.unique_ratio":
                               {"value": 0.4, "unit": "ratio"}}})
    parent = json.loads(line)
    change = json.loads(line)
    change["metrics"]["exact.GradedVector.ops"]["value"] = 306019
    del change["metrics"]["exact.WindowOverflow.raised"]
    assert bench.count_metrics(parent) == {
        "hochschild.Derived.value.calls": 37278,
        "exact.GradedVector.ops": 408930,
        "exact.WindowOverflow.raised": 12,
        "exact.bareiss_echelon.cells": 0}
    assert bench.count_metrics(None) == {}
    table = bench.compare_counts({"parent": {"result": parent},
                                  "change": {"result": change}})
    assert list(table) == sorted(bench.count_metrics(parent))
    assert table["exact.GradedVector.ops"] == {
        "parent": 408930, "change": 306019, "change_over_parent": 0.7483}
    assert table["hochschild.Derived.value.calls"]["change_over_parent"] == 1
    assert table["exact.WindowOverflow.raised"]["change"] is None
    assert table["exact.bareiss_echelon.cells"]["change_over_parent"] is None
    assert bench.parse_seeds("") == []


@pytest.mark.parametrize("workload", ["endgame", "certificates", "elimination"])
def test_setup_probe_exits_zero(workload):
    """``perfbench/run.py`` exits 2 both on a speed-gauge refusal and on a
    set-up probe that fails; this tells the second apart."""
    probe = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=300)
    assert probe.returncode == 0, probe.stderr[-2000:]


@pytest.mark.parametrize("workload",
                         ["endgame", "certificates", "elimination"])
def test_traced_run_exits_zero(workload):
    """``perfbench/run.py --trace 1`` exits 2 when a traced pass records no
    call of an entry point the workload expects, for example a table that
    stops calling ``liealg.contract``, or lazier End(X) maps that stop
    calling ``keller.LieTriple._lmul_key``.  One traced run of each
    workload is not refused.  The speed gauge, the other refusal, runs only
    untraced."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
