"""Benchmark of the hochduflo package: one workload, one closed-loop client.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload endgame --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout this file sits in.  A
run repeats passes over the workload's fixed operation list, one operation
at a time, while another pass is predicted to end within ``--seconds``
(at least two passes).  Each pass builds fresh windows and contexts, so the
lazy caches are paid for as a command-line user pays for them.  Every
operation's result is checked exactly; a failed, raising or refused
operation counts as failed and its time is left out of the latencies.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median pass
time), ``op_p50_s`` and ``op_p90_s`` (operation latencies over the run),
``setup_s`` (median over fresh processes, eight after each pass, of process
start to the end of building the workload's contexts) and ``peak_rss_mb``.
The times are given at a fixed machine speed (see ``SpeedGauge``); the
unscaled median pass time is printed above the result.  ``--trace 1``
makes its first pass untraced, then traced passes, and reports per-layer
metrics per traced pass; the spans are written to
``perfbench/out/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 when every operation passed, 1 when one failed, and 2 when the benchmark
cannot run (no package sources, or a traced layer that should have been
reached recorded no calls).
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# fresh set-up processes timed after each pass
PROBES_PER_PASS = 8
# speed gauge: kernel period, window around an interval, fewest samples in
# it, and the kernel time that defines the reference speed (about its time
# when the machine described in README.md runs at full speed)
SAMPLE_S = 0.04
PAD_S = 0.5
MIN_SAMPLES = 8
REFERENCE_KERNEL_S = 0.001

# calls a traced run must record on each workload; zero means the tracer
# missed its target (an alias not rebound, a renamed entry point)
EXPECTED_CALLS = {
    "endgame": (
        "exact.bareiss_echelon", "exact.rows_solve", "exact.GradedVector.ops",
        "liealg.UgWindow.mul_keys", "liealg.UgWindow.normal_order",
        "liealg.DualOdd.mul_keys", "liealg.OddSym.coderivation_bracket_key",
        "liealg.contract", "keller.LieTriple._d_x_key",
        "keller.LieTriple._rmul_key", "keller.LieTriple._lmul_key",
        "keller.AugmentationCone.build_homotopy", "hochschild.Cochain.value",
        "hochschild.total_differential", "trio.XDerived.value",
        "duflo.lift_central_through_projection",
        "duflo.null_homotopy", "duflo.koszul_preimage",
        "duflo.LinearXCochain.value"),
    "certificates": (
        "exact.GradedVector.ops", "liealg.UgWindow.mul_keys",
        "liealg.UgWindow.normal_order", "liealg.DualOdd.mul_keys",
        "liealg.contract", "keller.LieTriple._d_x_key",
        "keller.LieTriple._rmul_key", "keller.LieTriple._lmul_key",
        "keller.row_exactness_certificate", "keller.ModuleCochain.value",
        "hochschild.Cochain.value", "hochschild.Derived.value",
        "trio.XCochain.value", "trio.XDerived.value", "trio.EndCochain.value",
        "duflo.DufloContext.homotopy_component",
        "suites.suite_hochschild_axioms", "suites.suite_phi_psi"),
    "elimination": (
        "exact.bareiss_echelon", "exact.rows_solve", "exact.rows_nullspace",
        "exact.rows_rank", "exact.cohomology_slice", "exact.GradedVector.ops",
        "liealg.UgWindow.mul_keys", "liealg.OddSym.coderivation_bracket_key",
        "keller.LieTriple._d_x_key", "keller.LieTriple._lmul_key",
        "keller.AugmentationCone.build_homotopy",
        "keller.kernel_dimension_match", "hochschild.total_differential",
        "hochschild.interior_hh"),
}


class BenchError(Exception):
    """The benchmark itself cannot run as asked."""


def import_package():
    """Import hochduflo from this checkout's sources, and from nowhere else."""
    if not (SRC / "hochduflo" / "__init__.py").is_file():
        raise BenchError("no package sources at %s" % SRC)
    sys.path.insert(0, str(SRC))
    import hochduflo
    if Path(hochduflo.__file__).resolve().parent != SRC / "hochduflo":
        raise BenchError("imported hochduflo from %s, not from %s"
                         % (hochduflo.__file__, SRC))
    sys.path.insert(0, str(HERE))


class SpeedGauge:
    """Converts measured intervals to seconds at a fixed machine speed.

    The shared machine this benchmark was built on changes speed by up to
    1.8x for tens of seconds at a time, and the package and a fixed stdlib
    kernel slow alike.  While the gauge runs, a timer signal times the
    kernel every ``SAMPLE_S`` seconds.  An interval is then reported as its
    time, less the kernel's own time inside it, times ``REFERENCE_KERNEL_S``
    over the kernel's median time within ``PAD_S`` of the interval.
    """

    def __init__(self):
        self.times = []
        self.costs = []

    def _sample(self, signum, frame):
        t = time.perf_counter()
        _kernel()
        self.times.append(t)
        self.costs.append(time.perf_counter() - t)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, a, b):
        lo = bisect.bisect_left(self.times, a - PAD_S)
        hi = bisect.bisect_right(self.times, b + PAD_S)
        if hi - lo < MIN_SAMPLES:
            raise BenchError("%d speed samples around an interval of %.3f s"
                             % (hi - lo, b - a))
        inside = sum(self.costs[bisect.bisect_left(self.times, a):
                                bisect.bisect_right(self.times, b)])
        return (b - a - inside) * REFERENCE_KERNEL_S \
            / statistics.median(self.costs[lo:hi])


_ZEROS = [0] * 20000
_ROW = [i * i + 12345678901 for i in range(300)]


def _kernel():
    """Fixed stdlib work shaped like the package's own: a tuple-keyed dict
    with integer arithmetic, as in the lazy evaluators, then long list scans
    and a big-integer row operation, as in elimination."""
    d = {}
    s = 1
    for i in range(1000):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i * s
        s = (s * 31 + i) % 1000003
    n = 0
    for i in range(0, len(_ZEROS), 5000):
        n += any(_ZEROS[i:])
    return d, n, [(7 * x - 3 * y) // 1 for x, y in zip(_ROW, _ROW)]


def elapsed(a, b):
    return b - a


class Pass:
    def __init__(self):
        self.setup = (0.0, 0.0)     # building the workload's contexts
        self.ops = []               # (start, end, passed) per operation
        self.attempted = 0
        self.failures = []

    def wall(self, measure=elapsed):
        """Set-up plus every operation, each interval timed by ``measure``."""
        return measure(*self.setup) + sum(measure(a, b)
                                          for a, b, _ in self.ops)

    def latencies(self, measure=elapsed):
        return [measure(a, b) for a, b, passed in self.ops if passed]


def run_pass(workload, seed, tracer=None):
    """Build the workload's contexts and run its operation list once."""
    result = Pass()
    gc.collect()
    t0 = time.perf_counter()
    try:
        ops = workload.operations(workload.setup())
    except Exception as exc:
        ops = [("setup", lambda exc=exc: exc)]
    result.setup = (t0, time.perf_counter())
    for name, fn in ops:
        result.attempted += 1
        a = time.perf_counter()
        try:
            witness = fn() if tracer is None else tracer.span("op." + name, fn)
        except Exception as exc:    # raised or refused (WindowOverflow)
            witness = "%s: %s" % (type(exc).__name__, exc)
        result.ops.append((a, time.perf_counter(), witness is None))
        if witness is not None:
            result.failures.append({"op": name, "seed": seed,
                                    "witness": repr(witness)[:300]})
    return result


def repeat(step, seconds):
    """Call ``step(i)`` at least twice, then again while the longest call so
    far would still end within ``seconds``; return the results."""
    start = time.perf_counter()
    results = []
    longest = 0.0
    while True:
        t = time.perf_counter()
        results.append(step(len(results)))
        longest = max(longest, time.perf_counter() - t)
        if len(results) >= 2 and \
                time.perf_counter() - start + longest > seconds:
            return results


def measure_setup(workload_name, seed):
    """Wall times of fresh processes that import and set up.

    They are not scaled: a probe runs in a process of its own, where the
    gauge does not run, and the kernel timed just before a probe tracked
    its time worse than not scaling it at all.
    """
    times = []
    for _ in range(PROBES_PER_PASS):
        t0 = time.perf_counter()
        # a blocking wait: with a timeout, subprocess polls at up to 50 ms
        # steps and the measured time comes out rounded to them
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload_name, "--seed", str(seed),
             "--setup-probe"], cwd=str(ROOT))
        dt = time.perf_counter() - t0
        if probe.returncode:
            raise BenchError("set-up probe exited with %d" % probe.returncode)
        times.append(dt)
    return times


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(passes, gauge, setup_times):
    measure = gauge.scaled
    latencies = [dt for p in passes for dt in p.latencies(measure)] \
        or [math.nan]
    return {
        "wall_s": (statistics.median(p.wall(measure) for p in passes), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_p90_s": (nearest_rank(latencies, 0.9), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
    }


def write_trace(tracer, workload_name, seed, metrics):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / ("trace-%s-%d.json" % (workload_name, seed))
    with open(path, "w") as fh:
        json.dump({"workload": workload_name, "seed": seed,
                   "metrics": metrics,
                   "spans": ["id", "parent", "name", "start", "end"],
                   "records": tracer.spans}, fh)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        import_package()
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            raise BenchError("unknown workload %r; known: %s"
                             % (args.workload, ", ".join(sorted(WORKLOADS))))
        workload = WORKLOADS[args.workload](args.seed)
        if args.setup_probe:
            workload.setup()
            return 0

        if args.trace:
            from tracer import Tracer
            tracer = Tracer()

            def step(i):
                # the first pass is untraced, for the overhead ratio
                if i == 0:
                    return run_pass(workload, args.seed)
                tracer.install()
                try:
                    return run_pass(workload, args.seed, tracer)
                finally:
                    tracer.restore()

            passes = repeat(step, args.seconds)
            traced = passes[1:]
            missing = [name for name in EXPECTED_CALLS[args.workload]
                       if not any(tracer.calls(k) for k in tracer.stats
                                  if k == name or k.startswith(name + "."))]
            if missing:
                raise BenchError("traced run recorded no calls of: %s"
                                 % ", ".join(missing))
            pass_s = statistics.median(p.wall() for p in traced)
            metrics = tracer.per_layer(len(traced), pass_s,
                                       pass_s / passes[0].wall())
            path = write_trace(tracer, args.workload, args.seed,
                               {k: v[0] for k, v in metrics.items()})
            print("spans written to %s" % path.relative_to(ROOT))
        else:
            gauge = SpeedGauge()
            setup_times = []

            def step(i):
                gauge.start()
                try:
                    result = run_pass(workload, args.seed)
                finally:
                    gauge.stop()
                # probes between passes sample the machine at several times
                setup_times.extend(measure_setup(args.workload, args.seed))
                return result

            passes = repeat(step, args.seconds)
            metrics = end_to_end(passes, gauge, setup_times)
            print("unscaled: median pass %.3f s; median kernel %.3f ms "
                  "(reference %.3f ms)"
                  % (statistics.median(p.wall() for p in passes),
                     1e3 * statistics.median(gauge.costs),
                     1e3 * REFERENCE_KERNEL_S))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for f in failures[:20]:
        print("FAILED %(op)s (seed %(seed)d): %(witness)s" % f)
    print("%s seed %d: %d passes, %d operations, %d failed, "
          "ops_failed_ratio %.4f ratio"
          % (args.workload, args.seed, len(passes), attempted, len(failures),
             len(failures) / attempted))
    for name, (value, unit) in metrics.items():
        print("  %-48s %14.6f %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
