"""Acceptance gate: every criterion at its stated scale, zero tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
inline).  All arithmetic is exact rational; every equality below is on the
nose.  Window conventions: "PBW <= N" bounds the letters and supports of the
seeded random cochains; ambient value windows are chosen larger so no
truncation is silent, and out-of-window requests raise instead of dropping.
"""

import json
import time
from pathlib import Path

from hochduflo.exact import derive_seed
from hochduflo.liealg import LieAlgebra
from hochduflo.keller import LieTriple, row_exactness_certificate
from hochduflo.suites import (suite_duflo_endgame, suite_duflo_maps,
                              suite_hochschild_axioms, suite_homotopy_identity,
                              suite_phi_psi, suite_sum_example,
                              suite_topform_sweep, suite_trio,
                              suite_vanishing)


GOLDEN = Path(__file__).parent / "golden"


def _assert_golden(name, report):
    """The canonical report (timings off) matches its committed golden file
    byte for byte; the files were written by the same suite calls."""
    got = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    assert got == (GOLDEN / (name + ".json")).read_text(), name


def _report(tag, ok, elapsed, detail=""):
    line = "[%s] %s (%.1fs)%s" % (tag, "PASS" if ok else "FAIL", elapsed,
                                  " " + detail if detail else "")
    print(line)
    assert ok, line


def test_ac1_hochschild_axioms():
    """Operator identities over both dual algebras, P = 4, 200 trials."""
    t0 = time.time()
    ok = True
    detail = []
    reports = {}
    for g in (LieAlgebra.aff1(), LieAlgebra.sl2()):
        report = suite_hochschild_axioms(g, max_arity=4, trials=200, seed=0)
        ok = ok and report.ok
        detail.append("%s:%s" % (g.name, "ok" if report.ok else "FAIL"))
        reports[g.name] = report
    _report("AC1", ok, time.time() - t0, ",".join(detail))
    for name, report in reports.items():
        _assert_golden("ac1_" + name, report)


def test_ac2_trio_complex():
    """Embedding intertwines structure on 50 random trio cochains."""
    t0 = time.time()
    report = suite_trio(LieAlgebra.aff1(), trials=50, seed=0, pbw=5)
    _report("AC2", report.ok, time.time() - t0,
            ";".join(c.name for c in report.checks if not c.ok))
    _assert_golden("ac2", report)


def test_ac3_keller_homotopies():
    """One-sided homotopy identities on full windows, four algebras.

    Residuals are evaluated on the full enumerated input window whenever the
    combination stays below two hundred thousand points, and on a dense
    deterministic sample otherwise; every evaluation is exact.
    """
    t0 = time.time()
    ok = True
    witnesses = []
    for g in (LieAlgebra.abelian(1), LieAlgebra.aff1(),
              LieAlgebra.heisenberg3(), LieAlgebra.sl2()):
        triple = LieTriple(g, 5)
        for side in ("R", "L"):
            for p in range(0, 3):
                for q in range(0, 3):
                    for r in (0, -1):
                        n_inputs = 60 if g.dimension >= 3 else 120
                        bad = row_exactness_certificate(
                            triple, side, p, q, r,
                            derive_seed("ac3", g.name, side, p, q, r),
                            n_inputs=n_inputs)
                        if bad:
                            ok = False
                            witnesses.append((g.name, side, p, q, r))
    sweep = suite_topform_sweep(max_dim=4)
    ok = ok and sweep.ok
    _report("AC3", ok, time.time() - t0, repr(witnesses[:1]))


def test_ac4_vanishing_machinery():
    """Filtration homotopy on the augmentation cone and the tail bound."""
    t0 = time.time()
    ok = True
    reports = {}
    for g in (LieAlgebra.aff1(), LieAlgebra.sl2()):
        report = suite_vanishing(g, depth=4, seed=0)
        ok = ok and report.ok
        reports[g.name] = report
    _report("AC4", ok, time.time() - t0)
    for name, report in reports.items():
        _assert_golden("ac4_" + name, report)


def test_ac5_phi_psi_embeddings():
    t0 = time.time()
    report = suite_phi_psi(LieAlgebra.aff1(), trials=50, seed=0)
    _report("AC5", report.ok, time.time() - t0,
            ";".join(c.name for c in report.checks if not c.ok))
    _assert_golden("ac5", report)


def test_ac6_sum_example():
    t0 = time.time()
    report = suite_sum_example(max_window=6)
    _report("AC6", report.ok, time.time() - t0)
    _assert_golden("ac6", report)


def test_ac7_section_five_maps():
    t0 = time.time()
    report = suite_duflo_maps(LieAlgebra.aff1(), trials=50, seed=0)
    _report("AC7", report.ok, time.time() - t0,
            ";".join(c.name for c in report.checks if not c.ok))
    _assert_golden("ac7", report)


def test_ac8_homotopy_identity():
    """psi_1 - psi_2 = h D + d_CE h: 100 elements for aff(1), 25 for sl2."""
    t0 = time.time()
    r1 = suite_homotopy_identity(LieAlgebra.aff1(), trials=100, seed=0)
    r2 = suite_homotopy_identity(LieAlgebra.sl2(), trials=25, seed=0)
    _report("AC8", r1.ok and r2.ok, time.time() - t0)
    _assert_golden("ac8_aff1", r1)
    _assert_golden("ac8_sl2", r2)


def test_ac9_duflo_endgame():
    """Corrected symmetrization is multiplicative on the Casimir line, the
    plain one is not, and the route classes agree through the bimodule."""
    t0 = time.time()
    report = suite_duflo_endgame(LieAlgebra.sl2(), pbw=6, series_order=4,
                                 seed=0)
    _report("AC9", report.ok, time.time() - t0,
            ";".join(c.name for c in report.checks if not c.ok))
    _assert_golden("ac9", report)


def test_ac10_appendix_suites():
    """Coalgebra toolbox: run the appendix test files' own checks."""
    t0 = time.time()
    import subprocess
    import sys
    from pathlib import Path
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         str(Path(__file__).parent / "test_coalgebra.py")],
        capture_output=True, text=True, timeout=600)
    ok = proc.returncode == 0
    _report("AC10", ok, time.time() - t0,
            proc.stdout.splitlines()[-1] if proc.stdout else "")
