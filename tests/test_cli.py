"""Command-line harness: loading, reports, determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hochduflo.cli import BUNDLED, build_parser, load_lie_algebra, main
from hochduflo.exact import StructuralError
from hochduflo.liealg import LieAlgebra
from hochduflo.suites import run_suite


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "hochduflo.cli"] + args,
                          capture_output=True, text=True, timeout=600)
    return proc


def test_bundled_fixtures_load():
    assert load_lie_algebra("sl2").dimension == 3
    assert load_lie_algebra("heisenberg").dimension == 3
    assert load_lie_algebra("aff1").dimension == 2


def typed(table):
    return {ij: {k: (type(c), c) for k, c in comps.items()}
            for ij, comps in table.items()}


def test_bundled_tables_match_the_constructors():
    """A bundled algebra loads with the same structure constants as its
    constructor, integral ones as ``int``."""
    built = {"sl2": LieAlgebra.sl2(), "so3": LieAlgebra.so3(),
             "heisenberg": LieAlgebra.heisenberg3(),
             "aff1": LieAlgebra.aff1(), "abelian1": LieAlgebra.abelian(1),
             "abelian2": LieAlgebra.abelian(2)}
    assert set(built) == BUNDLED
    for name, g in built.items():
        assert typed(load_lie_algebra(name).table) == typed(g.table), name


def test_duflo_endgame_on_so3(capsys):
    """so(3) is semisimple by its Killing form, so the endgame runs its
    negative controls and the window-H^1 assertion, and passes all six
    checks with the report in its golden file."""
    assert main(["--json", "suite", "duflo-endgame", "--lie", "so3"]) == 0
    golden = Path(__file__).parent / "golden" / "endgame_so3.json"
    assert capsys.readouterr().out == golden.read_text()


def test_broken_fixture_names_triple(tmp_path):
    doc = {"name": "broken", "dimension": 3, "brackets": [
        {"i": 1, "j": 2, "coeffs": {"3": "1", "1": "1"}},
        {"i": 3, "j": 1, "coeffs": {"1": "2"}},
        {"i": 3, "j": 2, "coeffs": {"2": "-2"}}]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(StructuralError) as err:
        load_lie_algebra(str(path))
    assert "(" in str(err.value)          # the violating triple is printed


def test_rationals_parse(tmp_path):
    doc = {"name": "halves", "dimension": 2, "brackets": [
        {"i": 1, "j": 2, "coeffs": {"2": "1/2"}}]}
    path = tmp_path / "halves.json"
    path.write_text(json.dumps(doc))
    g = load_lie_algebra(str(path))
    from fractions import Fraction
    assert g.bracket(0, 1) == {1: Fraction(1, 2)}


CE_TABLE = [
    ("aff1", "trivial", [1, 1, 0]),
    ("aff1", "sg", [1, 1, 0]),
    ("aff1", "ug", [1, 1, 0]),
    ("sl2", "trivial", [1, 0, 0, 1]),
    ("sl2", "sg", [2, 0, 0, 2]),
    ("sl2", "ug", [2, 0, 0, 2]),
    ("heisenberg", "trivial", [1, 2, 2, 1]),
    ("heisenberg", "sg", [3, 11, 14, 6]),
    ("heisenberg", "ug", [3, 11, 14, 6]),
]


@pytest.mark.parametrize("lie, coeff, dims", CE_TABLE,
                         ids=["%s-%s" % row[:2] for row in CE_TABLE])
def test_cohomology_table(capsys, lie, coeff, dims):
    """CE cohomology dimensions in degrees 0 .. dim g at the default
    ``--pbw 2``."""
    assert main(["--json", "cohomology", "ce", "--lie", lie,
                 "--coeff", coeff]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dims"] == {str(n): dim for n, dim in enumerate(dims)}


def test_duflo_series_abelian():
    proc = run_cli(["--json", "duflo", "series", "--lie", "abelian2",
                    "--order", "4"])
    out = json.loads(proc.stdout)
    assert out["J"] == {"1": "1"}
    assert out["determinant_matches"] and out["invariant"]


def test_hh_dual_odd_window():
    proc = run_cli(["--json", "hh", "--algebra", "dual-odd",
                    "--lie", "abelian1", "--window", "5"])
    out = json.loads(proc.stdout)
    assert out["interior_dims"]["0"] == 5


def test_suite_runs_and_replays():
    args = ["--json", "suite", "sum-example", "--lie", "abelian1",
            "--seed", "3"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.returncode == 0
    assert a.stdout == b.stdout           # bitwise reproducible


def test_unknown_suite_fails_loudly():
    proc = run_cli(["suite", "no-such-suite"])
    assert proc.returncode == 2
    assert "unknown suite" in proc.stderr


def test_suite_exit_code_reflects_failures(monkeypatch):
    # a passing suite returns zero through the in-process entry point
    assert main(["suite", "sum-example", "--lie", "abelian1"]) == 0


def test_json_flag_after_subcommand():
    before = run_cli(["--json", "suite", "sum-example", "--lie", "abelian1"])
    after = run_cli(["suite", "sum-example", "--lie", "abelian1", "--json"])
    assert after.returncode == 0, after.stderr
    assert after.stdout == before.stdout
    assert json.loads(after.stdout)["suite"] == "sum-example"
    assert build_parser().parse_args(["suite", "sum-example"]).json is False


def test_timings_are_opt_in(capsys):
    args = ["suite", "sum-example", "--lie", "abelian1", "--json"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    canonical = "".join(json.dumps(r.to_dict(), indent=2, sort_keys=True)
                        + "\n" for r in run_suite(
                            "sum-example", lie=load_lie_algebra("abelian1")))
    assert plain == canonical
    assert main(args + ["--timings"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert timed["checks"]
    for check in timed["checks"]:
        assert isinstance(check.pop("seconds"), float)
    assert timed == json.loads(plain)


@pytest.mark.parametrize("content", [
    None,                                              # missing file
    "{\"name\": \"broken\", \"dimension\": 2,",        # malformed JSON
    json.dumps({"name": "noj", "dimension": 2, "brackets": [
        {"i": 1, "coeffs": {"2": "1"}}]}),             # entry without "j"
], ids=["missing", "malformed", "no-j"])
def test_bad_lie_input_is_a_one_line_error(tmp_path, capsys, content):
    path = tmp_path / "g.json"
    if content is not None:
        path.write_text(content)
    with pytest.raises(StructuralError):
        load_lie_algebra(str(path))
    assert main(["suite", "sum-example", "--lie", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["suite", "all", "--lie", "aff1", "--trials", "0"],
    ["suite", "all", "--lie", "aff1", "--pbw", "-1"],
    ["suite", "all", "--lie", "aff1", "--max-arity", "0"],
    ["suite", "all", "--lie", "aff1", "--series-order", "-1"],
    ["suite", "all", "--lie", "aff1", "--trials", "many"],
    ["cohomology", "ce", "--pbw", "-1"],
    ["duflo", "series", "--order", "-1"],
    ["hh", "--window", "-1"],
    ["hh", "--window", "0"],
    ["hh", "--min-degree", "1", "--max-degree", "0"],
    ["cohomology", "de-rham"],
    ["cohomology", "ce", "--coeff", "bogus"],
    [],
], ids=["trials", "pbw", "max-arity", "series-order", "not-int",
        "ce-pbw", "order", "window", "window-zero", "degrees", "choice",
        "coeff", "no-command"])
def test_out_of_range_flags_are_one_line_errors(capsys, argv):
    """A flag outside the range the README states exits 2 with one line on
    standard error, before anything is computed or printed."""
    try:
        status = main(argv)
    except SystemExit as exc:       # argparse refuses it while parsing
        status = exc.code
    out, err = capsys.readouterr()
    assert status == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_parser_errors_exit_two_with_one_line(capsys):
    """The parser and its subcommand parsers report a usage error as one
    ``error:`` line, without the usage text, and exit 2."""
    with pytest.raises(SystemExit) as exc:
        build_parser().error("argument --pbw: must be at least 0, got -1")
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "error: argument --pbw: must be at least 0, got -1\n")
