"""Command-line harness: load structure constants, run suites, print reports.

Reports are bitwise-reproducible given the configuration and seed; all
rationals are printed exactly (as p/q strings in JSON mode).  Exit status is
nonzero whenever a check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from .exact import (GradedMap, StructuralError, cohomology_slice,
                    rows_nullspace, rows_rank)
from .liealg import (LieAlgebra, OddSym, DualOdd, SymPoly, UgWindow,
                     ce_hom_matrix, ce_module_sym, ce_module_ug)
from .hochschild import dual_odd_algebra, interior_hh
from . import suites as S
from . import duflo as D


BUNDLED = {"sl2", "heisenberg", "aff1", "abelian1", "abelian2"}


def load_lie_algebra(path_or_name) -> LieAlgebra:
    """Load and validate structure constants from JSON (file or bundled name).

    The document format is {"name", "dimension", "brackets": [{"i", "j",
    "coeffs": {"k": "p/q"}}]} with 1-based indices; unlisted brackets are
    zero and antisymmetry is completed automatically.
    """
    name = str(path_or_name)
    try:
        if name in BUNDLED:
            with resources.files("hochduflo.data").joinpath(name + ".json") \
                    .open() as fh:
                g = LieAlgebra.from_dict(json.load(fh))
        else:
            g = LieAlgebra.from_json_file(name)
    except OSError as exc:
        raise StructuralError("cannot read %s: %s"
                              % (name, exc.strerror or exc))
    except ValueError as exc:           # malformed JSON or number
        raise StructuralError("malformed structure constants in %s: %s"
                              % (name, exc))
    except KeyError as exc:
        raise StructuralError("structure constants in %s lack the field %s"
                              % (name, exc))
    report = g.validate()
    if not report.ok:
        raise StructuralError(
            "Jacobi identity fails at (i,j,k) = %s"
            % (tuple(x + 1 for x in report.jacobi_violations[0]),))
    return g


def _print_report(report, as_json):
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return
    print("suite %-22s %s" % (report.suite,
                              "pass" if report.ok else "FAIL"))
    for c in report.checks:
        line = "  %-42s %-7s %7.2fs" % (c.name, c.status, c.elapsed)
        if c.status == "fail" and c.witness is not None:
            line += "   witness: %r" % (c.witness,)
        if c.status == "skipped" and c.witness is not None:
            line += "   refused: %r" % (c.witness,)
        print(line)


def cmd_suite(args):
    g = load_lie_algebra(args.lie)
    reports = S.run_suite(args.name, lie=g, max_arity=args.max_arity,
                          pbw=args.pbw, series_order=args.series_order,
                          seed=args.seed, trials=args.trials)
    ok = True
    for r in reports:
        _print_report(r, args.json)
        ok = ok and r.ok
    return 0 if ok else 1


def cmd_cohomology(args):
    g = load_lie_algebra(args.lie)
    odd = OddSym(g)
    out = {"lie": g.name, "kind": "chevalley-eilenberg",
           "coefficients": args.coeff, "dims": {}}
    if args.coeff == "trivial":
        dual = DualOdd(g)
        d_g = dual.differential(odd)
        zero = GradedMap.zero(dual.space, dual.space, 1)
        for n in range(0, g.dimension + 1):
            d_in = d_g if n > 0 else zero
            d_out = d_g if n < g.dimension else zero
            dim, _ = cohomology_slice(d_in, d_out, n)
            out["dims"][str(n)] = dim
    elif args.coeff in ("sg", "ug"):
        if args.coeff == "sg":
            module = ce_module_sym(SymPoly(g, args.pbw))
        else:
            module = ce_module_ug(UgWindow(g, args.pbw))
        # matrices of d_CE on the hom windows, sliced by arity
        prev_rank = 0
        for n in range(0, g.dimension + 1):
            rows, src = ce_hom_matrix(odd, module, module.space.keys, n)
            kernel = len(rows_nullspace(rows, len(src))) if src else 0
            out["dims"][str(n)] = kernel - prev_rank
            prev_rank = rows_rank(rows) if rows else 0
    else:
        raise StructuralError("unknown coefficients %r" % args.coeff)
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        dims = [out["dims"][str(n)] for n in range(0, g.dimension + 1)]
        print("H_CE(%s; %s) dims in degrees 0..%d: %s"
              % (g.name, args.coeff, g.dimension, tuple(dims)))
    return 0


def cmd_duflo_series(args):
    g = load_lie_algebra(args.lie)
    J, Js = D.duflo_series(g, args.order)
    det = D.todd_determinant(g, args.order)
    bad = D.invariance_defects(g, J)

    def poly_dict(p):
        return {"".join(str(i + 1) for i in key) or "1": str(c)
                for key, c in sorted(p.coeffs.items())}

    out = {"lie": g.name, "order": args.order,
           "J": poly_dict(J), "J_sqrt": poly_dict(Js),
           "determinant_matches": det == J,
           "invariant": not bad,
           "sqrt_squares_back": (Js * Js) == J}
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print("Duflo series of %s to order %d" % (g.name, args.order))
        print("  J       =", poly_dict(J))
        print("  J^{1/2} =", poly_dict(Js))
        print("  determinant route matches:", out["determinant_matches"])
        print("  g-invariant:", out["invariant"])
    return 0


def cmd_hh(args):
    if args.algebra != "dual-odd":
        raise StructuralError("only the dual-odd algebra is exposed here")
    g = load_lie_algebra(args.lie)
    B = dual_odd_algebra(DualOdd(g), OddSym(g))
    out = {"lie": g.name, "algebra": "dual-odd", "window": args.window,
           "interior_dims": {}}
    for n in range(args.min_degree, args.max_degree + 1):
        dim, _ = interior_hh(B, n, args.window)
        out["interior_dims"][str(n)] = dim
    out["note"] = ("interior classes are reported one arity below the "
                   "window so every cocycle condition was checked; at a "
                   "finite window the sum and product totalizations agree, "
                   "their divergence is a colimit-versus-limit phenomenon")
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print("interior Hochschild dimensions of the dual-odd algebra of %s "
              "(window %d):" % (g.name, args.window))
        for n in range(args.min_degree, args.max_degree + 1):
            print("  degree %2d: %d" % (n, out["interior_dims"][str(n)]))
        print("  note:", out["note"])
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hochduflo",
        description="exact verification harness for the windowed "
                    "Hochschild/Gerstenhaber calculus and the Duflo "
                    "correspondence")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="run a verification suite")
    p.add_argument("name", help="suite name or 'all'")
    # the same flag after the subcommand; left out there, it keeps the above
    p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                   help="machine-readable output")
    p.add_argument("--lie", default="aff1",
                   help="bundled name or JSON path (default aff1)")
    p.add_argument("--max-arity", type=int, default=3, dest="max_arity")
    p.add_argument("--pbw", type=int, default=3)
    p.add_argument("--series-order", type=int, default=4, dest="series_order")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("cohomology", help="cohomology dimension tables")
    p.add_argument("kind", choices=["ce"], help="complex family")
    p.add_argument("--lie", default="sl2")
    p.add_argument("--coeff", default="trivial",
                   choices=["trivial", "sg", "ug"])
    p.add_argument("--pbw", type=int, default=2)
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("duflo", help="Duflo series reports")
    p.add_argument("what", choices=["series"])
    p.add_argument("--lie", default="sl2")
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(fn=cmd_duflo_series)

    p = sub.add_parser("hh", help="interior Hochschild dimensions")
    p.add_argument("--algebra", default="dual-odd")
    p.add_argument("--lie", default="abelian1")
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--min-degree", type=int, default=0, dest="min_degree")
    p.add_argument("--max-degree", type=int, default=0, dest="max_degree")
    p.set_defaults(fn=cmd_hh)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StructuralError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
