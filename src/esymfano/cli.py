"""Command-line front end.

Subcommands: classify, equations, isolated, brute, xcheck, invariants,
reciprocals.  Matrix documents come from a file argument or stdin.  Each
subcommand returns (report, exit status) or raises; main() alone renders the
report to stdout (flat deterministic text, or JSON with --json) and turns
malformed or unreadable input (any ValueError, or an exceeded budget) into
one "error:" line on stderr.  Any other exception is a bug and propagates.
Exit status: 0 success, 1 mathematical negative, 2 input error, 3 internal
inconsistency (the structural and direct verdicts disagree).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fano, invariants
from .fields import QQ, FieldError, PrimeField, field_from_descriptor
from .poly import (
    LinearForm,
    default_names,
    format_monomial,
    format_polynomial,
    grlex_key,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(ValueError):
    pass


# -- matrix documents -------------------------------------------------------


def parse_matrix_document(text: str):
    """First non-comment line is the field descriptor ('Q' or 'F<p>');
    each following line is one whitespace-separated matrix row."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise InputError("empty matrix document")
    try:
        field = field_from_descriptor(lines[0])
    except FieldError as e:
        raise InputError(str(e)) from None
    rows = []
    width = None
    for line in lines[1:]:
        try:
            row = tuple(field.parse(tok) for tok in line.split())
        except FieldError as e:
            raise InputError(str(e)) from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError("ragged matrix document")
        rows.append(row)
    if not rows:
        raise InputError("matrix document has no rows")
    return field, tuple(rows)


def fmt_matrix(rows, field):
    return [[field.fmt(x) for x in row] for row in rows]


# -- report rendering -------------------------------------------------------


def emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report))
    else:
        for line in _flatten(report, ""):
            print(line)


def _flatten(value, path):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{path}{k}." if not _is_leaf(v) else f"{path}{k}")
    elif isinstance(value, list) and not _is_leaf(value):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{path}[{i}]." if not _is_leaf(v) else f"{path}[{i}]")
    else:
        yield f"{path}: {_leaf_str(value)}"


def _is_leaf(v):
    if isinstance(v, dict):
        return False
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return True


def _leaf_str(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return "[" + ", ".join(_leaf_str(x) for x in v) + "]"
    if v is None:
        return "null"
    return str(v)


def _read_document(path):
    if path in (None, "-"):
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(str(e)) from None


# -- subcommands ------------------------------------------------------------


def cmd_classify(args):
    field, rows = parse_matrix_document(_read_document(args.matrix))
    T = fano.PlaneMatrix(field, rows)
    verdict = fano.classify(T)
    expansion = fano.membership_expansion(T)
    direct = expansion.is_zero()
    report = {
        "command": "classify",
        "field": repr(field),
        "d": T.d,
        "m": T.m,
        "matrix": fmt_matrix(T.rows, field),
        "member": verdict.member,
        "direct_member": direct,
    }
    if verdict.member != direct:
        report["internal_error"] = "structural and direct verdicts disagree"
        return report, EXIT_INTERNAL
    cert = verdict.certificate
    if isinstance(cert, fano.ZeroPair):
        report["certificate"] = {
            "kind": "zero_pair",
            "columns": [cert.i + 1, cert.j + 1],
        }
    elif isinstance(cert, fano.PartitionCertificate):
        report["certificate"] = {
            "kind": "partition",
            "classes": [[j + 1 for j in cls] for cls in cert.classes],
            "num_classes": cert.num_classes,
            "scalars": [field.fmt(c) for c in cert.scalars],
            "spans_full_span_space": verdict.spans_full_span_space,
        }
    else:
        witness = min(expansion.terms, key=grlex_key)
        report["witness_monomial"] = format_monomial(witness, default_names(T.d, "s"))
    return report, EXIT_OK if verdict.member else EXIT_NEGATIVE


def cmd_equations(args):
    d, m = args.d, args.m
    if not 1 <= d < m:
        raise InputError(f"need 1 <= d < m, got d={d}, m={m}")
    if args.avoid:
        try:
            avoided = tuple(sorted(int(t) - 1 for t in args.avoid.split(",")))
        except ValueError:
            raise InputError(f"bad --avoid list {args.avoid!r}") from None
        if len(avoided) != m - d or any(not 0 <= j < m for j in avoided):
            raise InputError("--avoid must list m-d distinct column indices in 1..m")
        if len(set(avoided)) != len(avoided):
            raise InputError("--avoid indices must be distinct")
    else:
        avoided = tuple(range(d, m))
    pivots = tuple(j for j in range(m) if j not in avoided)
    chart = fano.Chart(avoided, pivots)
    equations = fano.fano_chart_equations(d, m, chart)
    a_names = [f"a{i+1}_{k+1}" for i in range(d) for k in range(m - d)]
    s_names = default_names(d, "s")
    report = {
        "command": "equations",
        "d": d,
        "m": m,
        "avoided_columns": [j + 1 for j in avoided],
        "identity_columns": [j + 1 for j in pivots],
        "unknowns": a_names,
        "equation_count": len(equations),
        "equations": [
            {
                "monomial": format_monomial(s_mono, s_names),
                "coefficient": format_polynomial(eq, a_names),
            }
            for s_mono, eq in equations
        ],
    }
    return report, EXIT_OK


def cmd_isolated(args):
    points = fano.enumerate_isolated(args.d)
    report = {
        "command": "isolated",
        "d": args.d,
        "m": 2 * args.d,
        "count": len(points),
        "points": [
            {
                "matching": [[a + 1, b + 1] for a, b in match],
                "matrix": fmt_matrix(T.rows, QQ),
            }
            for match, T in points
        ],
    }
    return report, EXIT_OK


def cmd_brute(args):
    field = PrimeField(args.prime)
    members = fano.brute_force_members(args.d, args.m, field, args.budget)
    total = fano.gaussian_binomial(args.m, args.d, field.characteristic)
    report = {
        "command": "brute",
        "d": args.d,
        "m": args.m,
        "p": field.characteristic,
        "total": total,
        "members": len(members),
        "member_matrices": [fmt_matrix(T.rows, field) for T in members],
    }
    return report, EXIT_OK


def cmd_xcheck(args):
    field = PrimeField(args.prime)
    result = fano.cross_check(args.d, args.m, field, args.budget)
    report = {
        "command": "xcheck",
        "d": result["d"],
        "m": result["m"],
        "p": result["p"],
        "total": result["total"],
        "members": result["members"],
        "mismatches": result["mismatches"],
        "certificate_histogram": result["certificate_histogram"],
        "class_count_histogram": {
            str(k): v for k, v in sorted(result["class_count_histogram"].items())
        },
    }
    if result["mismatches"]:
        report["mismatch_examples"] = [
            fmt_matrix(rows, field) for rows in result["mismatch_examples"]
        ]
    return report, EXIT_OK if result["mismatches"] == 0 else EXIT_INTERNAL


def _load_scenario(path):
    if path == "z2-example":
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise InputError(f"bad scenario file {path}: {e}") from None


def _square_size(matrix):
    """n if matrix is a list of n >= 1 lists of length n, else None."""
    if isinstance(matrix, list) and matrix:
        if all(isinstance(row, list) and len(row) == len(matrix) for row in matrix):
            return len(matrix)
    return None


def _check_scenario_shape(scenario):
    """Generators are a non-empty list of n x n matrices sharing one n >= 1,
    every seed is a list of n coefficients, and the degree, if given, is an
    integer."""
    if not isinstance(scenario, dict):
        raise InputError("bad scenario: not a JSON object")
    gens = scenario.get("generators")
    sizes = {_square_size(g) for g in gens} if isinstance(gens, list) else set()
    if len(sizes) != 1 or None in sizes:
        raise InputError(
            "bad scenario: generators must be a non-empty list of n x n matrices "
            "with one shared n >= 1"
        )
    (n,) = sizes
    seeds = scenario.get("seeds")
    if not isinstance(seeds, list) or any(
        not isinstance(s, list) or len(s) != n for s in seeds
    ):
        raise InputError(f"bad scenario: seeds must be lists of {n} coefficients")
    # type(), not isinstance(): a JSON true or false is a bool, an int subclass
    if "degree" in scenario and type(scenario["degree"]) is not int:
        raise InputError("bad scenario: degree must be an integer")


def cmd_invariants(args):
    scenario = _load_scenario(args.scenario)
    if scenario is None:
        result = invariants.z2_counterexample_report()
        report = {"command": "invariants", "scenario": "z2-example", **result}
        ok = (
            result["xy_invariant"]
            and result["single_image_membership_hits"] == 0
            and result["polarization_identity"]
            and result["algebra_membership"]
        )
        return report, EXIT_OK if ok else EXIT_NEGATIVE
    _check_scenario_shape(scenario)
    try:
        field = field_from_descriptor(str(scenario.get("field", "Q")))
        gens = [
            [[field.parse(str(x)) for x in row] for row in g]
            for g in scenario["generators"]
        ]
        seeds = [
            LinearForm(field, [field.parse(str(x)) for x in coeffs])
            for coeffs in scenario["seeds"]
        ]
    except ValueError as e:
        raise InputError(f"bad scenario: {e}") from None
    degree = args.degree if args.degree is not None else scenario.get("degree", 4)
    if degree < 0:
        raise InputError(f"degree bound must be non-negative, got {degree}")
    group = invariants.close_group(gens, field)
    result = invariants.generation_check(group, seeds, degree)
    report = {"command": "invariants", "scenario": args.scenario, **result}
    return report, EXIT_OK if result["generated"] else EXIT_NEGATIVE


def cmd_reciprocals(args):
    field, rows = parse_matrix_document(_read_document(args.matrix))
    forms = [LinearForm(field, row) for row in rows]
    basis = fano.reciprocal_relation_space(forms)
    n_classes = fano.proportionality_class_count(forms)
    report = {
        "command": "reciprocals",
        "field": repr(field),
        "num_forms": len(forms),
        "num_classes": n_classes,
        "relation_space_dim": len(basis),
        "basis": [[field.fmt(x) for x in vec] for vec in basis],
    }
    return report, EXIT_OK


# -- entry point ------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="esymfano",
        description="Planes on the almost-top elementary symmetric hypersurface, "
        "and symmetric-pullback polynomial invariants.",
    )
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("classify", help="decide membership of a plane, with certificate")
    p.add_argument("matrix", nargs="?", help="matrix document path (default stdin)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("equations", help="chart defining equations of the Fano scheme")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--avoid", help="comma-separated avoided columns (1-based)")
    p.set_defaults(func=cmd_equations)

    p = sub.add_parser("isolated", help="enumerate the isolated points for m = 2d")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_isolated)

    p = sub.add_parser("brute", help="exhaustive member enumeration over F_p")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(func=cmd_brute)

    p = sub.add_parser("xcheck", help="exhaustively compare classify vs direct expansion")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(func=cmd_xcheck)

    p = sub.add_parser("invariants", help="generation check or the built-in z2-example")
    p.add_argument("scenario", help="scenario JSON path, or 'z2-example'")
    p.add_argument("--degree", type=int, help="override the scenario degree bound")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("reciprocals", help="relation space of reciprocals of linear forms")
    p.add_argument("matrix", nargs="?", help="form document path (default stdin)")
    p.set_defaults(func=cmd_reciprocals)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, status = args.func(args)
    except (ValueError, fano.BudgetExceeded, invariants.ClosureBudgetExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    emit(report, args.json)
    return status


if __name__ == "__main__":
    sys.exit(main())
