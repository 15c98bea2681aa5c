"""Command-line front end.

Subcommands: validate, spectrum, compare, certify, curvature, bounds,
random-audit, dump-operator.  Exit codes: 0 success / certificate holds,
1 usage error, 2 certificate fails or rigidity conclusion false,
3 not applicable / unsupported equality pattern, 4 invalid graph file.

All JSON output is deterministic for a fixed (input, flags, seed).
``dumps_json`` writes it in one recursive pass: keys sorted, a 2-space
indent, finite floats with 17 significant digits and non-finite ones as
their quoted ``repr``.  The argument parser is built once per process,
when this module is imported, and every ``main`` call reuses it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from . import __version__
from .combinatorial import fiedler_bounds, friedman_bounds
from .comparisons import ALL_COMPARISONS, ComparisonCertificate, run_all
from .curvature import (
    bakry_emery_curvature,
    certify_lichnerowicz,
    ollivier_curvature_all,
)
from .fixtures import random_graph
from .graph import (
    GraphFormatError,
    GraphValidationError,
    NotApplicable,
    interior_subgraph,
    load,
    validate,
)
from .operators import BUILDERS, operator_by_label
from .rigidity import ALL_RIGIDITY, EqualityPatternUnsupported
from .spectra import spectrum


def dumps_json(obj) -> str:
    """JSON with sorted keys and 17-significant-digit numbers."""
    return _json(obj, "\n")


def _json(obj, newline: str) -> str:
    """The JSON text of ``obj``; ``newline`` is a line break followed by the
    indent of the line that ``obj`` starts on.  Keys are converted and
    sorted, and values refused, as ``json.dumps(sort_keys=True)`` does."""
    if isinstance(obj, float):
        return f"{obj:.17g}" if math.isfinite(obj) else _string(repr(obj))
    if isinstance(obj, str):
        return _string(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return repr(int(obj))
    if isinstance(obj, np.floating):
        return _json(float(obj), newline)
    inner = newline + "  "
    if isinstance(obj, dict):
        items = [f"{_string(_key(k))}: {_json(v, inner)}" for k, v in sorted(obj.items())]
        brackets = "{}"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray):
            obj = [float(v) for v in obj]
        items = [_json(v, inner) for v in obj]
        brackets = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def certificate_dict(cert: ComparisonCertificate) -> dict:
    return {
        "theorem_id": cert.theorem_id,
        "verdict": cert.verdict,
        "tolerance": cert.tolerance,
        "failing_indices": list(cert.failing_indices),
        "per_index": [
            {
                "index": r.index,
                "lhs": r.lhs,
                "rhs": r.rhs,
                "margin": r.margin,
                "equal": r.equal,
            }
            for r in cert.per_index
        ],
        "extra": cert.extra,
    }


def rigidity_dict(report) -> dict:
    return {
        "theorem_id": report.theorem_id,
        "conclusion": report.conclusion,
        "equality_observed": report.equality_observed,
        "consistent": report.consistent,
        "conditions": [
            {"name": c.name, "holds": c.holds, "witness": c.witness}
            for c in report.conditions
        ],
        "extra": report.extra,
    }


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _arg_type(convert, accept, expected):
    """An argparse ``type``: ``convert(text)`` when ``accept`` holds for it.
    A rejected value goes to ``_Parser.error`` (exit 1)."""

    def parse(text):
        try:
            value = convert(text)
            if accept(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return parse


_count = _arg_type(int, lambda v: v >= 0, "an integer >= 0")
# random_graph draws |V| from 3..max_v
_max_vertices = _arg_type(int, lambda v: v >= 3, "an integer >= 3")
_tolerance = _arg_type(float, lambda v: math.isfinite(v) and v >= 0.0, "a finite number >= 0")
# kept as given, so the invocation echoed in the report is unchanged
_dimension = _arg_type(str, lambda t: float(t) > 1.0, "a number > 1 or 'inf'")


def _load_graph(path, require_boundary=True):
    try:
        graph = load(path)
        validate(graph, require_boundary=require_boundary)
        return graph
    except (OSError, GraphFormatError, GraphValidationError) as exc:
        sys.stderr.write(f"invalid graph file: {exc}\n")
        raise SystemExit(4)


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _report(args, results, seed=None) -> dict:
    return {
        "graph_digest": _digest(args.graph) if getattr(args, "graph", None) else None,
        "invocation": {"command": args.command, **{
            k: v for k, v in vars(args).items() if k not in {"command", "func"}
        }},
        "results": results,
        "seed": seed,
        "tool_version": __version__,
    }


def cmd_validate(args) -> int:
    _load_graph(args.graph)
    print(dumps_json({"valid": True, "graph_digest": _digest(args.graph)}))
    return 0


def cmd_spectrum(args) -> int:
    graph = _load_graph(args.graph)
    out = {label: spectrum(graph, label).eigenvalues for label in BUILDERS}
    print(dumps_json(_report(args, out)))
    return 0


def cmd_dump_operator(args) -> int:
    graph = _load_graph(args.graph)
    op = operator_by_label(graph, args.operator)
    out = {
        "label": op.label,
        "matrix": list(op.matrix),
        "inner_measure": op.inner_measure,
    }
    print(dumps_json(_report(args, out)))
    return 0


def cmd_compare(args) -> int:
    graph = _load_graph(args.graph)
    if args.theorems == "all":
        names = list(ALL_COMPARISONS)
    else:
        names = [t.strip() for t in args.theorems.split(",")]
        unknown = [t for t in names if t not in ALL_COMPARISONS]
        if unknown:
            sys.stderr.write(f"unknown theorems: {unknown}\n")
            return 1
    certs = [ALL_COMPARISONS[name](graph, args.tol) for name in names]
    if args.table:
        for cert in certs:
            print(f"{cert.theorem_id:26s} {cert.verdict}")
            for r in cert.per_index:
                print(f"  i={r.index:<3d} lhs={r.lhs:.12g} rhs={r.rhs:.12g} margin={r.margin:.3e}")
    else:
        print(dumps_json(_report(args, [certificate_dict(c) for c in certs])))
    return 0 if all(c.holds for c in certs) else 2


def cmd_certify(args) -> int:
    graph = _load_graph(args.graph)
    checker = ALL_RIGIDITY[args.theorem]
    try:
        report = checker(graph, args.tol)
    except EqualityPatternUnsupported as exc:
        print(dumps_json(_report(args, {"unsupported": str(exc)})))
        return 3
    except NotApplicable as exc:
        sys.stderr.write(f"not applicable: {exc}\n")
        return 3
    print(dumps_json(_report(args, rigidity_dict(report))))
    return 0 if report.conclusion else 2


def cmd_curvature(args) -> int:
    graph = _load_graph(args.graph, require_boundary=(args.on == "interior"))
    target = interior_subgraph(graph) if args.on == "interior" else graph
    try:
        if args.kind == "be":
            result = bakry_emery_curvature(target, float(args.n))
            per = {str(k): v for k, v in result.per_location.items()}
        else:
            result = ollivier_curvature_all(target)
            per = {f"{u},{v}": val for (u, v), val in result.per_location.items()}
    except NotApplicable as exc:
        sys.stderr.write(f"not applicable: {exc}\n")
        return 3
    out = {"kind": result.kind, "dimension": result.dimension,
           "per_location": per, "global_min": result.global_min}
    print(dumps_json(_report(args, out)))
    return 0


def cmd_bounds(args) -> int:
    graph = _load_graph(args.graph)
    try:
        if args.family == "fiedler":
            cert = fiedler_bounds(graph, args.tol)
        else:
            cert = friedman_bounds(graph, args.tol)
    except NotApplicable as exc:
        sys.stderr.write(f"not applicable: {exc}\n")
        return 3
    print(dumps_json(_report(args, certificate_dict(cert))))
    return 0 if cert.holds else 2


def cmd_random_audit(args) -> int:
    rng = np.random.default_rng(args.seed)
    failures = []
    lichnerowicz_checked = 0
    for k in range(args.n):
        graph = random_graph(rng, max_vertices=args.max_v)
        for cert in run_all(graph, args.tol):
            if not cert.holds:
                failures.append({"instance": k, "theorem_id": cert.theorem_id,
                                 "failing_indices": list(cert.failing_indices)})
        if args.curvature:
            for variant in ("be-g-nu2", "ollivier-g-nu2"):
                try:
                    cert = certify_lichnerowicz(graph, variant, n=4.0, tol=args.tol)
                    lichnerowicz_checked += 1
                    if not cert.holds:
                        failures.append({"instance": k, "theorem_id": cert.theorem_id,
                                         "variant": variant})
                except NotApplicable:
                    pass
    out = {
        "instances": args.n,
        "max_vertices": args.max_v,
        "failures": failures,
        "failure_count": len(failures),
        "lichnerowicz_checked": lichnerowicz_checked,
    }
    print(dumps_json(_report(args, out, seed=args.seed)))
    return 0 if not failures else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphspec",
        description="Spectra of weighted graphs with boundary and certified "
        "eigenvalue comparisons.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph file against the structural axioms")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("spectrum", help="eigenvalues of the full, Dirichlet, Neumann "
                       "and interior operators, as JSON keyed by operator label")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("dump-operator", help="emit one operator matrix as JSON rows")
    p.add_argument("--graph", required=True)
    p.add_argument("--operator", choices=tuple(BUILDERS), default="FullLaplacian")
    p.set_defaults(func=cmd_dump_operator)

    p = sub.add_parser(
        "compare",
        help="certify eigenvalue comparisons: NeuVsLap (nu_i >= mu_i), "
        "DiriVsInteriorTwoSided (mu_i(Omega)+Deg_b bounds on lambda_i), "
        "NeuVsInterior (nu_i >= mu_i(Omega)), DiriVsNeuTwoSided "
        "(nu_i + s^2 bounds on lambda_i), LapVsDiri (mu_{i+|B|} >= lambda_i)",
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--theorems", default="all")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--json", dest="table", action="store_false", default=False)
    p.add_argument("--table", dest="table", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "certify",
        help="test the structural equality characterization for one comparison",
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--theorem", choices=sorted(ALL_RIGIDITY), required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-7)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("curvature", help="per-vertex curvature-dimension constants "
                       "or per-edge transport curvature")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", choices=["be", "ollivier"], required=True)
    p.add_argument("--n", type=_dimension, default="inf",
                   help="dimension parameter for --kind be (a number > 1, or 'inf')")
    p.add_argument("--on", choices=["g", "interior"], default="g")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("bounds", help="Fiedler-type (edge connectivity) or "
                       "Friedman-type (path comparison) lower bounds, unit weight only")
    p.add_argument("--graph", required=True)
    p.add_argument("--family", choices=["fiedler", "friedman"], required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("random-audit", help="run every comparison certificate over "
                       "seeded random graphs and report the failure count")
    p.add_argument("--n", type=_count, default=200)
    p.add_argument("--max-v", type=_max_vertices, default=12)
    p.add_argument("--seed", type=_count, default=42)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--curvature", action="store_true",
                   help="also check the curvature spectral-gap bounds where applicable")
    p.set_defaults(func=cmd_random_audit)

    return parser


# one parser per process: parse_args leaves no state on it between calls
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
