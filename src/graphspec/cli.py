"""Command-line front end.

Subcommands: validate, spectrum, compare, certify, curvature, bounds,
random-audit, dump-operator.  Exit codes: 0 success / certificate holds,
1 usage error, 2 certificate fails or rigidity conclusion false,
3 not applicable / unsupported equality pattern, 4 invalid graph file.

All JSON output is deterministic for a fixed (input, flags, seed): keys are
sorted and numbers are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys

import numpy as np

from . import __version__
from .combinatorial import fiedler_bounds, friedman_bounds
from .comparisons import ALL_COMPARISONS, ComparisonCertificate, run_all
from .curvature import (
    NotApplicable,
    bakry_emery_curvature,
    certify_lichnerowicz,
    ollivier_curvature_all,
)
from .fixtures import random_graph
from .graph import (
    GraphFormatError,
    GraphValidationError,
    NotUnitWeight,
    load,
    validate,
)
from .operators import operator_by_label
from .rigidity import ALL_RIGIDITY, EqualityPatternUnsupported, NotNormalized
from .spectra import eigensolve

OPERATOR_LABELS = (
    "FullLaplacian",
    "DirichletLaplacian",
    "NeumannLaplacian",
    "InteriorLaplacian",
)

_FLOAT_TOKEN = re.compile(r'"@@f:([^"]*)@@"')


def _tokenize_floats(obj):
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return repr(obj)
        return f"@@f:{obj:.17g}@@"
    if isinstance(obj, dict):
        return {k: _tokenize_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tokenize_floats(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_tokenize_floats(float(v)) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _tokenize_floats(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def dumps_json(obj) -> str:
    """JSON with sorted keys and 17-significant-digit numbers."""
    text = json.dumps(_tokenize_floats(obj), indent=2, sort_keys=True)
    return _FLOAT_TOKEN.sub(r"\1", text)


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
            {"name": c.name, "holds": c.holds, "witness": _witness(c.witness)}
            for c in report.conditions
        ],
        "extra": report.extra,
    }


def _witness(value):
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, tuple):
        return [_witness(v) for v in value]
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


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
    out = {}
    for label in OPERATOR_LABELS:
        spec = eigensolve(operator_by_label(graph, label))
        out[label] = [float(v) for v in spec.eigenvalues]
    print(dumps_json(_report(args, out)))
    return 0


def cmd_dump_operator(args) -> int:
    graph = _load_graph(args.graph)
    op = operator_by_label(graph, args.operator)
    out = {
        "label": op.label,
        "matrix": [[float(v) for v in row] for row in op.matrix],
        "inner_measure": [float(v) for v in op.inner_measure],
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
    except (NotUnitWeight, NotNormalized) as exc:
        sys.stderr.write(f"not applicable: {exc}\n")
        return 3
    print(dumps_json(_report(args, rigidity_dict(report))))
    return 0 if report.conclusion else 2


def cmd_curvature(args) -> int:
    graph = _load_graph(args.graph, require_boundary=(args.on == "interior"))
    if args.on == "interior":
        from .graph import component_count, interior_subgraph

        target = interior_subgraph(graph)
        if target.vertex_count == 0 or component_count(target) != 1:
            sys.stderr.write("interior subgraph is not connected\n")
            return 3
    else:
        target = graph
    if args.kind == "be":
        n = float("inf") if args.n == "inf" else float(args.n)
        result = bakry_emery_curvature(target, n)
        per = {str(k): v for k, v in result.per_location.items()}
    else:
        result = ollivier_curvature_all(target)
        per = {f"{u},{v}": val for (u, v), val in result.per_location.items()}
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
    except NotUnitWeight as exc:
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
    p.add_argument("--operator", choices=OPERATOR_LABELS, default="FullLaplacian")
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
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", dest="table", action="store_false", default=False)
    p.add_argument("--table", dest="table", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "certify",
        help="test the structural equality characterization for one comparison",
    )
    p.add_argument("--graph", required=True)
    p.add_argument("--theorem", choices=sorted(ALL_RIGIDITY), required=True)
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("curvature", help="per-vertex curvature-dimension constants "
                       "or per-edge transport curvature")
    p.add_argument("--graph", required=True)
    p.add_argument("--kind", choices=["be", "ollivier"], required=True)
    p.add_argument("--n", default="inf", help="dimension parameter for --kind be (number or 'inf')")
    p.add_argument("--on", choices=["g", "interior"], default="g")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("bounds", help="Fiedler-type (edge connectivity) or "
                       "Friedman-type (path comparison) lower bounds, unit weight only")
    p.add_argument("--graph", required=True)
    p.add_argument("--family", choices=["fiedler", "friedman"], required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("random-audit", help="run every comparison certificate over "
                       "seeded random graphs and report the failure count")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--max-v", type=int, default=12)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--curvature", action="store_true",
                   help="also check the curvature spectral-gap bounds where applicable")
    p.set_defaults(func=cmd_random_audit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
