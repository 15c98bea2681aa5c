"""Command-line front end.

Subcommands: validate, spectrum, compare, certify, curvature, bounds,
random-audit, dump-operator.  Every call takes one path.  The parser checks
every argument, so a bad one exits 1 before any file is read.  ``main`` then
reads and checks the graph file, and exits 4 when it cannot be read or breaks
an axiom; every command but ``curvature --on g`` needs a boundary.  It calls
the subcommand's ``cmd_*`` with the graph and the arguments, which returns
its results and exit 0 or 2 (certificate holds / fails, rigidity conclusion
true / false), and writes the JSON report of those results.  ``main`` maps a
``NotApplicable`` to exit 3, with ``not applicable: ...`` on stderr and no
report; LapVsDiri raises it where equality fails at two or more indices.
``validate`` writes only ``valid`` and ``graph_digest``, ``compare --table``
prints a text table in place of the report, and ``random-audit`` reads no
graph and echoes its seed.

``dumps_json`` writes the JSON output, deterministic for a fixed (input, flags,
seed), in one pass with a 2-space indent: string keys sorted, ``float`` (NumPy
float64 too) to 17 significant digits or, if not finite, as its quoted ``repr``,
``str``, ``None``, ``bool``, ``int`` or NumPy integer, lists, tuples, float
arrays, dicts, and a report dataclass as the object of its fields (``vars``).
Anything else raises ``TypeError``.  ``main`` reuses one parser, built on import.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import is_dataclass, replace
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from . import __version__
from .combinatorial import fiedler_bounds, friedman_bounds
from .comparisons import ALL_COMPARISONS, DEFAULT_TOL, EQUALITY_TOL, run_all
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
from .rigidity import ALL_RIGIDITY
from .spectra import spectrum


def dumps_json(obj) -> str:
    """JSON with sorted keys and 17-significant-digit numbers."""
    return _json(obj, "\n")


def _json(obj, newline: str) -> str:
    """The JSON text of ``obj``; ``newline`` breaks the line and indents it.
    String keys; ``float``, ``str``, ``None``, ``bool``, ``int`` or NumPy integer,
    lists, tuples, float arrays, dicts and dataclasses; else ``TypeError``."""
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
    inner = newline + "  "
    if isinstance(obj, (list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray):
            obj = [float(v) for v in obj]
        items = [_json(v, inner) for v in obj]
        brackets = "[]"
    else:
        if not isinstance(obj, dict):
            if not is_dataclass(obj):
                raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
            obj = vars(obj)  # a certificate or report: the object of its fields
        items = [f"{_string(k)}: {_json(v, inner)}" for k, v in sorted(obj.items())]
        brackets = "{}"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


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
# these two are kept as given, so the invocation echoed in the report is unchanged
_dimension = _arg_type(str, lambda t: float(t) > 1.0, "a number > 1 or 'inf'")
_theorems = _arg_type(
    str, lambda t: t == "all" or all(name.strip() in ALL_COMPARISONS for name in t.split(",")),
    "'all' or comma-separated ids from " + ", ".join(ALL_COMPARISONS),
)


def cmd_spectrum(graph, args):
    return {label: spectrum(graph, label) for label in BUILDERS}, 0


def cmd_dump_operator(graph, args):
    op = operator_by_label(graph, args.operator)
    out = {
        "label": args.operator,
        "matrix": list(op.matrix),
        "inner_measure": op.inner_measure,
    }
    return out, 0


def cmd_compare(graph, args):
    names = ALL_COMPARISONS if args.theorems == "all" else args.theorems.split(",")
    certs = [ALL_COMPARISONS[name.strip()](graph, args.tol) for name in names]
    code = 0 if all(c.holds for c in certs) else 2
    if not args.table:
        return certs, code
    for cert in certs:
        print(f"{cert.theorem_id:26s} {cert.verdict}")
        for r in cert.per_index:
            print(f"  i={r.index:<3d} lhs={r.lhs:.12g} rhs={r.rhs:.12g} margin={r.margin:.3e}")
    return None, code


def cmd_certify(graph, args):
    report = ALL_RIGIDITY[args.theorem](graph, args.tol)
    return report, 0 if report.conclusion else 2


def cmd_curvature(graph, args):
    target = interior_subgraph(graph) if args.on == "interior" else graph
    if args.kind == "be":
        result = bakry_emery_curvature(target, float(args.n))
        per = {str(k): v for k, v in result.per_location.items()}
    else:
        result = ollivier_curvature_all(target)
        per = {f"{u},{v}": val for (u, v), val in result.per_location.items()}
    return replace(result, per_location=per), 0


def cmd_bounds(graph, args):
    bounds = fiedler_bounds if args.family == "fiedler" else friedman_bounds
    cert = bounds(graph, args.tol)
    return cert, 0 if cert.holds else 2


def cmd_random_audit(_, args):
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
    return out, 0 if not failures else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphspec",
        description="Spectra of weighted graphs with boundary and certified "
        "eigenvalue comparisons.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    graph_file = argparse.ArgumentParser(add_help=False)
    graph_file.add_argument("--graph", required=True)

    sub.add_parser("validate", parents=[graph_file],
                   help="check a graph file against the structural axioms")

    p = sub.add_parser("spectrum", parents=[graph_file], help="eigenvalues of the full, "
                       "Dirichlet, Neumann and interior operators, as JSON keyed by "
                       "operator label")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("dump-operator", parents=[graph_file],
                       help="emit one operator matrix as JSON rows")
    p.add_argument("--operator", choices=tuple(BUILDERS), default="FullLaplacian")
    p.set_defaults(func=cmd_dump_operator)

    p = sub.add_parser(
        "compare", parents=[graph_file],
        help="certify eigenvalue comparisons: NeuVsLap (nu_i >= mu_i), "
        "DiriVsInteriorTwoSided (mu_i(Omega)+Deg_b bounds on lambda_i), "
        "NeuVsInterior (nu_i >= mu_i(Omega)), DiriVsNeuTwoSided "
        "(nu_i + s^2 bounds on lambda_i), LapVsDiri (mu_{i+|B|} >= lambda_i)",
    )
    p.add_argument("--theorems", type=_theorems, default="all")
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--table", dest="table", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "certify", parents=[graph_file],
        help="test the structural equality characterization for one comparison",
    )
    p.add_argument("--theorem", choices=sorted(ALL_RIGIDITY), required=True)
    p.add_argument("--tol", type=_tolerance, default=EQUALITY_TOL)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("curvature", parents=[graph_file], help="per-vertex "
                       "curvature-dimension constants or per-edge transport curvature")
    p.add_argument("--kind", choices=["be", "ollivier"], required=True)
    p.add_argument("--n", type=_dimension, default="inf",
                   help="dimension parameter for --kind be (a number > 1, or 'inf')")
    p.add_argument("--on", choices=["g", "interior"], default="g")
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("bounds", parents=[graph_file], help="Fiedler-type (edge connectivity) "
                       "or Friedman-type (path comparison) lower bounds, unit weight only")
    p.add_argument("--family", choices=["fiedler", "friedman"], required=True)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("random-audit", help="run every comparison certificate over "
                       "seeded random graphs and report the failure count")
    p.add_argument("--n", type=_count, default=200)
    p.add_argument("--max-v", type=_max_vertices, default=12)
    p.add_argument("--seed", type=_count, default=42)
    p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p.add_argument("--curvature", action="store_true",
                   help="also check the curvature spectral-gap bounds where applicable")
    p.set_defaults(func=cmd_random_audit)

    return parser


# one parser per process: parse_args leaves no state on it between calls
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    graph = digest = None
    if args.command != "random-audit":
        sha = hashlib.sha256()  # of the bytes parsed: the file is read once
        try:
            graph = load(args.graph, sha)
            validate(graph, require_boundary=not (args.command == "curvature"
                                                  and args.on == "g"))
        except (OSError, GraphFormatError, GraphValidationError) as exc:
            sys.stderr.write(f"invalid graph file: {exc}\n")
            return 4
        digest = sha.hexdigest()
        if args.command == "validate":
            print(dumps_json({"valid": True, "graph_digest": digest}))
            return 0
    try:
        results, code = args.func(graph, args)
    except NotApplicable as exc:
        sys.stderr.write(f"not applicable: {exc}\n")
        return 3
    if results is not None:
        print(dumps_json({
            "graph_digest": digest,
            "invocation": {k: v for k, v in vars(args).items() if k != "func"},
            "results": results,
            "seed": getattr(args, "seed", None),
            "tool_version": __version__,
        }))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
