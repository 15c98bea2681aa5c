"""Command-line front end.

Subcommands: validate, spectrum, compare, certify, curvature, bounds,
random-audit, dump-operator.  Exit codes: 0 success / certificate holds,
1 usage error, 2 certificate fails or rigidity conclusion false,
3 not applicable / unsupported equality pattern, 4 invalid graph file.
``main`` maps every ``NotApplicable`` a subcommand raises to exit 3, with
``not applicable: ...`` on stderr.

All JSON output is deterministic for a fixed (input, flags, seed).
``dumps_json`` writes it in one recursive pass: keys sorted, a 2-space
indent, finite floats with 17 significant digits and non-finite ones as
their quoted ``repr``; a certificate or report dataclass is written as the
object of its fields (``vars``).  The argument parser is built once per process,
when this module is imported, and every ``main`` call reuses it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import is_dataclass
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
from .rigidity import ALL_RIGIDITY, EqualityPatternUnsupported
from .spectra import spectrum


def dumps_json(obj) -> str:
    """JSON with sorted keys and 17-significant-digit numbers."""
    return _json(obj, "\n")


def _float(x: float) -> str:
    return f"{x:.17g}" if math.isfinite(x) else _string(repr(x))


# the text of a leaf whose type is exactly one of these; other scalars, such
# as subclasses and numpy scalars, take the isinstance tests in _json
_LEAVES = {
    float: _float,
    str: _string,
    bool: lambda b: "true" if b else "false",
    int: int.__repr__,
    type(None): lambda _: "null",
}
# the types that the isinstance tests in _json write as scalars, lists or
# dicts, whether or not they are dataclasses
_CLAIMED = (float, str, int, np.integer, np.floating, list, tuple, np.ndarray, dict)


@functools.cache
def _written_as_fields(cls: type) -> bool:
    """Whether an object of type ``cls`` is written as the object of its
    fields (``vars``): a certificate or report dataclass."""
    return is_dataclass(cls) and not issubclass(cls, _CLAIMED)


@functools.cache
def _field_texts(names: tuple, newline: str) -> tuple[tuple, str]:
    """``names`` sorted, and the %-template of the text of an object with
    those fields that starts a line that ``newline`` begins, with a %s for
    each value.  Kept per field-name tuple and indent, which are few; a
    dict's keys differ from one graph to the next, so they are never kept."""
    order = tuple(sorted(names))
    if not order:
        return order, "{}"
    inner = newline + "  "
    items = [(_string(_key(k)) + ": ").replace("%", "%%") + "%s" for k in order]
    return order, "{" + inner + ("," + inner).join(items) + newline + "}"


def _json(obj, newline: str) -> str:
    """The JSON text of ``obj``; ``newline`` is a line break followed by the
    indent of the line that ``obj`` starts on.  Keys are converted and
    sorted, and values refused, as ``json.dumps(sort_keys=True)`` does."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = newline + "  "
    if _written_as_fields(type(obj)):
        fields = vars(obj)
        order, template = _field_texts(tuple(fields), newline)
        return template % tuple(_values([fields[k] for k in order], inner))
    if isinstance(obj, float):
        return _float(obj)
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
    if isinstance(obj, (list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray):
            obj = [float(v) for v in obj]
        items = _values(obj, inner)
        brackets = "[]"
    elif isinstance(obj, dict):
        items = [f"{_string(_key(k))}: {_json(v, inner)}" for k, v in sorted(obj.items())]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _values(values, newline: str) -> list[str]:
    """The JSON text of each of ``values``, each starting a line that
    ``newline`` begins; a leaf is written without the call to ``_json``."""
    leaves = _LEAVES.get
    return [leaf(v) if (leaf := leaves(type(v))) else _json(v, newline) for v in values]


def _key(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


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


def _load_graph(args, require_boundary=True):
    """The checked graph in ``args.graph``, and the sha256 of the bytes it
    was parsed from: the file is read once."""
    digest = hashlib.sha256()
    try:
        graph = load(args.graph, digest)
        validate(graph, require_boundary=require_boundary)
        return graph, digest.hexdigest()
    except (OSError, GraphFormatError, GraphValidationError) as exc:
        sys.stderr.write(f"invalid graph file: {exc}\n")
        raise SystemExit(4)


def _report(args, results, digest=None, seed=None) -> dict:
    return {
        "graph_digest": digest,
        "invocation": {"command": args.command, **{
            k: v for k, v in vars(args).items() if k not in {"command", "func"}
        }},
        "results": results,
        "seed": seed,
        "tool_version": __version__,
    }


def cmd_validate(args) -> int:
    _, digest = _load_graph(args)
    print(dumps_json({"valid": True, "graph_digest": digest}))
    return 0


def cmd_spectrum(args) -> int:
    graph, digest = _load_graph(args)
    out = {label: spectrum(graph, label) for label in BUILDERS}
    print(dumps_json(_report(args, out, digest)))
    return 0


def cmd_dump_operator(args) -> int:
    graph, digest = _load_graph(args)
    op = operator_by_label(graph, args.operator)
    out = {
        "label": op.label,
        "matrix": list(op.matrix),
        "inner_measure": op.inner_measure,
    }
    print(dumps_json(_report(args, out, digest)))
    return 0


def cmd_compare(args) -> int:
    graph, digest = _load_graph(args)
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
        print(dumps_json(_report(args, certs, digest)))
    return 0 if all(c.holds for c in certs) else 2


def cmd_certify(args) -> int:
    graph, digest = _load_graph(args)
    checker = ALL_RIGIDITY[args.theorem]
    try:
        report = checker(graph, args.tol)
    except EqualityPatternUnsupported as exc:
        print(dumps_json(_report(args, {"unsupported": str(exc)}, digest)))
        return 3
    print(dumps_json(_report(args, report, digest)))
    return 0 if report.conclusion else 2


def cmd_curvature(args) -> int:
    graph, digest = _load_graph(args, require_boundary=(args.on == "interior"))
    target = interior_subgraph(graph) if args.on == "interior" else graph
    if args.kind == "be":
        result = bakry_emery_curvature(target, float(args.n))
        per = {str(k): v for k, v in result.per_location.items()}
    else:
        result = ollivier_curvature_all(target)
        per = {f"{u},{v}": val for (u, v), val in result.per_location.items()}
    out = {"kind": result.kind, "dimension": result.dimension,
           "per_location": per, "global_min": result.global_min}
    print(dumps_json(_report(args, out, digest)))
    return 0


def cmd_bounds(args) -> int:
    graph, digest = _load_graph(args)
    bounds = fiedler_bounds if args.family == "fiedler" else friedman_bounds
    cert = bounds(graph, args.tol)
    print(dumps_json(_report(args, cert, digest)))
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
    graph_file = argparse.ArgumentParser(add_help=False)
    graph_file.add_argument("--graph", required=True)

    p = sub.add_parser("validate", parents=[graph_file],
                       help="check a graph file against the structural axioms")
    p.set_defaults(func=cmd_validate)

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
    p.add_argument("--theorems", default="all")
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
    try:
        return args.func(args)
    except NotApplicable as exc:
        sys.stderr.write(f"not applicable: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
