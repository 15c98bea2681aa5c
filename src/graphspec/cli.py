"""Command-line front end.

Subcommands: validate, spectrum, compare, certify, curvature, bounds,
random-audit, dump-operator.  ``COMMANDS`` holds each one's ``cmd_*``, help
and options, and ``_parse`` reads a call's arguments against it in one pass
from left to right.  A bad argument exits 1, with the usage and ``error:
...`` on stderr, before any file is read; ``-h`` prints its help from the
same table.  ``main`` then reads and checks the graph file, and exits 4
when it cannot be read or breaks an axiom; every command but ``curvature --on
g`` needs a boundary.  The ``cmd_*`` returns its results and exit 0 or 2
(certificate holds / fails, rigidity conclusion true / false), and ``main``
writes their JSON report, which echoes the arguments.  A ``NotApplicable``
exits 3, with ``not applicable: ...`` on stderr and no report; LapVsDiri
raises it where equality fails at two or more indices.  ``validate`` writes
only ``valid`` and ``graph_digest``, ``compare --table`` prints a text table
in place of the report, and ``random-audit`` reads no graph and echoes its seed.

``dumps_json`` writes the JSON output, deterministic for a fixed (input, flags,
seed), in one pass with a 2-space indent: string keys sorted, ``float`` (NumPy
float64 too) to 17 significant digits or, if not finite, as its quoted ``repr``,
``str``, ``None``, ``bool``, ``int`` or NumPy integer, lists, tuples, float
arrays, dicts, and a report dataclass as the object of its fields (``vars``).
Anything else raises ``TypeError``.
"""

from __future__ import annotations

import hashlib
import math
import re
import sys
from dataclasses import is_dataclass, replace
from json.encoder import encode_basestring_ascii as _string
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import __version__
from .combinatorial import fiedler_bounds, friedman_bounds
from .comparisons import ALL_COMPARISONS, DEFAULT_TOL, EQUALITY_TOL, run_all
from .curvature import bakry_emery_curvature, certify_lichnerowicz, ollivier_curvature_all
from .fixtures import random_graph
from .graph import (GraphFormatError, GraphValidationError, NotApplicable, interior_subgraph,
                    load, validate)
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


def cmd_spectrum(graph, args):
    return {label: spectrum(graph, label) for label in BUILDERS}, 0


def cmd_dump_operator(graph, args):
    op = operator_by_label(graph, args.operator)
    return {"label": args.operator, "matrix": list(op.matrix),
            "inner_measure": op.inner_measure}, 0


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
    out = {"instances": args.n, "max_vertices": args.max_v, "failures": failures,
           "failure_count": len(failures), "lichnerowicz_checked": lichnerowicz_checked}
    return out, 0 if not failures else 2


def _one_of(*names):
    return str, names.__contains__, "one of " + ", ".join(names)


# what an option's value must be: (convert, accept, description)
_COUNT = (int, lambda v: v >= 0, "an integer >= 0")
_MAX_VERTICES = (int, lambda v: v >= 3, "an integer >= 3")  # random_graph draws 3..max_v
_TOLERANCE = (float, lambda v: math.isfinite(v) and v >= 0.0, "a finite number >= 0")
# these two are kept as given, so the invocation echoed in the report is unchanged
_DIMENSION = (str, lambda text: float(text) > 1.0, "a number > 1 or 'inf'")
_THEOREMS = (str, lambda t: t == "all" or all(n.strip() in ALL_COMPARISONS for n in t.split(",")),
             "'all' or comma-separated ids from " + ", ".join(ALL_COMPARISONS))


class _Option(NamedTuple):
    kind: tuple | None  # what the value must be, or None for a flag: True when given
    default: object = None  # an option without a default is required
    help: str = ""


_GRAPH = {"--graph": _Option((str, lambda text: True, "a path"), help="the graph file")}
_TOL = _Option(_TOLERANCE, DEFAULT_TOL)

# subcommand -> (its cmd_*, help, options by flag).  An option's dest is its
# flag without the leading "--", with "-" read as "_"
COMMANDS = {
    "validate": (None, "check a graph file against the structural axioms", _GRAPH),
    "spectrum": (cmd_spectrum, "eigenvalues of the full, Dirichlet, Neumann and interior "
                 "operators, as JSON keyed by operator label", _GRAPH),
    "dump-operator": (cmd_dump_operator, "emit one operator matrix as JSON rows", {
        **_GRAPH, "--operator": _Option(_one_of(*BUILDERS), "FullLaplacian")}),
    "compare": (cmd_compare, "certify eigenvalue comparisons: NeuVsLap (nu_i >= mu_i), "
                "DiriVsInteriorTwoSided (mu_i(Omega)+Deg_b bounds on lambda_i), "
                "NeuVsInterior (nu_i >= mu_i(Omega)), DiriVsNeuTwoSided "
                "(nu_i + s^2 bounds on lambda_i), LapVsDiri (mu_{i+|B|} >= lambda_i)", {
        **_GRAPH, "--theorems": _Option(_THEOREMS, "all"), "--tol": _TOL,
        "--table": _Option(None, False, "print a text table in place of the report")}),
    "certify": (cmd_certify, "test the structural equality characterization for one "
                "comparison", {**_GRAPH, "--theorem": _Option(_one_of(*sorted(ALL_RIGIDITY))),
                               "--tol": _Option(_TOLERANCE, EQUALITY_TOL)}),
    "curvature": (cmd_curvature, "per-vertex curvature-dimension constants or per-edge "
                  "transport curvature", {
        **_GRAPH, "--kind": _Option(_one_of("be", "ollivier")),
        "--n": _Option(_DIMENSION, "inf", "dimension parameter for --kind be"),
        "--on": _Option(_one_of("g", "interior"), "g")}),
    "bounds": (cmd_bounds, "Fiedler-type (edge connectivity) or Friedman-type (path "
               "comparison) lower bounds, unit weight only",
               {**_GRAPH, "--family": _Option(_one_of("fiedler", "friedman")), "--tol": _TOL}),
    "random-audit": (cmd_random_audit, "run every comparison certificate over seeded random "
                     "graphs and report the failure count", {
        "--n": _Option(_COUNT, 200), "--max-v": _Option(_MAX_VERTICES, 12),
        "--seed": _Option(_COUNT, 42), "--tol": _TOL, "--curvature": _Option(
            None, False, "also check the curvature spectral-gap bounds where applicable")}),
}
# a value that starts with "-" is taken only when it reads as a negative number
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _usage(command) -> str:
    if command is None:
        return f"usage: graphspec [-h] [--version] {{{','.join(COMMANDS)}}} ..."
    words = [f"usage: graphspec {command} [-h]"]
    for flag, option in COMMANDS[command][2].items():
        word = flag if option.kind is None else f"{flag} {flag[2:].upper()}"
        words.append(word if option.default is None else f"[{word}]")
    return " ".join(words)


def _help(command) -> str:
    """The usage, what the program or command does, and a line for each of
    its commands or options."""
    if command is None:
        about = "Spectra of weighted graphs with boundary and certified eigenvalue comparisons."
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        _, about, options = COMMANDS[command]
        rows = [(flag, ": ".join(filter(None, (o.help, o.kind and o.kind[2]))))
                for flag, o in options.items()]
    return "\n".join([_usage(command), "", about, "", *(f"  {a:15s} {b}" for a, b in rows)])


def _fail(command, message):
    sys.stderr.write(f"{_usage(command)}\nerror: {message}\n")
    raise SystemExit(1)


def _parse(argv):
    """The subcommand's ``cmd_*`` and its arguments, read from ``argv`` left to
    right: ``--opt value`` or ``--opt=value`` under an option's exact name,
    the last value of a repeated option, and every other option's default."""
    command = argv[0] if argv else None
    if command not in COMMANDS:
        if command in ("-h", "--help", "--version"):
            print(__version__ if command == "--version" else _help(None))
            raise SystemExit(0)
        _fail(None, f"invalid command {command!r}" if argv else "a command is required")
    run, _, options = COMMANDS[command]
    values = {flag: option.default for flag, option in options.items()}
    words = iter(argv[1:])
    for word in words:
        flag, eq, text = word.partition("=")
        if flag in ("-h", "--help") and not eq:
            print(_help(command))
            raise SystemExit(0)
        option = options.get(flag)
        if option is None or eq and option.kind is None:
            _fail(command, f"unrecognized arguments: {word}")
        if option.kind is None:  # a flag
            values[flag] = True
            continue
        if not eq:
            text = next(words, None)
            if text is None or text[:1] == "-" and not _NEGATIVE.fullmatch(text):
                _fail(command, f"argument {flag}: expected one argument")
        convert, accept, description = option.kind
        try:
            values[flag] = convert(text)
            if not accept(values[flag]):
                raise ValueError
        except ValueError:
            _fail(command, f"argument {flag}: expected {description}, got {text!r}")
    missing = [flag for flag, value in values.items() if value is None]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    return run, SimpleNamespace(command=command, **{
        flag[2:].replace("-", "_"): value for flag, value in values.items()})


def main(argv=None) -> int:
    run, args = _parse(sys.argv[1:] if argv is None else argv)
    graph = digest = None
    if args.command != "random-audit":
        sha = hashlib.sha256()  # of the bytes parsed: the file is read once
        try:
            graph = load(args.graph, sha)
            validate(graph, require_boundary=not (args.command == "curvature" and args.on == "g"))
        except (OSError, GraphFormatError, GraphValidationError) as exc:
            sys.stderr.write(f"invalid graph file: {exc}\n")
            return 4
        digest = sha.hexdigest()
        if args.command == "validate":
            print(dumps_json({"valid": True, "graph_digest": digest}))
            return 0
    try:
        results, code = run(graph, args)
    except NotApplicable as exc:
        sys.stderr.write(f"not applicable: {exc}\n")
        return 3
    if results is not None:
        print(dumps_json({"graph_digest": digest, "invocation": vars(args), "results": results,
                          "seed": getattr(args, "seed", None), "tool_version": __version__}))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
