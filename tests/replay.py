"""Replay a fixed set of CLI calls, and compare a replay with an earlier one.

    python tests/replay.py --out replay.jsonl
    python tests/replay.py --against replay.jsonl [--out new.jsonl]

Run as a script, it imports ``graphspec`` from the ``src`` directory of the
checkout it lives in, so a second checkout replays its own code.

The calls run in process, through ``graphspec.cli.main``, on graph files
written to a temporary directory and named by relative path, so that no
output depends on where they were written.  The inputs are

* the audit corpus: the 200 graphs ``random_graph(default_rng(42), 12)``;
* 30 scale graphs: 5 each of unit and lognormal weights at |V| = 16, 24
  and 32, drawn from ``default_rng(7)``, redrawn until |V| is exact;
* the graphs of ``builders.float_range_graphs``, at the ends of the
  float range;

each under ``spectrum``, ``compare``, ``bounds`` x 2, ``certify`` x 7,
``curvature`` x 8 (``be`` at n = 4, inf and 1.5, and ``ollivier``, each
``--on g`` and ``--on interior``), ``validate``, ``dump-operator`` x 4 (one
per operator label), ``compare --table`` and ``compare --theorems
NeuVsLap,LapVsDiri``; and the three ``random-audit`` runs of the CI
workflow.

``--out FILE`` writes one JSON line per call: its label, exit code, stderr,
stdout and the max Deg of its graph (1 for an audit).  ``--against FILE``
reports, first, every call whose decisions differ from FILE's: exit code,
stderr, verdict, ``equal`` flag, failing or equality index, rigidity
conclusion, or the shape of the output.  Second, per command, how many
stdouts moved, and the largest move of a number divided by
max(1, max Deg).  It exits 1 when a decision changed and 0 otherwise,
whether or not the reader of stdout stays for the report.  A
``compare --table`` is read in the shape of ``compare``'s JSON: each
verdict line's theorem id and verdict, and each index line's index, are
decisions, and the numbers after ``lhs=``, ``rhs=`` and ``margin=`` move
like any JSON number.

``decision_digest`` hashes the decisions alone, with every float left out,
of the spectral commands and the audit without curvature;
``tests/test_replay.py`` pins it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from graphspec.cli import main  # noqa: E402
from graphspec.fixtures import random_graph  # noqa: E402
from graphspec.graph import degree_vector, save  # noqa: E402
from graphspec.operators import BUILDERS  # noqa: E402
from graphspec.rigidity import ALL_RIGIDITY  # noqa: E402

from builders import float_range_graphs  # noqa: E402

SPECTRAL_COMMANDS = (
    ("spectrum",),
    ("compare",),
    ("bounds", "--family", "fiedler"),
    ("bounds", "--family", "friedman"),
    *(("certify", "--theorem", theorem) for theorem in sorted(ALL_RIGIDITY)),
)
GRAPH_COMMANDS = (
    *SPECTRAL_COMMANDS,
    *(("curvature", "--kind", "be", "--n", n, "--on", on)
      for n in ("4", "inf", "1.5") for on in ("g", "interior")),
    *(("curvature", "--kind", "ollivier", "--on", on) for on in ("g", "interior")),
    ("validate",),
    *(("dump-operator", "--operator", label) for label in BUILDERS),
    ("compare", "--table"),
    ("compare", "--theorems", "NeuVsLap,LapVsDiri"),
)

AUDITS = (
    ("random-audit", "--n", "200", "--seed", "42"),
    ("random-audit", "--n", "200", "--seed", "42", "--curvature"),
    ("random-audit", "--n", "40", "--max-v", "32", "--seed", "42", "--curvature"),
)

# the calls whose decisions the digest covers: every spectral command on every
# graph and the audit without curvature, a replay that fits in a few seconds
PINNED = {" ".join(command) for command in (*SPECTRAL_COMMANDS, AUDITS[0])}

# the output fields that hold decisions; every other field is a number, a
# digest or an echo of the invocation.  CONTAINERS are read into, field by field
DECISIONS = {
    "theorem_id", "verdict", "failing_indices", "equal", "index", "conclusion",
    "equality_observed", "consistent", "name", "holds",
    "full_equality_anomaly", "equality_indices", "j", "items", "e_graph",
    "e_interior", "interior_connected", "variant", "instance", "failure_count",
    "lichnerowicz_checked", "valid",
}
CONTAINERS = {"results", "per_index", "conditions", "extra", "failures"}


def graphs():
    """Every replayed graph, by name, in replay order."""
    rng = np.random.default_rng(42)
    named = {f"corpus-{k:03d}": random_graph(rng, 12) for k in range(200)}
    rng = np.random.default_rng(7)
    for n in (16, 24, 32):
        for model in ("unit", "lognormal"):
            for k in range(5):
                graph = random_graph(rng, n, model)
                while graph.vertex_count != n:
                    graph = random_graph(rng, n, model)
                named[f"scale-{n}-{model}-{k}"] = graph
    return {**named, **float_range_graphs()}


def run_call(argv):
    """(exit code, stdout, stderr) of ``main(argv)``; an exception that
    escapes ``main`` reads as exit 1 with its type and message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback in the CLI
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def _max_deg(graph) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        deg = degree_vector(graph)
    return float(deg.max()) if deg.size else 1.0


def replay(commands=GRAPH_COMMANDS, audits=AUDITS):
    """One record per call: each of ``commands`` on each of ``graphs()``,
    then each of ``audits``."""
    records = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, graph in graphs().items():
            path = f"{name}.json"
            save(graph, path)
            max_deg = _max_deg(graph)
            for command in commands:
                code, out, err = run_call((*command, "--graph", path))
                records.append({"label": " ".join((name, *command)), "code": code,
                                "stderr": err, "stdout": out, "max_deg": max_deg})
        for command in audits:
            code, out, err = run_call(command)
            records.append({"label": " ".join(command), "code": code, "stderr": err,
                            "stdout": out, "max_deg": 1.0})
    return records


def _parsed(record):
    """The call's stdout as JSON, or as its table's certificates."""
    if record["label"].endswith(" compare --table"):
        return _table(record["stdout"])
    try:
        return json.loads(record["stdout"])
    except ValueError:
        return record["stdout"]


def _table(text):
    """A ``compare --table`` as the list of its certificates, each a theorem
    id, a verdict and the index, lhs, rhs and margin of each index line."""
    certs = []
    for line in text.splitlines():
        if line.startswith("  i="):
            fields = dict(field.split("=") for field in line.split())
            certs[-1]["per_index"].append(
                {"index": int(fields.pop("i")), **{k: float(v) for k, v in fields.items()}})
        else:
            theorem_id, verdict = line.split()
            certs.append({"theorem_id": theorem_id, "verdict": verdict, "per_index": []})
    return certs


def _decisions(value):
    if isinstance(value, list):
        return [_decisions(v) for v in value]
    if isinstance(value, dict):
        return {k: _decisions(v) if k in CONTAINERS else v
                for k, v in value.items() if k in DECISIONS or k in CONTAINERS}
    return value


def decisions(record):
    """The call's exit code, stderr and the decision fields of its stdout."""
    return {"code": record["code"], "stderr": record["stderr"],
            "decisions": _decisions(_parsed(record))}


def decision_digest(records) -> str:
    """The sha256 of the decisions of the ``PINNED`` calls among ``records``."""
    digest = hashlib.sha256()
    for record in records:
        if command_of(record["label"]) not in PINNED:
            continue
        line = json.dumps([record["label"], decisions(record)], sort_keys=True)
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def command_of(label: str) -> str:
    """The command of a label, without its graph's name."""
    return label if label.startswith("random-audit") else label.split(" ", 1)[1]


def largest_move(old, new):
    """The largest |new - old| over the numbers of two outputs of one shape,
    or None when their shapes or non-numbers differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return None
        moves = [largest_move(old[k], new[k]) for k in old]
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return None
        moves = [largest_move(a, b) for a, b in zip(old, new)]
    elif _number(old) and _number(new):
        return abs(float(new) - float(old))
    else:
        return 0.0 if old == new else None
    return None if None in moves else max(moves, default=0.0)


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(old_records, new_records, out=None) -> bool:
    """Print the report of ``--against`` to ``out`` (default: stdout); True
    when no decision changed."""
    old = {r["label"]: r for r in old_records}
    new = {r["label"]: r for r in new_records}
    changed = list(old.keys() ^ new.keys())
    moved = defaultdict(lambda: [0, 0, 0.0])  # calls, stdouts moved, largest move
    for label in new.keys() & old.keys():
        a, b = old[label], new[label]
        tally = moved[command_of(label)]
        tally[0] += 1
        if decisions(a) != decisions(b):
            changed.append(label)
            continue
        if a["stdout"] == b["stdout"]:
            continue
        move = largest_move(_parsed(a), _parsed(b))
        if move is None:
            changed.append(label)
            continue
        tally[1] += 1
        tally[2] = max(tally[2], move / max(1.0, b["max_deg"]))
    print(f"{len(new)} calls, {len(changed)} with a changed decision or shape", file=out)
    for label in sorted(changed):
        print(f"  changed: {label}", file=out)
    print("command | calls | stdout moved | largest move / max(1, max Deg)", file=out)
    for command in sorted(moved):
        calls, count, largest = moved[command]
        print(f"{command} | {calls} | {count} | {largest:.3g}", file=out)
    return not changed


def _read(path):
    with open(path) as f:
        return [json.loads(line) for line in f]


def _write(records, path):
    with open(path, "w") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the replay to this file, one JSON line per call")
    parser.add_argument("--against", help="compare the replay with this earlier one")
    args = parser.parse_args(argv)
    if not (args.out or args.against):
        parser.error("give --out, --against or both")
    records = replay()
    if args.out:
        _write(records, args.out)
    report = io.StringIO()
    same = compare(_read(args.against), records, report) if args.against else True
    try:
        print(f"decision digest {decision_digest(records)}")
        sys.stdout.write(report.getvalue())
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout went away: what is still buffered goes to
        # devnull, so that the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(cli())
