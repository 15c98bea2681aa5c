"""The decisions of the CLI replay (``tests/replay.py``) are pinned.

Floats may move in their last bits; exit codes, stderr, verdicts, ``equal``
flags, failing and equality indices and rigidity conclusions may not, unless
a change says so and updates the pin.
"""

import io
import json

import replay

# exit codes, stderr and decisions of every spectral command on the replay's
# graphs and of ``random-audit --n 200 --seed 42``
DECISION_DIGEST = "5144f49a6b082c814a08549c52f0bd89918632f290ecc2046b5ff9eab8d4ea83"


def test_replay_decisions_are_pinned():
    records = replay.replay(commands=replay.SPECTRAL_COMMANDS, audits=replay.AUDITS[:1])
    assert replay.decision_digest(records) == DECISION_DIGEST


def test_against_separates_decisions_from_moved_numbers():
    cert = {"verdict": "Holds", "per_index": [
        {"index": 1, "lhs": 0.5, "rhs": 0.25, "margin": 0.25, "equal": False}]}
    old = {"label": "g compare", "code": 0, "stderr": "", "max_deg": 4.0,
           "stdout": json.dumps({"results": [cert], "graph_digest": "d"})}
    cert["per_index"][0]["lhs"] = 0.75
    moved = {**old, "stdout": json.dumps({"results": [cert], "graph_digest": "d"})}
    cert["per_index"][0]["equal"] = True
    flipped = {**old, "stdout": json.dumps({"results": [cert], "graph_digest": "d"})}
    assert replay.decisions(moved) == replay.decisions(old) != replay.decisions(flipped)
    report = io.StringIO()
    assert replay.compare([old], [moved], report)
    assert "compare | 1 | 1 | 0.0625" in report.getvalue()
    assert not replay.compare([old], [flipped], io.StringIO())
    assert not replay.compare([old], [{**old, "code": 2}], io.StringIO())

    table = ("NeuVsLap                   Holds\n"
             "  i=1   lhs=0 rhs=0 margin=0.000e+00\n"
             "  i=2   lhs=2 rhs=0.5 margin=1.500e+00\n")
    old = {"label": "g compare --table", "code": 0, "stderr": "", "max_deg": 4.0,
           "stdout": table}
    moved = {**old, "stdout": table.replace("rhs=0.5", "rhs=0.6")}
    flipped = {**old, "stdout": table.replace("Holds", "FailsAt")}
    assert replay.decisions(moved) == replay.decisions(old) != replay.decisions(flipped)
    report = io.StringIO()
    assert replay.compare([old], [moved], report)
    assert "compare --table | 1 | 1 | 0.025" in report.getvalue()
    assert not replay.compare([old], [flipped], io.StringIO())
