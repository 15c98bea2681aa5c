"""The decisions of the CLI replay (``tests/replay.py``) are pinned.

Floats may move in their last bits; exit codes, stderr, verdicts, ``equal``
flags, failing and equality indices and rigidity conclusions may not, unless
a change says so and updates the pin.
"""

import io
import json
import os
import subprocess
import sys

import pytest

import graphspec
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


# replays the records of the file argv[1] in place of the CLI calls
_STUBBED_REPLAY = """import sys
import replay
records = replay._read(sys.argv[1])
replay.replay = lambda: records
sys.exit(replay.cli(sys.argv[2:]))
"""


@pytest.mark.parametrize("flip,code", [(False, 0), (True, 1)], ids=["same", "changed"])
def test_closed_stdout_keeps_the_verdict_and_the_out_file(tmp_path, flip, code):
    """The reader of the report goes away before anything is written: the
    pipe is closed while the child is still importing numpy.  ``--out`` is
    written all the same, the exit code is the verdict, and nothing goes to
    stderr."""
    record = {"label": "g compare", "code": 0, "stderr": "", "max_deg": 1.0,
              "stdout": json.dumps({"results": [{"verdict": "Holds"}]})}
    records, against = tmp_path / "records.jsonl", tmp_path / "against.jsonl"
    replay._write([record], records)
    replay._write([{**record, "code": 2} if flip else record], against)
    out = tmp_path / "out.jsonl"
    paths = (os.path.dirname(os.path.dirname(graphspec.__file__)),
             os.path.dirname(replay.__file__))
    child = subprocess.Popen(
        [sys.executable, "-W", "error", "-c", _STUBBED_REPLAY, str(records),
         "--against", str(against), "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert (child.returncode, err.decode()) == (code, "")
    assert out.read_bytes() == records.read_bytes()
