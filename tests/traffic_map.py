"""Map the ``src`` functions that the replay enters, against an allow-list.

    python tests/traffic_map.py

It runs ``replay.replay()`` (every call of ``tests/replay.py``) in process
under ``sys.setprofile``, graphspec imported after the profiler is set, and
records each function defined in ``src/graphspec`` that a call enters: every
``def`` and method, not module or class bodies, lambdas or comprehensions,
each named ``module.qualname``.  ``tests/traffic_allowlist.txt`` names, one a
line as ``module.qualname: reason``, each function the replay never enters
and why it stays.  The run prints the functions that break the list and
exits 1 when there is any: one that the replay never enters and the list
does not name, or one that the list names and the replay now enters (or
that no longer exists), so that the list follows the code.  It exits 0
otherwise.

It also traces the lines of ``src`` (``sys.settrace``) and prints, per
function, the lines that no call runs, with a total per module.  That map
is for reading: branch coverage moves with every refactor, so it decides
nothing.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "graphspec"
ALLOWLIST = Path(__file__).resolve().parent / "traffic_allowlist.txt"


def _named(code):
    """The named functions nested in ``code`` (itself included when it is
    one), each with the lines of its own code and of its lambdas and
    comprehensions."""
    found = {}

    def walk(code, owner):
        if not code.co_name.startswith("<"):
            owner = getattr(code, "co_qualname", code.co_name)
            found[owner] = (code.co_firstlineno, set())
        if owner is not None:
            found[owner][1].update(line for _, _, line in code.co_lines()
                                   if line is not None and line != found[owner][0])
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                walk(const, owner)

    walk(code, None)
    return found


def defined():
    """``{(file name, qualname): (first line, executable lines)}`` of every
    named function in ``src/graphspec``."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        for qualname, info in _named(module).items():
            out[(path.name, qualname)] = info
    return out


def key(name: str, qualname: str) -> str:
    return f"{name.removesuffix('.py')}.{qualname}"


def read_allowlist(path=ALLOWLIST) -> dict[str, str]:
    """``{module.qualname: reason}``; blank lines and ``#`` comments skipped."""
    allowed = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(":")
            allowed[name.strip()] = reason.strip()
    return allowed


def trace_replay():
    """Run the replay; return the entered ``(file name, first line)`` pairs
    and the ``(file name, line)`` pairs that ran."""
    src = str(SRC)
    entered, ran = set(), set()

    def profile(frame, event, arg):  # on every call, C calls too: kept short
        if event == "call":
            entered.add(frame.f_code)

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(src) else None

    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    sys.setprofile(profile)
    sys.settrace(call)
    try:
        import replay
        replay.replay()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    entered = {(Path(c.co_filename).name, c.co_firstlineno)
               for c in entered if c.co_filename.startswith(src)}
    return entered, {(Path(f).name, n) for f, n in ran}


def _ranges(numbers) -> str:
    numbers, spans = sorted(numbers), []
    for n in numbers:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def print_lines(functions, reached, ran) -> None:
    """Per function, the lines no call ran; per module, the totals."""
    totals = defaultdict(lambda: [0, 0])
    for (name, qualname), (first, executable) in sorted(functions.items()):
        missed = {n for n in executable if (name, n) not in ran}
        totals[name][0] += len(missed)
        totals[name][1] += len(executable)
        if missed:
            state = "" if (name, qualname) in reached else " (never entered)"
            print(f"  {key(name, qualname)}{state}: {len(missed)} of {len(executable)} lines"
                  f" never run: {_ranges(missed)}")
    for name, (missed, total) in sorted(totals.items()):
        print(f"{name}: {missed} of {total} function lines never run")


def run() -> int:
    start = time.perf_counter()
    functions = defined()
    entered, ran = trace_replay()
    reached = {fn for fn, (first, _) in functions.items() if (fn[0], first) in entered}
    names = {key(*fn) for fn in functions}
    unreached = {key(*fn) for fn in functions if fn not in reached}
    allowed = read_allowlist()
    print(f"{len(functions) - len(unreached)} of {len(functions)} src functions entered,"
          f" {len(unreached)} not, in {time.perf_counter() - start:.1f} s")
    print_lines(functions, reached, ran)
    bad = [f"unreached and not in the allow-list: {n}" for n in sorted(unreached - set(allowed))]
    bad += [f"in the allow-list but reached: {n}" for n in sorted(set(allowed) & names - unreached)]
    bad += [f"in the allow-list but not defined: {n}" for n in sorted(set(allowed) - names)]
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(run())
