"""graphspec benchmark: seeded workloads driven through public entry points.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports graphspec from its
``src`` directory.  Workloads (see ``workloads.py`` and ``README.md``) are
closed loops with one caller: each call starts when the previous one ends.
``--seconds`` sets the work of a run: the number of whole rounds that took
that long at the commit that defined the benchmark (at least ``MIN_CALLS``
calls), so that for one seed every commit is timed on the same calls.
With ``--trace 0`` the run reports the end-to-end metrics, with times scaled
to a reference machine speed by an interleaved probe (see ``Probe``); with
``--trace 1`` it executes the workload's fixed trace rounds once untraced
and once traced, and reports the per-layer metrics.  Every call goes
through the correctness gate in ``gate.py``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment and
the exit-code histogram.
"""

import os

# BLAS threads are pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_CALLS = 100
SETUP_REPEATS = 3
PROBE_INTERVAL = 0.5
REFERENCE_PROBE_S = 0.004
MAX_PASS_SECONDS = 120.0    # a much slower commit stops early instead of overrunning
EXIT_CODES = ("0", "1", "2", "3", "4", "other")
COMMANDS = ("spectrum", "compare", "certify", "bounds", "curvature", "random-audit")


def _import_graphspec():
    """Import graphspec from this checkout's ``src`` and nowhere else."""
    if not (SRC / "graphspec" / "__init__.py").is_file():
        raise SystemExit(f"error: no graphspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphspec
    import graphspec.cli
    import graphspec.curvature
    import graphspec.fixtures
    import graphspec.graph

    if Path(graphspec.__file__).resolve().parent != SRC / "graphspec":
        raise SystemExit(f"error: imported graphspec from {graphspec.__file__}")
    return graphspec


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(gs, np, gate) -> dict:
    blas = {}
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: info.get(k) for k in ("name", "version")}
    kernels = sys.modules.get("graphspec._kernels")
    has_numba = getattr(kernels, "HAS_NUMBA", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "jacobi_path": "absent" if kernels is None else ("numba" if has_numba else "numpy"),
        "blas_threads": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "lp_reference": "scipy-highs" if gate.lp_reference_available() else "unavailable",
    }


def _invoke(gs, call):
    """One call through a public entry point: (exit code, output)."""
    if call.argv:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = gs.cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code
        return (0 if code is None else code), out.getvalue()
    return 0, gs.curvature.ollivier_curvature(call.graph, *call.edge)


class Tally:
    """Latencies, graph counts and gate outcomes of the calls in one pass."""

    def __init__(self):
        self.latencies = []
        self.graphs = 0
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.exits = Counter()    # (command, code bucket)
        self.labels = Counter()   # "label: code"
        self.tracebacks = []
        self.probe_index = []     # per call: the last probe sample before it
        self.raw = None           # unscaled figures of a timed pass

    def record(self, call, latency, code, reason):
        self.latencies.append(latency)
        self.graphs += call.graphs
        self.attempted += 1
        self.exits[(call.command, str(code) if str(code) in EXIT_CODES else "other")] += 1
        self.labels[f"{call.label}: {code}"] += 1
        if reason is not None:
            self.failed += 1
            self.reasons[f"{call.label}: {reason}"] += 1


def _timed_call(gs, call, tally, tracer):
    """(exit code, output, latency); an exception is returned as the output
    with the code "exception"."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code, output = _invoke(gs, call)
        else:
            tracer.request = tally.attempted
            with tracer.root("harness.call"):
                code, output = _invoke(gs, call)
    except Exception as exc:  # a failed call is counted, not fatal to the run
        latency = time.perf_counter() - t0
        if len(tally.tracebacks) < 5:
            tally.tracebacks.append(traceback.format_exc())
        return "exception", exc, latency
    return code, output, time.perf_counter() - t0


def run_pass(gs, gate, rounds, tally, tracer=None, probe=None):
    """Execute the rounds.  Gate checks and probes run between calls,
    outside the call timings."""
    begin = time.perf_counter()
    for calls in rounds:
        if time.perf_counter() - begin > MAX_PASS_SECONDS:
            break
        for call in calls:
            if probe is not None:
                probe.maybe()
                tally.probe_index.append(len(probe.samples) - 1)
            code, output, latency = _timed_call(gs, call, tally, tracer)
            if code == "exception":
                reason = f"{type(output).__name__}: {output}"
            else:
                try:
                    reason = gate.check(call, code, output)
                except Exception as exc:  # unreadable output fails the call
                    reason = f"gate: {type(exc).__name__}: {exc}"
            tally.record(call, latency, code, reason)
    if probe is not None:
        probe.measure()


class Probe:
    """A fixed reference computation timed between calls, at most every
    ``PROBE_INTERVAL`` seconds, to measure how fast the machine runs.

    The host's speed drifts by up to 1.8x within seconds.  Each timed call is
    scaled by ``REFERENCE_PROBE_S`` over the probe time measured around it,
    which expresses it at the reference speed.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._small = rng.random((12, 12))
        self._rot = np.array([[0.8, 0.6], [-0.6, 0.8]])
        self._large = rng.random((500, 520))
        self.samples = []
        self._last = -math.inf

    def _once(self):
        t0 = time.perf_counter()
        a = self._small.copy()
        for p in range(11):
            for q in range(p + 1, 12):
                a[:, [p, q]] = a[:, [p, q]] @ self._rot
        acc = 0
        for i in range(20000):
            acc += i * i
        b = self._large.copy()
        for r in range(1, b.shape[0]):
            b[r] -= b[r, 0] * b[0]
        return time.perf_counter() - t0

    def measure(self):
        self.samples.append(statistics.median(self._once() for _ in range(3)))
        self._last = time.perf_counter()

    def maybe(self):
        if time.perf_counter() - self._last >= PROBE_INTERVAL:
            self.measure()

    def scale(self, lo, hi):
        """Reference speed over the speed measured by samples[lo:hi]."""
        return REFERENCE_PROBE_S / statistics.median(self.samples[max(lo, 0):hi])


def _setup(gs, workload, seed, workdir, count):
    """Generate and write the inputs; returns (rounds, seconds)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    t0 = time.perf_counter()
    rounds = workload.build(gs, seed, workdir, count)
    return rounds, time.perf_counter() - t0


def _scaled(tally, probe):
    """Call latencies at the reference speed: each is scaled by the median of
    the two probe samples before the call and the two after it."""
    return [t * probe.scale(k - 1, k + 3) for t, k in zip(tally.latencies, tally.probe_index)]


def _timed_metrics(gs, gate, workload, args, import_s, tally):
    count = max(math.ceil(args.seconds * workload.rounds_per_second),
                math.ceil(MIN_CALLS / workload.calls_per_round))
    probe = Probe()
    probe.measure()
    setups = []
    for i in range(SETUP_REPEATS):
        rounds, seconds = _setup(gs, workload, args.seed, args.workdir, count)
        probe.measure()
        setups.append(seconds * probe.scale(i, i + 2))
    import_s *= probe.scale(0, 1)
    run_pass(gs, gate, rounds, tally, probe=probe)
    raw = tally.latencies
    tally.latencies = _scaled(tally, probe)
    lat_ms = [1000.0 * t for t in tally.latencies]
    tally.raw = {"graphs_per_s": tally.graphs / sum(raw),
                 "call_ms_p50": 1000.0 * statistics.median(raw),
                 "probe_ms_median": 1000.0 * statistics.median(probe.samples)}
    return {
        "setup_s": import_s + statistics.median(setups),
        "graphs_per_s": tally.graphs / sum(tally.latencies),
        "call_ms_p50": statistics.median(lat_ms),
        "call_ms_p90": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "pass_ratio": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced_metrics(gs, gate, workload, args, untraced, traced):
    """The same whole rounds once untraced, then once traced; the traced
    set-up makes fixtures.random_graph's self time cover input generation."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("harness.setup"):
            rounds, _ = _setup(gs, workload, args.seed, args.workdir, workload.trace_rounds)
    finally:
        tracer.uninstall()
    probe = Probe()
    probe.measure()
    run_pass(gs, gate, rounds, untraced, probe=probe)
    tracer.install()
    try:
        run_pass(gs, gate, rounds, traced, tracer, probe)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.untraced_s"] = sum(_scaled(untraced, probe))
    metrics["trace.traced_s"] = sum(_scaled(traced, probe))
    metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
    for command in COMMANDS:
        for bucket in EXIT_CODES:
            metrics[f"exit.{command}.{bucket}"] = traced.exits[(command, bucket)]
    return metrics, tracer.absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gs = _import_graphspec()
    import_s = time.perf_counter() - START
    import numpy as np

    import gate
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    args.workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tallies = [Tally(), Tally()] if args.trace else [Tally()]
    try:
        if args.trace:
            metrics, absent = _traced_metrics(gs, gate, workload, args, *tallies)
        else:
            metrics = _timed_metrics(gs, gate, workload, args, import_s, tallies[0])
            absent = []
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            args.workdir.parent.rmdir()
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    last = tallies[-1]
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(gs, np, gate),
        "absent": absent,
        "exit_codes": dict(sorted(last.labels.items())),
        "failures": dict(sum((t.reasons for t in tallies), Counter())),
        "tracebacks": last.tracebacks,
        "raw": last.raw,
    }, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
