"""A catalogue of source mutants, each with the tests that must kill it.

    python tests/mutants.py

Each entry edits one file under ``src/graphspec``: an exact text, which
must occur there once, is replaced.  It names the tests that must fail once
the edit is made, and the fault it stands for.  The runner first copies the
checkout's ``src``, ``tests`` and ``pyproject.toml`` to a temporary directory
and runs every named test there, unmutated; they must pass.  Then, for each
entry, it makes a fresh copy, applies that entry alone and runs only that
entry's tests.  An entry is

* killed when pytest reports a failing test (exit 1);
* survived when its tests pass;
* "does not apply" when its old text does not occur exactly once, so that
  the catalogue follows the code it mutates;

and any other pytest exit (a test id that does not exist, say) is an error.
The run exits 0 when every entry is killed, and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # under src/graphspec
    old: str
    new: str
    tests: tuple[str, ...]
    fault: str


_CERT = "tests/test_comparisons.py::TestCertificateSemantics::"
_AT_MOST = "tests/test_comparisons.py::TestAtMost::test_threshold_strictness_and_margin"
_LICHNEROWICZ = "tests/test_curvature.py::TestLichnerowicz::"

CATALOGUE = (
    Mutant("failing-at-2-tol", "comparisons.py",
           "at_most(r.margin, 0.0, tol, scale, strict=True)",
           "at_most(r.margin, 0.0, 2 * tol, scale, strict=True)",
           (_CERT + "test_equality_and_failure_are_decided_at_tol_times_max_deg",),
           "a certificate fails only beyond twice its tolerance"),
    Mutant("deg-b-spread-at-100-tol", "rigidity.py",
           "constant, _ = at_most(spread, 0.0, tol, 1.0)",
           "constant, _ = at_most(spread, 0.0, 100 * tol, 1.0)",
           ("tests/test_rigidity.py::TestDirichletInterior::"
            "test_perturbation_between_tol_and_100_tol_breaks_constancy",),
           "DiriVsInteriorTwoSided reads Deg_b constant at 100 times its tolerance"),
    Mutant("rho-fit-at-1e3-tol", "rigidity.py",
           "holds, _ = at_most(residual, 0.0, tol, float(wb.max()))",
           "holds, _ = at_most(residual, 0.0, 1e3 * tol, float(wb.max()))",
           ("tests/test_rigidity.py::test_rho_fit_fails_between_tol_and_1e3_tol",),
           "the rho fit holds at 1,000 times its tolerance"),
    Mutant("case2-mu2-at-half", "rigidity.py",
           "at_most(-float(mu_om[1]), -1.0, cert.tolerance, 1.0)",
           "at_most(-float(mu_om[1]), -0.5, cert.tolerance, 1.0)",
           ("tests/test_rigidity.py::TestNormalizedCorollary::"
            "test_case2_needs_mu2_of_the_interior_at_least_one",),
           "the normalized corollary's case 2 asks for mu_2(Omega) >= 1/2, not 1"),
    Mutant("rho-constant-at-100-tol", "rigidity.py",
           "_relative_spread(np.ldexp(frac, exp - exp.max())), 0.0, tol, 1.0)[0]",
           "_relative_spread(np.ldexp(frac, exp - exp.max())), 0.0, 100 * tol, 1.0)[0]",
           ("tests/test_rigidity.py::TestRhoFactorization::test_constancy_is_decided_at_tol",),
           "rho reads constant at 100 times its tolerance"),
    Mutant("s-spread-at-100-tol", "rigidity.py",
           "s_const, _ = at_most(spread, 0.0, tol, 1.0)",
           "s_const, _ = at_most(spread, 0.0, 100 * tol, 1.0)",
           ("tests/test_rigidity.py::TestDirichletNeumann::"
            "test_perturbation_between_tol_and_100_tol_breaks_constancy",),
           "DiriVsNeuTwoSided reads s(z) constant at 100 times its tolerance"),
    Mutant("be-positive-at-100-tol", "curvature.py",
           "if at_most(k_min, 0.0, tol, scale)[0]:", "if at_most(k_min, 0.0, 100 * tol, scale)[0]:",
           (_LICHNEROWICZ + "test_positive_curvature_is_decided_at_tol_times_max_deg",),
           "a Bakry-Emery bound counts as positive only beyond 100 times its tolerance"),
    Mutant("ollivier-positive-at-100-tol", "curvature.py",
           "if at_most(kappa, 0.0, tol, scale)[0]:", "if at_most(kappa, 0.0, 100 * tol, scale)[0]:",
           (_LICHNEROWICZ + "test_positive_curvature_is_decided_at_tol_times_max_deg",),
           "an Ollivier bound counts as positive only beyond 100 times its tolerance"),
    Mutant("fiedler-pi-over-n-plus-1", "combinatorial.py",
           "math.pi / n_v", "math.pi / (n_v + 1)",
           ("tests/test_combinatorial.py::TestFiedler::test_right_sides_match_closed_forms",),
           "Fiedler items 1 and 2 use a weaker bound, which still holds"),
    Mutant("at-most-strict", "comparisons.py",
           "return value <= top, top - value", "return value < top, top - value",
           (_AT_MOST, _CERT + "test_equality_and_failure_are_decided_at_tol_times_max_deg"),
           "every tolerant test turns strict at its threshold"),
    Mutant("at-most-slack-sign", "comparisons.py",
           "top = bound + slack", "top = bound - slack",
           (_AT_MOST, _CERT + "test_equality_and_failure_are_decided_at_tol_times_max_deg"),
           "every tolerant test asks for a value below its bound by the tolerance"),
    Mutant("at-most-scale-ignored", "comparisons.py",
           "slack = tol * scale", "slack = tol",
           (_AT_MOST, _CERT + "test_equality_and_failure_are_decided_at_tol_times_max_deg"),
           "every tolerance is read as absolute, whatever the site's scale"),
    Mutant("eigenvalues-unscaled-measure", "spectra.py",
           "sqrt_m = np.sqrt(measure)", "sqrt_m = measure",
           ("tests/test_spectra.py::TestEigensolve::test_matches_bruteforce_oracle",),
           "the measure enters the symmetrized operator unrooted"),
)


def applies(mutant: Mutant) -> bool:
    """Whether the mutant's old text occurs exactly once in its file."""
    return (ROOT / "src" / "graphspec" / mutant.path).read_text().count(mutant.old) == 1


def _copy(into: Path) -> Path:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "pyproject.toml", into)
    return into


def _pytest(root: Path, tests) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=root, env=env, capture_output=True, text=True)


def run() -> bool:
    """Run each mutant on its named tests; True when every one is killed."""
    missing = [m.name for m in CATALOGUE if not applies(m)]
    for name in missing:
        print(f"does not apply  {name}")
    if missing:
        return False
    tests = sorted({t for m in CATALOGUE for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        clean = _pytest(_copy(Path(tmp)), tests)
    if clean.returncode != 0:
        print(f"the named tests do not pass unmutated (pytest exit {clean.returncode})")
        print(clean.stdout[-2000:], clean.stderr[-2000:], sep="\n")
        return False
    print(f"unmutated: the {len(tests)} named tests pass")
    outcomes = {0: "survived", 1: "killed"}
    all_killed = True
    for m in CATALOGUE:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            root = _copy(Path(tmp))
            target = root / "src" / "graphspec" / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            done = _pytest(root, m.tests)
        outcome = outcomes.get(done.returncode, f"error (pytest exit {done.returncode})")
        all_killed &= done.returncode == 1
        failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
        print(f"{outcome:<9} {m.name} ({time.perf_counter() - start:.1f} s): {m.fault}")
        for line in failed if done.returncode == 1 else done.stdout.splitlines()[-5:]:
            print(f"    {line}")
    return all_killed


if __name__ == "__main__":
    raise SystemExit(0 if run() else 1)
