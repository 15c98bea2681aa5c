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
_NEU_LAP = "tests/test_rigidity.py::TestNeumannLaplacian::"
_NEU_LAP_NONCONSTANT = "tests/test_rigidity.py::TestNeumannLaplacianNonConstantRho::"
_LAP_DIRI = "tests/test_rigidity.py::TestLaplacianDirichlet::"
_NORMALIZED = "tests/test_rigidity.py::TestNormalizedCorollary::"
_JSON = "tests/test_graph.py::TestJson::"
_MAX_FLOW = "tests/test_curvature.py::TestMaxFlow::"

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
    Mutant("unequal-indices-inverted", "comparisons.py",
           "return tuple(r.index for r in self.per_index if not r.equal)",
           "return tuple(r.index for r in self.per_index if r.equal)",
           (_CERT + "test_equal_and_unequal_indices_partition_every_corpus_certificate",
            _LAP_DIRI + "test_k22", _LAP_DIRI + "test_unsupported_pattern_raises",
            "tests/test_rigidity.py::TestUnitCorollary::test_k22",
            _NORMALIZED + "test_case2_complete_interior_fixture"),
           "the equality pattern reads the equal indices as the unequal ones"),
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
    Mutant("quadratic-form-at-100-tol", "rigidity.py",
           "return at_most(-min_eig, 0.0, tol, float(np.abs(q).max()))[0], min_eig",
           "return at_most(-min_eig, 0.0, 100 * tol, float(np.abs(q).max()))[0], min_eig",
           (_NEU_LAP_NONCONSTANT + "test_quadratic_form_fails_between_tol_and_100_tol",),
           "NeuVsLap's quadratic form reads semidefinite at 100 times its tolerance"),
    Mutant("rho-constant-bound-at-100-tol", "rigidity.py",
           "ok, _ = at_most(mu_top, bound, cert.tolerance, 1.0)",
           "ok, _ = at_most(mu_top, bound, 100 * cert.tolerance, 1.0)",
           (_NEU_LAP + "test_constant_rho_bound_fails_between_tol_and_100_tol",),
           "NeuVsLap's constant-rho bound on mu_top holds at 100 times its tolerance"),
    Mutant("strict-bound-at-100-tol", "rigidity.py",
           "at_most(mu_top, top, cert.tolerance, 1.0, strict=True)",
           "at_most(mu_top, top, 100 * cert.tolerance, 1.0, strict=True)",
           (_NEU_LAP + "test_strict_bound_holds_between_tol_and_100_tol_below_it",),
           "NeuVsLap's strict bound on mu_top asks for 100 times its tolerance"),
    Mutant("unit-weight-bound-at-100-tol", "rigidity.py",
           "nom - nb)\n            spec, _ = at_most(mu_top, bound, cert.tolerance, 1.0)",
           "nom - nb)\n            spec, _ = at_most(mu_top, bound, 100 * cert.tolerance, 1.0)",
           (_NEU_LAP + "test_unit_weight_bound_fails_between_tol_and_100_tol",),
           "NeuVsLap's unit-weight bound on mu_top holds at 100 times its tolerance"),
    Mutant("normalized-bound-at-100-tol", "rigidity.py",
           "v_omega\n            spec, _ = at_most(mu_top, bound, cert.tolerance, 1.0)",
           "v_omega\n            spec, _ = at_most(mu_top, bound, 100 * cert.tolerance, 1.0)",
           (_NEU_LAP + "test_normalized_bound_fails_between_tol_and_100_tol",),
           "NeuVsLap's normalized bound on mu_top holds at 100 times its tolerance"),
    Mutant("lambda-head-at-100-tol", "rigidity.py",
           "at_most(np.abs(head - rho_sum), 0.0, cert.tolerance, 1.0)",
           "at_most(np.abs(head - rho_sum), 0.0, 100 * cert.tolerance, 1.0)",
           (_LAP_DIRI + "test_lambda_head_off_rho_mass_between_tol_and_100_tol",),
           "LapVsDiri reads lambda_1..j equal to rho V_B at 100 times its tolerance"),
    Mutant("interior-gap-at-100-tol", "rigidity.py",
           "at_most(-witness[0], -rho_volume, cert.tolerance, 1.0)",
           "at_most(-witness[0], -rho_volume, 100 * cert.tolerance, 1.0)",
           (_LAP_DIRI + "test_interior_gap_fails_between_tol_and_100_tol",),
           "LapVsDiri's gap mu_{j+1}(Omega) >= rho V_Omega holds at 100 times its tolerance"),
    Mutant("volume-order-at-100-tol", "rigidity.py",
           "at_most(v_omega - v_b, 0.0, tol, v_b)", "at_most(v_omega - v_b, 0.0, 100 * tol, v_b)",
           (_LAP_DIRI + "test_volume_order_fails_between_tol_and_100_tol",),
           "LapVsDiri's V_Omega <= V_B holds at 100 times its tolerance"),
    Mutant("boundary-weights-at-100-tol", "rigidity.py",
           "at_most(np.abs(wb - target_w), 0.0, tol, float(target_w.max()))",
           "at_most(np.abs(wb - target_w), 0.0, 100 * tol, float(target_w.max()))",
           (_NORMALIZED + "test_boundary_weights_fail_between_tol_and_100_tol",),
           "the normalized corollary's boundary weights match at 100 times its tolerance"),
    Mutant("case1-volumes-at-100-tol", "rigidity.py",
           "at_most(abs(v_omega - v_b), 0.0, tol, v_b)",
           "at_most(abs(v_omega - v_b), 0.0, 100 * tol, v_b)",
           (_NORMALIZED + "test_case1_volumes_differ_between_tol_and_100_tol",),
           "the normalized corollary's case 1 reads V_Omega = V_B at 100 times its tolerance"),
    Mutant("case2-degree-at-100-tol", "rigidity.py",
           "at_most(np.abs(deg_om - target), 0.0, tol, abs(target))",
           "at_most(np.abs(deg_om - target), 0.0, 100 * tol, abs(target))",
           (_NORMALIZED + "test_case2_interior_degree_misses_its_target_between_tol_and_100_tol",),
           "the normalized corollary's case 2 reads Deg_Omega on target at 100 times its"
           " tolerance"),
    Mutant("case2-mu2-at-100-tol", "rigidity.py",
           "at_most(-float(mu_om[1]), -1.0, cert.tolerance, 1.0)",
           "at_most(-float(mu_om[1]), -1.0, 100 * cert.tolerance, 1.0)",
           (_NORMALIZED + "test_case2_mu2_of_the_interior_misses_one_between_tol_and_100_tol",),
           "the normalized corollary's case 2 reads mu_2(Omega) >= 1 at 100 times its tolerance"),
    Mutant("reader-count-one-sided", "graph.py",
           "np.count_nonzero(seen) != n + 2 * k", "np.count_nonzero(seen) > n + 2 * k",
           (_JSON + "test_duplicate_vertex_ids_rejected",
            _JSON + "test_self_loop_edge_record_rejected",
            _JSON + "test_duplicate_edge_records_rejected",
            "tests/test_graph.py::TestParserAgainstReference::test_same_arrays_or_same_message"),
           "the column reader takes a repeated id, a loop or a repeated pair for sound"),
    Mutant("sinkhorn-x-after-update", "fixtures.py",
           "xs.append(x)\n            degs.append(deg)\n            x = x / np.sqrt(deg)",
           "degs.append(deg)\n            x = x / np.sqrt(deg)\n            xs.append(x)",
           ("tests/test_fixtures.py::test_draws_match_the_reference_bit_for_bit",),
           "a normalized draw is scaled by the x after the round whose Deg passed"),
    Mutant("max-gain-stops-after-start", "curvature.py",
           "if not (supplied & arc_tails and unfilled & arc_heads):", "if True:",
           (_MAX_FLOW + "test_repairs_a_start_that_is_not_maximum",
            _MAX_FLOW + "test_equals_the_boolean_matrix_flow",
            "tests/test_curvature.py::TestOllivier::test_matches_enumeration_on_large_balls"),
           "the Ollivier gain flow stops after its one-pass start, short of maximum"),
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
