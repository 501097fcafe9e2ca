"""Secular equation, root finding and completeness diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raysplit.model import build_nstep, build_potential
from raysplit.spectrum import (
    STAIRCASE_TOLERANCE,
    CompletenessError,
    _find_roots_engine,
    find_roots,
    matching_determinant,
    nstep_find_roots,
    secular,
    secular_slope,
    weyl_count,
)

REF = build_potential(0.7, 0.5)


def test_secular_reference_values():
    # [PAPER] sign change bracketing the first excited root
    assert secular(REF, 3.0) == pytest.approx(0.2236, abs=5e-4)
    assert secular(REF, 3.4442) == pytest.approx(-0.1706, abs=5e-4)


def test_first_root_frozen_value():
    # [DERIVED] bisection oracle on the secular function
    res = find_roots(REF, 4.0)
    assert res.roots[0] == pytest.approx(3.25522256931717, abs=1e-10)


def test_matching_determinant_same_zero_set():
    # independent wavefunction-matching route: proportional, not identical
    rng = np.random.default_rng(3)
    ks = rng.uniform(0.0, 100.0, 100)
    lhs = matching_determinant(REF, ks)
    rhs = 0.5 * (1.0 + REF.beta) * secular(REF, ks)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_matching_determinant_k_zero_limit():
    assert matching_determinant(REF, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert np.isfinite(matching_determinant(REF, 1e-12))


def test_free_well_roots_are_integer_multiples_of_pi():
    pot = build_potential(0.35, 0.0)
    res = find_roots(pot, 1000.5 * math.pi)
    assert len(res.roots) == 1000
    n = np.arange(1, 1001)
    assert np.max(np.abs(res.roots - n * math.pi)) < 1e-10


def test_equal_length_geometry_roots():
    # l1 = l2 makes the spectrum an exact arithmetic progression
    beta = math.sqrt(0.5)
    b = beta / (1.0 + beta)
    pot = build_potential(b, 0.5)
    res = find_roots(pot, 300.5 * math.pi / (2 * b))
    n = np.arange(1, len(res.roots) + 1)
    assert len(res.roots) == 300
    assert np.max(np.abs(res.roots - n * math.pi / (2 * b))) < 1e-10


def test_eleven_roots_up_to_forty():
    # [DERIVED] count frozen from an independent dense scan
    res = find_roots(REF, 40.0)
    assert len(res.roots) == 11
    assert res.roots[0] == pytest.approx(3.25522256931717, abs=1e-9)


def test_roots_monotone_and_residuals_small():
    res = find_roots(REF, 200.0)
    assert np.all(np.diff(res.roots) > 0)
    assert np.max(np.abs(secular(REF, res.roots))) < 1e-10 * (1 + REF.omega1)
    assert res.completeness.max_staircase_deviation <= STAIRCASE_TOLERANCE
    assert res.completeness.near_degenerate == ()


@settings(max_examples=25, deadline=None)
@given(b=st.floats(0.05, 0.95), lam=st.floats(0.0, 0.97))
def test_root_invariants_random_geometry(b, lam):
    pot = build_potential(b, lam)
    res = find_roots(pot, 60.0)
    assert np.all(np.diff(res.roots) > 0)
    assert np.all(res.roots > 0)
    assert np.max(np.abs(secular(pot, res.roots))) < 1e-10 * (1 + pot.omega1)
    assert res.completeness.max_staircase_deviation <= STAIRCASE_TOLERANCE


@pytest.mark.parametrize("lam", [0.3, 0.7])
def test_comb_roots_within_four_ulp(lam):
    # b = beta / (1 + beta) makes l1 = l2, so the levels are n pi / (l1 + l2)
    beta = math.sqrt(1.0 - lam)
    pot = build_potential(beta / (1.0 + beta), lam)
    roots = find_roots(pot, 1e5).roots
    n = np.arange(1, len(roots) + 1, dtype=np.longdouble)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    exact = n * pi / (np.longdouble(pot.l1) + np.longdouble(pot.l2))
    err = np.abs(roots.astype(np.longdouble) - exact) / np.spacing(roots)
    assert np.max(err) <= 4.0


def test_weyl_count_examples():
    assert weyl_count(REF, 10.0) == pytest.approx(10.0 * REF.omega1 / math.pi, abs=1e-15)
    chain = build_nstep([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75])
    assert weyl_count(chain, 10.0) == pytest.approx(
        10.0 * chain.total_length / math.pi, abs=1e-15
    )


def test_newton_polish_hits_machine_precision():
    res = find_roots(REF, 100.0)
    # polished roots should be far below the contract tolerance
    assert np.max(np.abs(secular(REF, res.roots))) < 1e-12
    assert np.min(np.abs(secular_slope(REF, res.roots))) > 1e-3


def test_nstep_free_well_matches_analytic():
    chain = build_nstep([0.0, 1.0], [0.0])
    res = nstep_find_roots(chain, 50.0)
    n = np.arange(1, len(res.roots) + 1)
    assert np.max(np.abs(res.roots - n * math.pi)) < 1e-9


def test_nstep_two_regions_matches_single_step():
    chain = build_nstep([0.0, 0.7, 1.0], [0.0, 0.5])
    a = nstep_find_roots(chain, 100.0).roots
    b = find_roots(REF, 100.0).roots
    assert len(a) == len(b)
    assert np.max(np.abs(a - b)) < 1e-9


def test_nstep_three_regions_frozen_roots():
    # [DERIVED] dense-scan + bisection oracle on the chain secular function
    chain = build_nstep([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75])
    res = nstep_find_roots(chain, 20.0)
    expected = [4.32791598392805, 8.69849686460216, 13.6702509706779, 17.2688835473855]
    assert len(res.roots) == 4
    assert np.max(np.abs(res.roots - expected)) < 1e-9


def test_nstep_rejects_single_step_type():
    with pytest.raises(TypeError):
        nstep_find_roots(REF, 10.0)


def test_find_roots_rejects_bad_arguments():
    with pytest.raises(ValueError, match="k_max"):
        find_roots(REF, -1.0)


def test_engine_raises_when_roots_stay_missing():
    # claim twice the true density of sin(k): rescans cannot conjure roots
    with pytest.raises(CompletenessError) as exc:
        _find_roots_engine(np.sin, 2.0, 20.0)
    err = exc.value
    assert err.deviation > STAIRCASE_TOLERANCE
    lo, hi = err.interval
    assert 0.0 <= lo < hi <= 20.0


def test_energies_property():
    res = find_roots(REF, 20.0)
    assert np.allclose(res.energies, res.roots**2, rtol=0, atol=0)
