"""Secular equation, root finding and completeness diagnostics."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from raysplit import spectrum
from raysplit.model import build_nstep, build_potential
from raysplit.spectrum import (
    STAIRCASE_TOLERANCE,
    CompletenessError,
    _find_roots_engine,
    _merge_duplicates,
    _real_secular_chain,
    _refine_blocks,
    _scan_grid,
    _scan_interval,
    find_roots,
    matching_determinant,
    nstep_find_roots,
    secular,
    secular_slope,
    weyl_count,
)

REF = build_potential(0.7, 0.5)
CHAIN3 = build_nstep([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75])


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


class Counted:
    """f with a count of the points it was evaluated at."""

    def __init__(self, f):
        self.f = f
        self.points = 0

    def __call__(self, k):
        self.points += np.size(k)
        return self.f(k)


def _brackets(f, slope, k_max):
    h = np.pi / (20.0 * slope)
    grid = np.arange(h / 2, k_max + h, h)
    vals = f(grid)
    idx = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    return grid[idx], grid[idx + 1], vals[idx], vals[idx + 1]


@pytest.mark.parametrize("case", ["step", "chain"])
def test_refinement_evaluations_per_bracket(case):
    # 46 bisection steps per bracket before; Illinois needs far fewer
    if case == "step":
        f, slope, k_max = (lambda k: secular(REF, k)), REF.omega1, 1e4
    else:
        f, slope, k_max = _real_secular_chain(CHAIN3), CHAIN3.total_length, 5e3
    lo, hi, flo, fhi = _brackets(f, slope, k_max)
    counted = Counted(f)
    roots = _refine_blocks(counted, lo, hi, flo, fhi)
    assert len(roots) > 1000
    assert np.all((lo <= roots) & (roots <= hi))
    assert counted.points / len(roots) <= 12.0


@pytest.mark.parametrize("k_lo, k_hi, h", [
    (0.0, 1e6, math.pi / (20.0 * REF.omega1)),
    (0.0, 5e4, math.pi / (20.0 * CHAIN3.total_length)),
    (123.456, 9876.5, 0.0173),
    (3.0, 3.05, 0.01),
    (3.0, 3.0, 0.01),
])
def test_scan_grid_is_arange_bit_for_bit(k_lo, k_hi, h):
    expected = np.arange(k_lo + h / 2, k_hi + h, h)
    if len(expected) < 2:
        expected = np.array([k_lo + h / 2, k_hi + h])
    start = 0
    for chunk in _scan_grid(k_lo, k_hi, h):
        # each chunk starts on the last point of the one before
        assert len(chunk) <= spectrum._SCAN_CHUNK
        assert np.array_equal(chunk, expected[start:start + len(chunk)])
        start += len(chunk) - 1
    assert start == len(expected) - 1


def test_small_chunks_give_the_same_roots(monkeypatch):
    whole = _scan_interval(np.sin, 0.0, 100.0, 0.1)
    monkeypatch.setattr(spectrum, "_SCAN_CHUNK", 7)
    assert len(list(_scan_grid(0.0, 100.0, 0.1))) > 100
    chunked = _scan_interval(np.sin, 0.0, 100.0, 0.1)
    assert len(whole) == 31
    assert np.array_equal(whole, chunked)


@pytest.mark.parametrize("j", [4, 5, 6, 7, 8])
def test_sign_change_across_a_chunk_boundary_is_found(monkeypatch, j):
    # with chunks of 7 points, grid points 6 and 12 end one chunk and start the next
    monkeypatch.setattr(spectrum, "_SCAN_CHUNK", 7)
    h = 0.25
    grid = np.arange(h / 2, 10.0 + h, h)
    c = 0.5 * (grid[j] + grid[j + 1])
    roots = _scan_interval(lambda k: k - c, 0.0, 10.0, h)
    assert len(roots) == 1
    assert abs(roots[0] - c) <= np.spacing(c)


def test_find_roots_memory_is_bounded():
    tracemalloc.start()
    try:
        res = find_roots(REF, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.roots) == 290340
    assert peak <= 48e6


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(1e-3, 1e6),    # k > 0; near 0, (k - c)^3 underflows to an exact zero
    left=st.floats(1e-12, 1e3),
    right=st.floats(1e-12, 1e3),
    kind=st.sampled_from(["cube", "tanh"]),
)
def test_hard_brackets_end_at_the_root(c, left, right, kind):
    # a triple root and a saturated step defeat plain regula falsi
    lo, hi = c - left * max(1.0, abs(c)), c + right * max(1.0, abs(c))
    assume(lo < c < hi)
    f = (lambda k: (k - c) ** 3) if kind == "cube" else (lambda k: np.tanh(50.0 * (k - c)))
    lo, hi = np.array([lo]), np.array([hi])
    root = _refine_blocks(f, lo, hi, f(lo), f(hi))[0]
    assert abs(root - c) <= 2 * np.spacing(abs(c))


def test_duplicates_merge_in_ulp_not_absolute_units():
    r = 2.0 ** 21 + 0.123456789
    twin = np.nextafter(r, np.inf)
    assert twin - r > 1e-10       # one ulp here exceeds the old absolute tolerance
    assert np.array_equal(_merge_duplicates(np.array([1.0, r, twin])), [1.0, r])
    apart = r + 1e-6
    assert len(_merge_duplicates(np.array([r, apart]))) == 2


def _ulp_errors(roots, exact_fn):
    mpmath.mp.dps = 40
    idx = np.linspace(0, len(roots) - 1, 40).astype(int)
    errs = []
    for k in roots[idx]:
        exact = mpmath.findroot(exact_fn, mpmath.mpf(float(k)))
        errs.append(float(abs(mpmath.mpf(float(k)) - exact)) / np.spacing(k))
    return np.array(errs)


def test_step_roots_against_mpmath():
    # generic geometry, secular function built from b and lambda at 40 digits
    b, lam = 0.63, 0.41
    roots = find_roots(build_potential(b, lam), 1e5).roots
    with mpmath.workdps(40):
        mb = mpmath.mpf(b)
        beta = mpmath.sqrt(1 - mpmath.mpf(lam))
        l1, l2 = mb, beta * (1 - mb)
        r = (1 - beta) / (1 + beta)
        errs = _ulp_errors(roots, lambda k: mpmath.sin(k * (l1 + l2)) - r * mpmath.sin(k * (l1 - l2)))
    assert np.max(errs) <= 4.0


def test_chain_roots_against_mpmath():
    # psi(1) of -psi'' = k^2 beta(x)^2 psi with psi(0) = 0, by transfer matrices
    roots = nstep_find_roots(CHAIN3, 5e4).roots
    with mpmath.workdps(40):
        bps = [mpmath.mpf(x) for x in CHAIN3.breakpoints]
        betas = [mpmath.sqrt(1 - mpmath.mpf(lam)) for lam in CHAIN3.lambdas]

        def psi_end(k):
            psi, dpsi = mpmath.mpf(0), mpmath.mpf(1)
            for beta, a, c in zip(betas, bps, bps[1:]):
                q, w = beta * k, c - a
                psi, dpsi = (psi * mpmath.cos(q * w) + dpsi * mpmath.sin(q * w) / q,
                             -psi * q * mpmath.sin(q * w) + dpsi * mpmath.cos(q * w))
            return psi

        errs = _ulp_errors(roots, psi_end)
    assert np.max(errs) <= 4.0
