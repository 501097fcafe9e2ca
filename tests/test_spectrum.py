"""Secular equation, root finding and completeness diagnostics."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import matching_determinant, secular
from raysplit import graph, spectrum
from raysplit.model import build_nstep, build_potential, step_parameters
from raysplit.spectrum import CompletenessError, find_roots

REF = build_potential(0.7, 0.5)
L1, L2, R, _ = step_parameters(REF)
OMEGA1 = REF.total_length
CHAIN3 = build_nstep([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75])
REPRO5 = build_nstep([0, 0.3805, 0.3905, 0.7133, 0.7979, 1], [0.6119, 0.9401, 0.9907, 0.723, 0.808])


def test_secular_reference_values():
    # [PAPER] sign change bracketing the first excited root
    assert secular(REF, 3.0) == pytest.approx(0.2236, abs=5e-4)
    assert secular(REF, 3.4442) == pytest.approx(-0.1706, abs=5e-4)


@pytest.mark.parametrize("lambdas", [(0.0, 0.5), (0.8, 0.3)], ids=["step", "r-negative"])
def test_step_function_is_twice_the_closed_form(lambdas):
    # for two regions c psi(1; k) = 2 (1 - r) psi(1; k) is 2 secular(k) identically
    pot = build_nstep([0.0, 0.6, 1.0], lambdas)
    k = np.random.default_rng(5).uniform(0.0, 1e3, 500)
    f = spectrum.secular_function(pot)
    assert np.max(np.abs(f(k) - 2.0 * secular(pot, k))) < 1e-12
    assert f(3.0) == pytest.approx(2.0 * secular(pot, 3.0), abs=1e-15)


def test_first_root_frozen_value():
    # [DERIVED] bisection oracle on the secular function
    res = find_roots(REF, 4.0)
    assert res.roots[0] == pytest.approx(3.25522256931717, abs=1e-10)


def test_matching_determinant_same_zero_set():
    # independent wavefunction-matching route: proportional, not identical
    rng = np.random.default_rng(3)
    ks = rng.uniform(0.0, 100.0, 100)
    lhs = matching_determinant(REF, ks)
    rhs = secular(REF, ks) / (1.0 + R)
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
    assert np.max(np.abs(secular(REF, res.roots))) < 1e-10 * (1 + OMEGA1)
    assert res.completeness.tolerance == 1.5
    assert res.completeness.max_staircase_deviation <= 1.5
    assert res.completeness.near_degenerate == ()


@settings(max_examples=25, deadline=None)
@given(b=st.floats(0.05, 0.95), lam=st.floats(0.0, 0.97))
def test_root_invariants_random_geometry(b, lam):
    pot = build_potential(b, lam)
    res = find_roots(pot, 60.0)
    assert np.all(np.diff(res.roots) > 0)
    assert np.all(res.roots > 0)
    assert np.max(np.abs(secular(pot, res.roots))) < 1e-10 * (1 + pot.total_length)
    assert res.completeness.max_staircase_deviation <= 1.5


@pytest.mark.parametrize("lam", [0.3, 0.7])
def test_comb_roots_within_four_ulp(lam):
    # b = beta / (1 + beta) makes l1 = l2 in exact arithmetic, so the levels
    # are n pi / (l1 + l2).  The stored lengths differ in the last bit
    # (l1 - l2 = -5.6e-17 at lam = 0.7), which moves the stored problem's
    # levels up to 0.69 ulp off that comb: hence the looser bound there, and
    # sampled roots checked against the stored problem's levels at 200 bits
    beta = math.sqrt(1.0 - lam)
    pot = build_potential(beta / (1.0 + beta), lam)
    roots = find_roots(pot, 1e5).roots
    n = np.arange(1, len(roots) + 1, dtype=np.longdouble)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    l1, l2, _, _ = step_parameters(pot)
    exact = n * pi / (np.longdouble(l1) + np.longdouble(l2))
    err = np.abs(roots.astype(np.longdouble) - exact) / np.spacing(roots)
    assert np.max(err) <= 4.0
    _assert_nearest_floats(pot, np.random.default_rng(8).choice(roots, 60, replace=False))


def test_newton_polish_hits_machine_precision():
    res = find_roots(REF, 100.0)
    # polished roots should be far below the contract tolerance
    assert np.max(np.abs(secular(REF, res.roots))) < 1e-12
    assert np.min(np.abs(spectrum._chain_psi(REF, res.roots)[1])) > 1e-3


def test_nstep_free_well_matches_analytic():
    chain = build_nstep([0.0, 1.0], [0.0])
    res = find_roots(chain, 50.0)
    n = np.arange(1, len(res.roots) + 1)
    assert np.max(np.abs(res.roots - n * math.pi)) < 1e-9


def test_nstep_two_regions_matches_single_step():
    chain = build_nstep([0.0, 0.7, 1.0], [0.0, 0.5])
    a = find_roots(chain, 100.0).roots
    b = find_roots(REF, 100.0).roots
    assert len(a) == len(b)
    assert np.max(np.abs(a - b)) < 1e-9


def test_nstep_three_regions_frozen_roots():
    # [DERIVED] dense-scan + bisection oracle on the chain secular function
    chain = build_nstep([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75])
    res = find_roots(chain, 20.0)
    expected = [4.32791598392805, 8.69849686460216, 13.6702509706779, 17.2688835473855]
    assert len(res.roots) == 4
    assert np.max(np.abs(res.roots - expected)) < 1e-9


def test_find_roots_rejects_bad_arguments():
    with pytest.raises(ValueError, match="k_max"):
        find_roots(REF, -1.0)
    for k_max in (np.inf, np.nan):
        with pytest.raises(ValueError, match="k_max must be finite and positive"):
            find_roots(REF, k_max)


def test_engine_raises_when_roots_stay_missing(monkeypatch):
    # a refinement that loses root 20 (the rest shift down, the last lands
    # past k_max), or returns root 21 twice, breaks the certificate
    k20 = find_roots(REF, 100.0).roots[20]
    lose = lambda r: np.append(np.delete(r, 20), 1e9)
    duplicate = lambda r: np.where(np.arange(len(r)) == 20, r[21], r)
    newton = spectrum._newton
    for broken, message in ((lose, "staircase deviates"), (duplicate, "not strictly increasing")):
        monkeypatch.setattr(spectrum, "_newton",
                            lambda *a, broken=broken: broken(newton(*a)))
        with pytest.raises(CompletenessError, match=message) as exc:
            find_roots(REF, 100.0)
        lo, hi = exc.value.interval
        assert lo < k20 < hi
        if broken is lose:
            assert exc.value.deviation > 1.5


class Counted:
    """f(pot, k) with a count of the points it was evaluated at."""

    def __init__(self, f):
        self.f = f
        self.points = 0

    def __call__(self, pot, k, slope=True):
        self.points += np.size(k)
        return self.f(pot, k, slope=slope)


@pytest.mark.parametrize("case", ["step", "chain"])
def test_refinement_evaluations_per_bracket(case, monkeypatch):
    # every function evaluation of find_roots, per root (one bracket per root);
    # the scan and refinement it replaced needed about 25, the regula falsi
    # that refined theta to adjacent floats about 9.5
    pot, k_max = (REF, 1e4) if case == "step" else (CHAIN3, 5e3)
    counters = []
    for name in ("_prufer_angle", "_chain_psi"):
        counters.append(Counted(getattr(spectrum, name)))
        monkeypatch.setattr(spectrum, name, counters[-1])
    roots = find_roots(pot, k_max).roots
    assert len(roots) > 1000
    assert counters[0].points > 0
    assert sum(c.points for c in counters) / len(roots) <= 6.0


@pytest.mark.parametrize("pot", [REF, CHAIN3], ids=["step", "chain3"])
def test_level_at_k_max_is_kept(pot):
    # every level whose float is <= k_max is returned, and none above it: a
    # k_max on a level's own float keeps it, the float just below drops it
    low, high = find_roots(pot, 2e4).roots, find_roots(pot, 1e6).roots
    picks = [*np.linspace(0, len(low) - 1, 40).astype(int), *range(len(high) - 3, len(high))]
    for i in picks:
        level = (low if i < len(low) else high)[i]
        roots = find_roots(pot, level).roots
        assert len(roots) == i + 1 and roots[-1] == level
        below = find_roots(pot, np.nextafter(level, 0.0)).roots
        assert len(below) == i and (i == 0 or below[-1] < level)


def test_find_roots_memory_is_bounded():
    # the roots and one more count-sized array at most: levels are solved,
    # kept and certified _REFINE_BLOCK at a time
    tracemalloc.start()
    try:
        res = find_roots(REF, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = len(res.roots)
    assert count == 290340
    assert peak <= 2 * 8 * count + 2e6


def _whole_certificate(roots, slope, k_max, bound):
    """spectrum._certificate over the whole list at once."""
    w = slope * roots / np.pi
    n = np.arange(1, len(roots) + 1)
    devs = np.append(np.maximum(np.abs(n - 1 - w), np.abs(n - w)),
                     abs(len(roots) - slope * k_max / np.pi))
    over = np.flatnonzero(devs > bound)
    unordered = np.flatnonzero(np.diff(roots) <= 0.0)
    return (float(devs.max()), int(over[0] if over.size else np.argmax(devs)),
            int(unordered[0]) if unordered.size else None)


@pytest.mark.parametrize("size", [0, 1, 6, 7, 8, 20, 21, 22])
@pytest.mark.parametrize("seed", range(4))
def test_blocked_certificate_matches_whole_list(monkeypatch, size, seed):
    # blocks of 7: lists that end just before, on and after a block boundary,
    # with a lost level, a repeated one, a tie of the sup or a nan
    monkeypatch.setattr(spectrum, "_REFINE_BLOCK", 7)
    rng = np.random.default_rng(seed)
    roots = np.arange(1, size + 1) + rng.uniform(-0.4, 0.4, size)
    if size > 2:
        i = int(rng.integers(1, size - 1))
        broken = [np.delete(roots, i), np.where(np.arange(size) == i, roots[i - 1], roots),
                  np.round(roots), np.where(np.arange(size) == i, np.nan, roots)]
    else:
        broken = []
    for r in (roots, *broken):
        for k_max in (size + 0.5, size + 3.0):
            np.testing.assert_equal(spectrum._certificate(r, np.pi, k_max, 1.0),
                                    _whole_certificate(r, np.pi, k_max, 1.0))


def test_small_chunks_give_the_same_roots(monkeypatch):
    # levels are refined in blocks of _REFINE_BLOCK; each bracket is refined
    # on its own, so the block size cannot change a root
    whole = find_roots(CHAIN3, 600.0)
    monkeypatch.setattr(spectrum, "_REFINE_BLOCK", 7)
    chunked = find_roots(CHAIN3, 600.0)
    assert len(whole.roots) > 100
    assert np.array_equal(whole.roots, chunked.roots)
    assert chunked.completeness == whole.completeness


@pytest.mark.parametrize("j", [4, 5, 6, 7, 8])
def test_sign_change_across_a_chunk_boundary_is_found(monkeypatch, j):
    # with blocks of 7 levels, level 7 ends the first block and level 8 starts
    # the next; k_max just past level j + 1 ends the last block before, on or
    # after that boundary, and the index brackets of the 3-region chain
    # (width 2 pi / Omega) overlap the neighbouring block's
    whole = find_roots(CHAIN3, 60.0).roots
    k_max = 0.5 * (whole[j] + whole[j + 1])
    monkeypatch.setattr(spectrum, "_REFINE_BLOCK", 7)
    roots = find_roots(CHAIN3, k_max).roots
    assert len(roots) == j + 1
    assert np.array_equal(roots, whole[:j + 1])
    n = np.arange(1, j + 2)
    half = 0.5 * (len(CHAIN3.lambdas) - 1)
    assert np.all(np.abs(roots * CHAIN3.total_length / np.pi - n) <= half)


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(1e-3, 1e6),    # k > 0; near 0, (k - c)^3 underflows to an exact zero
    left=st.floats(1e-12, 1e3),
    right=st.floats(1e-12, 1e3),
    kind=st.sampled_from(["cube", "tanh"]),
)
def test_hard_brackets_end_at_the_root(c, left, right, kind):
    # a triple root (Newton converges only linearly, by 2/3 a step) and a
    # saturated step (Newton steps leave the bracket) need the safeguard
    lo, hi = c - left * max(1.0, abs(c)), c + right * max(1.0, abs(c))
    assume(lo < c < hi)
    if kind == "cube":
        f, multiplicity = lambda k: ((k - c) ** 3, 3.0 * (k - c) ** 2), 3
    else:
        f, multiplicity = lambda k: (np.tanh(50.0 * (k - c)), 50.0 / np.cosh(50.0 * (k - c)) ** 2), 1
    evaluations = []
    counted = lambda k: evaluations.append(k) or f(k)
    tol = 1e-8 * (hi - lo)
    lo, hi = np.array([lo]), np.array([hi])
    root = spectrum._newton(counted, 0.5 * (lo + hi), lo, hi, np.zeros(1), tol)[0]
    assert len(evaluations) < spectrum._NEWTON_ITERS
    assert abs(root - c) <= max(multiplicity - 1, 1) * tol + 2 * np.spacing(c)


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


def _psi_end(chain):
    """psi(1) of -psi'' = k^2 beta(x)^2 psi with psi(0) = 0, by transfer matrices."""
    bps = [mpmath.mpf(x) for x in chain.breakpoints]
    betas = [mpmath.sqrt(1 - mpmath.mpf(lam)) for lam in chain.lambdas]

    def psi_end(k):
        psi, dpsi = mpmath.mpf(0), mpmath.mpf(1)
        for beta, a, c in zip(betas, bps, bps[1:]):
            q, w = beta * k, c - a
            psi, dpsi = (psi * mpmath.cos(q * w) + dpsi * mpmath.sin(q * w) / q,
                         -psi * q * mpmath.sin(q * w) + dpsi * mpmath.cos(q * w))
        return psi

    return psi_end


def _random_chain(seed):
    rng = np.random.default_rng(seed)
    n_regions = int(rng.integers(1, 7))
    breakpoints = [0.0, *np.sort(rng.uniform(0.0, 1.0, n_regions - 1)), 1.0]
    return build_nstep(breakpoints, rng.uniform(0.0, 0.99, n_regions)), rng


@pytest.mark.parametrize("seed", range(12))
def test_chain_function_is_the_rotated_det(seed):
    # det(1 - S) of the graph model stays the independent oracle for psi(1; k)
    chain, rng = _random_chain(seed)
    k = rng.uniform(0.0, 200.0, 200)
    theta0 = np.angle(np.linalg.det(graph.build_smatrix(chain, 0.0)))
    dim = 2 * len(chain.lambdas)
    rotate = np.exp(-0.5j * (2.0 * chain.total_length * k + theta0 + np.pi * dim))
    xi = (rotate * graph.det_one_minus_s(chain, k)).real
    f = spectrum.secular_function(chain)(k)
    sign = (-1) ** (len(chain.lambdas) - 1)
    assert np.max(np.abs(f - sign * xi)) <= 1e-12 * np.max(np.abs(xi))


@pytest.mark.parametrize("seed", range(4))
def test_chain_slope_against_mpmath(seed):
    # _chain_psi takes psi'(0) = beta_1 k, the oracle 1, and scales by 2 prod (1 - r_i)
    chain, rng = _random_chain(seed)
    k = rng.uniform(0.0, 200.0, 8)
    slope = spectrum._chain_psi(chain, k)[1]
    betas = chain.betas
    scale = 2.0 * math.prod(1.0 - (a - b) / (a + b) for a, b in zip(betas, betas[1:]))
    with mpmath.workdps(40):
        psi_end = _psi_end(chain)
        beta1 = mpmath.sqrt(1 - mpmath.mpf(chain.lambdas[0]))
        exact = scale * np.array([float(mpmath.diff(lambda x: beta1 * x * psi_end(x), mpmath.mpf(x)))
                                  for x in k])
    assert np.max(np.abs(slope - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_chain_roots_need_no_scattering_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("the scattering matrix was used")

    monkeypatch.setattr(graph, "det_one_minus_s", refuse)
    monkeypatch.setattr(graph, "build_smatrix", refuse)
    res = find_roots(CHAIN3, 500.0)
    assert len(res.roots) > 100
    spectrum.secular_function(CHAIN3)(res.roots)


def test_chain_roots_against_mpmath():
    roots = find_roots(CHAIN3, 5e4).roots
    with mpmath.workdps(40):
        errs = _ulp_errors(roots, _psi_end(CHAIN3))
    assert np.max(errs) <= 4.0


def _psi_end_exact(pot):
    """psi(1; k), up to a positive factor, of the problem find_roots solves:
    the float64 optical lengths and wavenumber ratios of pot, taken exactly."""
    lengths = [mpmath.mpf(x) for x in pot.lengths]
    betas = [mpmath.mpf(x) for x in pot.betas]

    def psi_end(k):
        u, v = mpmath.mpf(0), mpmath.mpf(1)
        for i, length in enumerate(lengths):
            v = v * betas[max(i - 1, 0)] / betas[i]
            c, s = mpmath.cos(k * length), mpmath.sin(k * length)
            u, v = c * u + s * v, c * v - s * u
        return u

    return psi_end


@pytest.mark.parametrize("pot", [REF, CHAIN3], ids=["step", "chain"])
def test_roots_are_correctly_rounded(pot):
    # 30 roots below each of k = 1e2, 1e4 and 1e6 against the root at 200 bits:
    # each is the nearest float64, up to 2e-15 of sin and cos rounding at small k
    roots = find_roots(pot, 1e6).roots
    ends = np.searchsorted(roots, [1e2, 1e4, 1e6])
    _assert_nearest_floats(pot, np.concatenate([roots[j - 30:j] for j in ends]))


def _assert_nearest_floats(pot, roots):
    """Each root is within ulp(k) / 2 + 2e-15 of the level of pot as stored,
    found at 200 bits: find_roots' contract."""
    with mpmath.workprec(200):
        psi_end = _psi_end_exact(pot)
        for k in roots:
            x = mpmath.mpf(float(k))
            exact = mpmath.findroot(psi_end, (x, x * (1 + mpmath.mpf(2) ** -40)), solver="secant")
            assert float(abs(x - exact)) <= 0.5 * np.spacing(k) + 2e-15, k


@pytest.mark.parametrize("chain, k_max", [
    (REPRO5, 300.0),
    # lambda = 0.985 in the last region, where theta(1; k) grows slowest
    (build_nstep([0.0, 0.4, 0.75, 1.0], [0.2, 0.5, 0.985]), 5e4),
], ids=["repro5", "high-contrast"])
def test_new_chain_geometries_against_mpmath(chain, k_max):
    roots = find_roots(chain, k_max).roots
    with mpmath.workdps(40):
        errs = _ulp_errors(roots, _psi_end(chain))
    assert np.max(errs) <= 4.0


def _psi_end_sign_changes(chain, k_max):
    """Levels in (0, k_max] as sign changes of psi(1; k) on a grid of 640
    points per mean spacing, 32 times the density of the sign-change scan
    the engine used to run; float transfer matrices, neither theta nor
    det(1 - S)."""
    h = np.pi / (640.0 * chain.total_length)
    k = np.append(np.arange(h / 2, k_max, h), k_max)
    psi, dpsi = np.zeros_like(k), np.ones_like(k)
    for beta, a, c in zip(chain.betas, chain.breakpoints, chain.breakpoints[1:]):
        q, w = beta * k, c - a
        psi, dpsi = (psi * np.cos(q * w) + dpsi * np.sin(q * w) / q,
                     -psi * q * np.sin(q * w) + dpsi * np.cos(q * w))
    return int(np.count_nonzero(np.signbit(psi[1:]) != np.signbit(psi[:-1])))


@pytest.mark.parametrize("seed", range(40))
def test_random_chain_count_intervals_and_bound(seed):
    chain, rng = _random_chain(seed)
    omega, half = chain.total_length, 0.5 * (len(chain.lambdas) - 1)
    k_max = rng.uniform(40.0, 80.0) * np.pi / omega
    res = find_roots(chain, k_max)
    assert len(res.roots) == _psi_end_sign_changes(chain, k_max)
    # level n lies in its index interval [(n - half) pi / omega, (n + half) pi / omega]
    n = np.arange(1, len(res.roots) + 1)
    assert np.all(np.abs(n - omega * res.roots / np.pi) <= half + 1e-9)
    assert res.completeness.tolerance == 1.0 + half
    assert res.completeness.max_staircase_deviation <= 1.0 + half + 1e-9
