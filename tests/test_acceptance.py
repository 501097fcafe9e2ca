"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Each criterion prints exactly one line so a plain `pytest -s tests/test_acceptance.py`
reads as a checklist.  Criteria 3 and 7 share one 10,000-root spectrum via a
module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

from raysplit.analysis import default_s_spacing, default_tolerance, detect_peaks, fourier_transform, match_peaks
from raysplit.combinatorics import binomial_sums, sum_rule_polynomial
from raysplit.graph import det_one_minus_s, trace_powers
from raysplit.model import build_nstep, build_potential, step_parameters
from raysplit.orbits import orbit_classes
from raysplit.spectrum import find_roots
from raysplit.trace import newtonian_prediction, rho_resummed, rho_trace, trace_formula, zeta

REF = build_potential(0.7, 0.5)
L1, L2, _, _ = step_parameters(REF)
OMEGA1 = REF.total_length


CRITERION_LINES = []


def report(n, ok):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    CRITERION_LINES.append(line)
    print(line)
    return ok


@pytest.fixture(scope="module")
def ref_roots():
    k_max = (10_000 + 0.5) * math.pi / OMEGA1
    result = find_roots(REF, k_max)
    assert len(result.roots) >= 10_000
    return result


def test_criterion_01_free_well_limit():
    start = time.perf_counter()
    pot = build_potential(0.5, 0.0)
    roots = find_roots(pot, 1000.5 * math.pi).roots[:1000]
    elapsed = time.perf_counter() - start
    n = np.arange(1, 1001)
    ok = len(roots) == 1000 and np.max(np.abs(roots - n * math.pi)) < 1e-10
    assert report(1, ok and elapsed < 1.0)
    assert elapsed < 1.0


def test_criterion_02_equal_length_closed_form():
    start = time.perf_counter()
    beta = math.sqrt(0.5)
    b = beta / (1.0 + beta)
    pot = build_potential(b, 0.5)
    spacing = math.pi / (2.0 * b)
    roots = find_roots(pot, 1000.5 * spacing).roots[:1000]
    elapsed = time.perf_counter() - start
    n = np.arange(1, 1001)
    ok = len(roots) == 1000 and np.max(np.abs(roots - n * spacing)) < 1e-10
    assert report(2, ok and elapsed < 1.0)
    assert elapsed < 1.0


def test_criterion_03_weyl_completeness(ref_roots):
    start = time.perf_counter()
    roots = ref_roots.roots
    w = OMEGA1 * roots / math.pi
    n = np.arange(1, len(roots) + 1)
    sup = max(
        float(np.max(np.abs(n - w))),
        float(np.max(np.abs(n - 1 - w))),
    )
    elapsed = time.perf_counter() - start
    ok = len(roots) >= 10_000 and sup <= 1.5
    ok = ok and ref_roots.completeness.max_staircase_deviation <= 1.5
    assert report(3, ok)
    assert elapsed < 30.0


def test_criterion_04_trace_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    ks = rng.uniform(0.0, 100.0, 100)
    words = trace_formula(REF, orbit_classes(REF, 12), ks)
    even_dev = 0.0
    odd_dev = 0.0
    for i, k in enumerate(ks):
        for n in range(1, 13):
            even_dev = max(even_dev, abs(trace_powers(REF, k, 2 * n)[-1] - words[n - 1, i]))
            odd_dev = max(odd_dev, abs(trace_powers(REF, k, 2 * n + 1)[-1]))
    elapsed = time.perf_counter() - start
    ok = even_dev < 1e-10 and odd_dev < 1e-12
    assert report(4, ok and elapsed < 30.0)
    assert elapsed < 30.0


def test_criterion_05_quantization_equivalence():
    roots = find_roots(REF, 350.0).roots
    first100 = roots[:100]
    det_ok = len(first100) == 100 and np.max(np.abs(det_one_minus_s(REF, first100))) < 1e-8
    chain = build_nstep([0.0, 0.7, 1.0], [0.0, 0.5])
    chain_roots = find_roots(chain, 350.0).roots
    cross_ok = len(chain_roots) == len(roots) and np.max(np.abs(chain_roots - roots)) < 1e-9
    assert report(5, det_ok and cross_ok)


def test_criterion_06_exact_identities():
    start = time.perf_counter()
    ok = True
    for m in range(1, 13):
        coeffs, flat = sum_rule_polynomial(binomial_sums(m))
        ok = ok and flat and coeffs[0] == 1 and all(c == 0 for c in coeffs[1:])
        ok = ok and all(s == math.comb(m, i) for i, s in enumerate(binomial_sums(m)))
    elapsed = time.perf_counter() - start
    assert report(6, ok and elapsed < 60.0)
    assert elapsed < 60.0


def test_criterion_07_action_spectroscopy(ref_roots):
    start = time.perf_counter()
    roots = ref_roots.roots[:10_000]
    k_max = float(roots[-1])
    ds = default_s_spacing(k_max)
    s = np.arange(0.2 + ds, 10.0 + ds, ds)
    profile = fourier_transform(roots, s)
    peaks = detect_peaks(profile, 0.05)
    tol = default_tolerance(k_max)
    # complete candidate set: every repeated action is 2 (a l1 + c l2)
    lattice = sorted(
        2.0 * (a * L1 + c * L2)
        for a in range(int(10.0 / (2 * L1)) + 2)
        for c in range(int(10.0 / (2 * L2)) + 2)
        if (a, c) != (0, 0) and 2.0 * (a * L1 + c * L2) <= 10.0 + tol
    )
    match = match_peaks(peaks, lattice, tol)
    newtonian = 2.0 * OMEGA1 * np.arange(1, int(10.0 / (2 * OMEGA1)) + 2)
    non_newtonian = [
        p for p, a, _ in match.pairs
        if not math.isnan(a) and np.min(np.abs(newtonian - a)) > tol
    ]
    elapsed = time.perf_counter() - start
    ok = len(peaks) > 0 and match.matched_fraction == 1.0 and len(non_newtonian) >= 1
    assert report(7, ok and elapsed < 60.0)
    assert elapsed < 60.0


def test_criterion_08_density_reconstruction():
    # geometry with a strong step so the ballistic comb visibly fails
    pot = build_potential(0.7, 0.98)
    tol = 0.25 * math.pi / pot.total_length
    roots = find_roots(pot, 100.0).roots[:20]
    recs = orbit_classes(pot, 7)
    step = math.pi / (400.0 * pot.total_length)
    k = np.arange(step, roots[-1] + 2 * tol, step)
    values = rho_trace(pot, recs, 30, k, eta=0.05).values
    idx = np.where((values[1:-1] > values[:-2]) & (values[1:-1] >= values[2:]))[0] + 1
    maxima = k[idx]
    rho_ok = all(np.min(np.abs(maxima - r)) <= tol for r in roots)
    comb = newtonian_prediction(pot, int(roots[-1] * pot.total_length / math.pi) + 2)
    comb_miss = any(np.min(np.abs(comb - r)) > tol for r in roots)
    assert report(8, len(roots) == 20 and rho_ok and comb_miss)


def test_criterion_09_geometric_series_consistency():
    pot = build_potential(0.7, 0.9375)          # |A| <= t^2 = 0.64: no poles
    recs = orbit_classes(pot, 6)
    k = np.linspace(2.0, 40.0, 1000)
    deep = rho_trace(pot, recs, 200, k).values
    closed = rho_resummed(pot, recs, k).values
    ok = float(np.max(np.abs(deep - closed))) < 1e-6
    assert report(9, ok)


def test_criterion_10_zeta_zeros_localize_spectrum():
    pot = build_potential(0.5, 0.9375)
    roots = find_roots(pot, 60.0).roots[:10]
    recs = orbit_classes(pot, 8)
    k = np.arange(0.5, roots[-1] + 1.0, 5e-4)
    absz = np.abs(zeta(pot, recs, k + 0.05j))
    idx = np.where((absz[1:-1] < absz[:-2]) & (absz[1:-1] <= absz[2:]))[0] + 1
    minima = k[idx]
    devs = [float(np.min(np.abs(minima - r))) for r in roots]
    ok = len(roots) == 10 and max(devs) < 0.05
    assert report(10, ok)
