"""Orbit-sum density, spectral determinant and cycle expansion."""

import dataclasses
import math

import numpy as np
import pytest

from oracles import evaluate_cycle_terms, secular
from raysplit.model import build_nstep, build_potential
from raysplit.graph import det_one_minus_s
from raysplit.orbits import (
    OrbitClass,
    amplitude,
    orbit_classes,
    orbit_table,
    primitive_count,
)
from raysplit.spectrum import find_roots
from raysplit.trace import (
    cycle_expansion,
    newtonian_prediction,
    rho_resummed,
    rho_trace,
    trace_formula,
    zeta,
)

REF = build_potential(0.7, 0.5)
OMEGA1 = REF.total_length


def records(pot, max_length):
    """Every primitive orbit of the orbit table, each a class of multiplicity 1."""
    table = orbit_table(pot, max_length)
    return [OrbitClass(length=n, n_l=n_l, n_r=n_r, sigma=sigma, tau2=tau2, sign=sign, s0=s0,
                       multiplicity=1)
            for n, n_l, n_r, sigma, tau2, sign, s0 in zip(
                table["length"], table["nL"], table["nR"], table["sigma"], table["tau2"],
                table["sign"], table["S0"])]


def test_empty_orbit_set_gives_smooth_density():
    k = np.linspace(1.0, 10.0, 50)
    prof = rho_trace(REF, [], 5, k)
    assert np.allclose(prof.values, OMEGA1 / (2 * np.pi * k), atol=0, rtol=0)


def test_single_orbit_hand_formula():
    rec, = (r for r in records(REF, 1) if r.n_l == 1)   # the left bouncing orbit
    k = np.linspace(2.0, 8.0, 40)
    eta = 0.1
    nu_max = 3
    prof = rho_trace(REF, [rec], nu_max, k, eta=eta)
    amp = amplitude(rec, REF)
    osc = sum(
        (amp**nu) * np.exp(1j * nu * rec.s0 * (k + 1j * eta))
        for nu in range(1, nu_max + 1)
    )
    expected = OMEGA1 / (2 * np.pi * k) + (rec.s0 / (2 * k)) * osc.real / np.pi
    assert np.max(np.abs(prof.values - expected)) < 1e-14


def test_transparent_step_density_peaks_on_comb():
    # at lam = 0 only the ballistic crossing survives, peaking at m pi / omega1
    pot = build_potential(0.4, 0.0)
    recs = orbit_classes(pot, 2)
    comb = newtonian_prediction(pot, 4)
    mids = comb[:-1] + 0.5 * np.diff(comb)
    at_comb = rho_trace(pot, recs, 40, comb, eta=0.05).values
    at_mids = rho_trace(pot, recs, 40, mids, eta=0.05).values
    assert np.min(at_comb) > 4 * np.max(np.abs(at_mids))


def test_domain_k_is_energy_density_times_jacobian():
    recs = orbit_classes(REF, 4)
    k = np.linspace(1.5, 12.0, 80)
    a = rho_trace(REF, recs, 6, k, eta=0.05, domain="energy").values
    b = rho_trace(REF, recs, 6, k, eta=0.05, domain="k").values
    assert np.max(np.abs(b - 2 * k * a)) < 1e-12


def test_resummed_matches_deep_repetition_sum():
    # |A| <= t^2 = 0.64 here, so nu = 200 saturates the geometric series
    pot = build_potential(0.7, 0.9375)
    recs = orbit_classes(pot, 5)
    k = np.linspace(2.0, 30.0, 500)
    a = rho_trace(pot, recs, 200, k, eta=0.0).values
    b = rho_resummed(pot, recs, k, eta=0.0).values
    assert np.max(np.abs(a - b)) < 1e-6


def test_resummed_rejects_pole():
    # r = 0 makes the crossing amplitude exactly 1: poles on the real axis
    pot = build_potential(0.5, 0.0)
    recs = orbit_classes(pot, 2)
    k = np.array([math.pi / pot.total_length])      # z = 1 exactly
    with pytest.raises(ValueError, match="pole"):
        rho_resummed(pot, recs, k)


def record_sums(pot, recs, nu_max, k, eta):
    """Reference densities with one term per listed orbit: (truncated, resummed)."""
    kc = k + 1j * eta
    weyl = pot.total_length / (2 * np.pi * k)
    truncated = np.zeros_like(kc)
    resummed = np.zeros_like(kc)
    for rec in recs:
        z = amplitude(rec, pot) * np.exp(1j * rec.s0 * kc)
        term, total = z, np.zeros_like(kc)
        for _ in range(nu_max):
            total, term = total + term, term * z
        truncated += (rec.s0 / (2.0 * k)) * total / np.pi
        resummed += (rec.s0 / (2.0 * k)) * (z / (1.0 - z)) / np.pi
    return weyl + truncated.real, weyl + resummed.real


@pytest.mark.parametrize("b, lam, max_length", [(0.7, 0.98, 14), (0.3, 0.6, 12)])
@pytest.mark.parametrize("eta", [0.0, 0.05])
def test_class_sums_equal_orbit_sums(b, lam, max_length, eta):
    pot = build_potential(b, lam)
    k = np.linspace(2.0, 90.0, 400)
    classes = orbit_classes(pot, max_length)
    truncated, resummed = record_sums(pot, records(pot, max_length), 10, k, eta)
    deep = rho_trace(pot, classes, 10, k, eta=eta)
    closed = rho_resummed(pot, classes, k, eta=eta)
    assert np.max(np.abs(deep.values - truncated)) <= 1e-12 * np.max(np.abs(truncated))
    assert np.max(np.abs(closed.values - resummed)) <= 1e-12 * np.max(np.abs(resummed))
    n = sum(map(primitive_count, range(1, max_length + 1)))
    assert deep.truncation == f"{n} primitive orbits"
    assert closed.truncation == f"{n} primitive orbits, resummed"


@pytest.mark.parametrize("b, lam", [(0.7, 0.5), (0.3, 0.9)])
def test_grouped_trace_formula_equals_per_class_sum(b, lam):
    # one e^{i s0 k} per (length, action) group against one per class
    pot = build_potential(b, lam)
    classes = orbit_classes(pot, 32)
    k = np.random.default_rng(2).uniform(1.0, 1e4, 64)
    per_class = np.zeros((32, k.size), dtype=complex)
    for cls in classes:
        z = amplitude(cls, pot) * np.exp(1j * cls.s0 * k)
        for q in range(1, 32 // cls.length + 1):
            per_class[q * cls.length - 1] += 2 * cls.length * cls.multiplicity * z ** q
    grouped = trace_formula(pot, classes, k)
    assert grouped.shape == (32, k.size)
    for n in range(32):
        scale = np.max(np.abs(per_class[n]))
        assert np.max(np.abs(grouped[n] - per_class[n])) <= 1e-12 * scale, n + 1


def test_zeta_over_classes_equals_product_over_orbits():
    pot = build_potential(0.7, 0.98)
    ks = np.linspace(2.0, 30.0, 200) + 0.05j
    for max_length in (4, 8, 12):
        product = np.ones_like(ks)
        for rec in records(pot, max_length):
            product = product * (1.0 - amplitude(rec, pot) * np.exp(1j * rec.s0 * ks))
        assert np.max(np.abs(zeta(pot, orbit_classes(pot, max_length), ks) - product)) < 1e-12


@pytest.mark.parametrize("eta", [-0.1, -math.inf, math.inf, math.nan])
def test_eta_must_damp(eta):
    classes = orbit_classes(REF, 3)
    with pytest.raises(ValueError, match="eta must be finite and >= 0"):
        rho_trace(REF, classes, 3, np.array([1.0]), eta=eta)
    with pytest.raises(ValueError, match="eta must be finite and >= 0"):
        rho_resummed(REF, classes, np.array([1.0]), eta=eta)


def test_grid_and_argument_validation():
    recs = orbit_classes(REF, 2)
    with pytest.raises(ValueError, match="k_grid"):
        rho_trace(REF, recs, 3, np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="nu_max"):
        rho_trace(REF, recs, 0, np.array([1.0]))
    with pytest.raises(ValueError, match="domain"):
        rho_trace(REF, recs, 3, np.array([1.0]), domain="momentum")


def test_newtonian_prediction_values():
    comb = newtonian_prediction(REF, 3)
    expected = np.pi * np.arange(1, 4) / OMEGA1
    assert np.allclose(comb, expected, atol=1e-15)
    with pytest.raises(ValueError, match="m_max"):
        newtonian_prediction(REF, 0)


def test_zeta_trivial_cases():
    assert zeta(REF, [], 3.7) == 1.0 + 0.0j
    out = zeta(REF, orbit_classes(REF, 2), np.array([1.0, 2.0]))
    assert out.shape == (2,)


def test_zeta_transparent_step_zeros():
    # only 1 - e^{2 i omega1 k} survives: zeros exactly at the free levels
    pot = build_potential(0.5, 0.0)
    recs = orbit_classes(pot, 2)
    for m in (1, 2, 5):
        assert abs(zeta(pot, recs, m * math.pi / pot.total_length)) < 1e-12


def test_zeta_converges_to_determinant_off_axis():
    # [DERIVED] truncation error on Im k = 0.5 frozen from an independent run
    pot = build_potential(0.5, 0.19)
    ks = np.linspace(2.0, 10.0, 9) + 0.5j
    det = det_one_minus_s(pot, ks)
    errs = []
    for max_len in (2, 4, 6, 8, 10, 12):
        z = zeta(pot, orbit_classes(pot, max_len), ks)
        errs.append(float(np.max(np.abs(z - det))))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 5e-4


def unwound_drop(values, omega1, half):
    phases = np.unwrap(np.angle(values))
    return phases[-1] - phases[0] - omega1 * 2 * half


def test_phase_winds_once_per_level():
    # crossing a simple zero just above the axis costs ~pi of phase after
    # removing the smooth e^{i omega1 k} winding
    roots = find_roots(REF, 20.0).roots[:5]
    recs = orbit_classes(REF, 8)
    half, eta = 0.25, 0.02
    expected = -2 * math.atan(half / eta)     # -0.950 pi for this window
    for kj in roots:
        ks = np.linspace(kj - half, kj + half, 2001) + 1j * eta
        det_drop = unwound_drop(det_one_minus_s(REF, ks), OMEGA1, half)
        assert det_drop == pytest.approx(expected, abs=0.02 * math.pi)
        zeta_drop = unwound_drop(zeta(REF, recs, ks), OMEGA1, half)
        assert -1.3 * math.pi < zeta_drop < -0.45 * math.pi


def test_cycle_expansion_single_orbit():
    rec, = (r for r in records(REF, 1) if r.n_l == 1)   # L, sign -1, one reflection: 1 + r x
    cells = cycle_expansion([rec])
    assert cells == {(0, 0, 0): 1, (1, 0, 0): 1}
    k = 2.3 + 0.1j
    assert evaluate_cycle_terms(cells, REF, k) == pytest.approx(
        1 - amplitude(rec, REF) * np.exp(1j * rec.s0 * k), abs=1e-15
    )


DET_CELLS = {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): -1, (1, 1, 0): -1, (1, 1, 2): -1}


@pytest.mark.parametrize("max_length", [2, 8, 16, 32])
def test_cycle_expansion_terminates_at_degree_two(max_length):
    # 1 + r x - r y - (r^2 + t^2) x y: every longer pseudo-orbit cancels
    assert cycle_expansion(orbit_classes(REF, max_length)) == DET_CELLS


@pytest.mark.parametrize("b, lam", [(0.7, 0.5), (0.7, 0.98), (0.5, 0.0)])
def test_cycle_expansion_evaluates_to_det_one_minus_s(b, lam):
    pot = build_potential(b, lam)
    cells = cycle_expansion(orbit_classes(pot, 12))
    assert cells == DET_CELLS
    rng = np.random.default_rng(7)
    ks = rng.uniform(0.5, 40.0, 20) + 1j * rng.uniform(-0.5, 0.5, 20)
    det = det_one_minus_s(pot, ks)
    assert np.max(np.abs(evaluate_cycle_terms(cells, pot, ks) - det) / np.abs(det)) < 1e-12
    assert evaluate_cycle_terms(cells, pot, ks[0]) == pytest.approx(det[0], rel=1e-12)


def test_cycle_expansion_is_the_secular_function_on_the_real_axis():
    cells = cycle_expansion(orbit_classes(REF, 8))
    k = np.linspace(0.5, 60.0, 400)
    expected = -2j * np.exp(1j * k * OMEGA1) * secular(REF, k)
    assert np.max(np.abs(evaluate_cycle_terms(cells, REF, k) - expected)) < 1e-12


@pytest.mark.parametrize("mutation", [
    lambda cls: dataclasses.replace(cls, sign=-cls.sign),
    lambda cls: dataclasses.replace(cls, multiplicity=cls.multiplicity + 1),
], ids=["sign", "multiplicity"])
def test_mutated_class_leaves_longer_cells(mutation):
    classes = list(orbit_classes(REF, 10))
    assert cycle_expansion(classes) == DET_CELLS
    i = next(i for i, cls in enumerate(classes) if cls.length == 6)
    classes[i] = mutation(classes[i])
    cells = cycle_expansion(classes)
    assert any(n_l + n_r > 2 for n_l, n_r, _ in cells)
    assert {key: c for key, c in cells.items() if sum(key[:2]) <= 2} == DET_CELLS


def test_orbit_sums_need_two_regions():
    chain = build_nstep([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75])
    classes, k = orbit_classes(REF, 4), np.array([1.0, 2.0])
    for call in (lambda: trace_formula(chain, classes, k), lambda: zeta(chain, classes, k),
                 lambda: rho_trace(chain, classes, 2, k),
                 lambda: evaluate_cycle_terms(cycle_expansion(classes), chain, k)):
        with pytest.raises(ValueError, match="two regions"):
            call()
