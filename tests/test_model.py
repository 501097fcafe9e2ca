"""Construction and validation of the potential dataclasses."""

import math

import pytest
from hypothesis import given, strategies as st

from raysplit.model import (
    NStepPotential,
    build_nstep,
    build_potential,
    interface_coefficients,
    step_parameters,
)


def test_reference_geometry_fields():
    # [DERIVED] closed forms at b = 0.7, lam = 0.5
    pot = build_potential(0.7, 0.5)
    l1, l2, r, t = step_parameters(pot)
    assert pot.betas[1] == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert l1 == 0.7
    assert l2 == pytest.approx(0.3 * math.sqrt(0.5), abs=1e-15)
    assert pot.total_length == pytest.approx(0.7 + 0.3 * math.sqrt(0.5), abs=1e-15)
    assert l1 - l2 == pytest.approx(0.7 - 0.3 * math.sqrt(0.5), abs=1e-15)
    beta = math.sqrt(0.5)
    assert r == pytest.approx((1 - beta) / (1 + beta), abs=1e-15)
    assert t == pytest.approx(math.sqrt(1 - r**2), abs=1e-15)


def test_zero_strength_is_transparent():
    pot = build_potential(0.3, 0.0)
    _, l2, r, t = step_parameters(pot)
    assert pot.betas == (1.0, 1.0)
    assert r == 0.0
    assert t == 1.0
    assert l2 == pytest.approx(0.7, abs=1e-15)
    assert pot.total_length == pytest.approx(1.0, abs=1e-15)


def test_equal_weighted_lengths_at_special_b():
    # b = beta / (1 + beta) makes the two weighted lengths coincide
    beta = math.sqrt(0.5)
    l1, l2, _, _ = step_parameters(build_potential(beta / (1 + beta), 0.5))
    assert abs(l1 - l2) < 1e-9


def test_build_nstep_three_regions():
    pot = build_nstep([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75])
    assert isinstance(pot, NStepPotential)
    assert len(pot.lambdas) == 3
    assert pot.betas == pytest.approx((1.0, math.sqrt(0.5), 0.5), abs=1e-15)
    assert pot.lengths == pytest.approx((0.3, 0.3 * math.sqrt(0.5), 0.2), abs=1e-15)
    assert pot.total_length == pytest.approx(0.5 + 0.3 * math.sqrt(0.5), abs=1e-15)


def test_build_nstep_single_region_is_free_well():
    pot = build_nstep([0.0, 1.0], [0.0])
    assert len(pot.lambdas) == 1
    assert pot.lengths == (1.0,)


def test_interface_coefficients_antisymmetry():
    r_ab, t_ab = interface_coefficients(1.0, 0.5)
    r_ba, t_ba = interface_coefficients(0.5, 1.0)
    assert r_ab == -r_ba
    assert t_ab == t_ba
    assert r_ab == pytest.approx(1.0 / 3.0, abs=1e-15)


@pytest.mark.parametrize(
    "b, lam, fragment",
    [
        (1.5, 0.5, "b must lie in (0, 1)"),
        (0.0, 0.5, "b must lie in (0, 1)"),
        (0.5, 1.0, "lambda must lie in [0, 1)"),
        (0.5, -0.1, "lambda must lie in [0, 1)"),
    ],
)
def test_build_potential_rejects_bad_ranges(b, lam, fragment):
    with pytest.raises(ValueError) as exc:
        build_potential(b, lam)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "bps, lams, fragment",
    [
        ([0.0, 0.5, 1.0], [0.0], "one more entry"),
        ([0.0, 1.0], [], "one more entry"),
        ([0.1, 1.0], [0.0], "start at 0"),
        ([0.0, 0.9], [0.0], "end at 1"),
        ([0.0, 0.6, 0.4, 1.0], [0.0, 0.1, 0.2], "strictly increasing"),
        ([0.0, 0.5, 1.0], [0.0, 1.0], "lambda must lie in [0, 1)"),
    ],
)
def test_build_nstep_rejects_bad_input(bps, lams, fragment):
    with pytest.raises(ValueError) as exc:
        build_nstep(bps, lams)
    assert fragment in str(exc.value)


def test_interface_coefficients_reject_nonpositive_beta():
    with pytest.raises(ValueError, match="beta_left"):
        interface_coefficients(0.0, 1.0)
    with pytest.raises(ValueError, match="beta_right"):
        interface_coefficients(1.0, -0.5)


@given(
    b=st.floats(0.01, 0.99),
    lam=st.floats(0.0, 0.99),
)
def test_flux_conservation_invariant(b, lam):
    pot = build_potential(b, lam)
    l1, l2, r, t = step_parameters(pot)
    assert abs(r**2 + t**2 - 1.0) < 1e-14
    assert 0.0 <= r < 1.0
    assert pot.total_length == pytest.approx(l1 + l2, abs=1e-15)


@given(
    b=st.floats(0.01, 0.99),
    lam=st.floats(0.0, 0.99),
)
def test_two_region_chain_matches_single_step(b, lam):
    # the step is the two-region chain, with the closed forms of the step bit for bit
    step = build_potential(b, lam)
    assert step == build_nstep([0.0, b, 1.0], [0.0, lam])
    beta = math.sqrt(1.0 - lam)
    r = (1.0 - beta) / (1.0 + beta)
    assert step_parameters(step) == (b, beta * (1.0 - b), r, math.sqrt(1.0 - r * r))
    assert step.betas == (1.0, beta)
    assert step.total_length == b + beta * (1.0 - b)


@pytest.mark.parametrize("bps, lams", [([0.0, 1.0], [0.0]),
                                       ([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75])])
def test_step_parameters_need_two_regions(bps, lams):
    with pytest.raises(ValueError, match="two regions"):
        step_parameters(build_nstep(bps, lams))


def test_dataclasses_are_frozen():
    pot = build_potential(0.7, 0.5)
    with pytest.raises(AttributeError):
        pot.lengths = (0.5, 0.5)  # type: ignore[misc]
    assert isinstance(pot, NStepPotential)
