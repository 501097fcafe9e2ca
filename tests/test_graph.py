"""Graph scattering matrix: unitarity, traces and quantization equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from raysplit.model import build_nstep, build_potential
from raysplit.graph import (
    _DET_BLOCK,
    build_smatrix,
    counting_function,
    det_one_minus_s,
    orbit_trace_sum,
    trace_power,
)
from raysplit.spectrum import find_roots, secular

REF = build_potential(0.7, 0.5)


def test_single_step_matrix_literal_form():
    # chain basis (1>, 2>, 1<, 2<); i> moves right
    k = 2.3
    S = build_smatrix(REF, k)
    d1 = np.exp(1j * REF.l1 * k)
    d2 = np.exp(1j * REF.l2 * k)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = -d1             # left wall: 1< -> 1>
    expected[3, 1] = -d2             # right wall: 2> -> 2<
    expected[2, 0] = REF.r * d1      # 1> reflects into 1<
    expected[1, 0] = REF.t * d2      # 1> transmits into 2>
    expected[1, 3] = -REF.r * d2     # 2< reflects into 2>
    expected[2, 3] = REF.t * d1      # 2< transmits into 1<
    assert np.max(np.abs(S - expected)) == 0.0


def test_transparent_step_block():
    pot = build_potential(0.3, 0.0)
    S = build_smatrix(pot, 1.7)
    # r = 0: the step block is pure transmission
    assert S[2, 0] == 0
    assert S[1, 3] == 0
    assert abs(S[1, 0]) == pytest.approx(1.0, abs=1e-15)


def test_two_region_chain_equals_step_matrix():
    chain = build_nstep([0.0, 0.7, 1.0], [0.0, 0.5])
    for k in (0.9, 4.2, 17.0):
        A = build_smatrix(REF, k)
        B = build_smatrix(chain, k)
        assert np.max(np.abs(A - B)) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    b=st.floats(0.05, 0.95),
    lam=st.floats(0.0, 0.97),
    k=st.floats(0.1, 100.0),
)
def test_unitarity(b, lam, k):
    S = build_smatrix(build_potential(b, lam), k)
    assert np.max(np.abs(S.conj().T @ S - np.eye(4))) < 1e-12


def test_det_closed_form():
    # det expands to 1 + r (e^{2 i l1 k} - e^{2 i l2 k}) - e^{2 i omega1 k}
    ks = np.linspace(0.1, 60.0, 200)
    det = det_one_minus_s(REF, ks)
    closed = (
        1.0
        + REF.r * (np.exp(2j * REF.l1 * ks) - np.exp(2j * REF.l2 * ks))
        - np.exp(2j * REF.omega1 * ks)
    )
    assert np.max(np.abs(det - closed)) < 1e-13


def test_det_proportional_to_secular_on_real_axis():
    ks = np.linspace(0.1, 60.0, 200)
    det = det_one_minus_s(REF, ks)
    prop = -2j * np.exp(1j * REF.omega1 * ks) * secular(REF, ks)
    assert np.max(np.abs(det - prop)) < 1e-13


def test_det_vanishes_exactly_on_spectrum():
    roots = find_roots(REF, 350.0).roots[:100]
    assert len(roots) == 100
    assert np.max(np.abs(det_one_minus_s(REF, roots))) < 1e-8
    # and is far from zero between roots
    mids = 0.5 * (roots[:-1] + roots[1:])
    assert np.min(np.abs(det_one_minus_s(REF, mids))) > 1e-1


def test_det_blocks_equal_pointwise_values():
    # an array spanning several blocks gives exactly the scalar results
    chain = build_nstep([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75])
    rng = np.random.default_rng(11)
    ks = rng.uniform(0.0, 5e4, 2 * _DET_BLOCK + 17)
    for pot, k in ((chain, ks), (REF, ks + 1e-3j)):
        det = det_one_minus_s(pot, k)
        assert det.shape == k.shape
        assert np.all(det == np.array([det_one_minus_s(pot, x) for x in k]))
    assert det_one_minus_s(chain, ks.reshape(-1, 1)).shape == (ks.size, 1)
    assert isinstance(det_one_minus_s(chain, 3.0), complex)


def test_det_has_no_extra_zeros_between_roots():
    roots = find_roots(REF, 40.0).roots
    for lo, hi in zip(roots[:-1], roots[1:]):
        inset = 0.05 * (hi - lo)
        ks = np.linspace(lo + inset, hi - inset, 400)
        assert np.min(np.abs(det_one_minus_s(REF, ks))) > 1e-2
        # det is a rotated real function; its sign cannot flip between roots
        signs = np.sign(secular(REF, ks))
        assert np.all(signs == signs[0])


def test_odd_traces_vanish():
    for k in (0.7, 3.1, 11.0):
        for n in (1, 3, 5, 7, 9):
            assert abs(trace_power(REF, k, n)) < 1e-12


def test_trace_square_closed_form():
    # Tr S^2 = -2 r (e^{2 i l1 k} - e^{2 i l2 k}) + 2 e^{2 i omega1 k}... no:
    # evaluate against the direct 2x2 block product instead
    k = 1.9
    S = build_smatrix(REF, k)
    assert trace_power(REF, k, 2) == pytest.approx(complex(np.trace(S @ S)), abs=1e-13)


def test_transparent_step_traces():
    pot = build_potential(0.3, 0.0)
    for k in (0.8, 2.6):
        assert abs(trace_power(pot, k, 2)) < 1e-13
        assert trace_power(pot, k, 4) == pytest.approx(
            4 * np.exp(2j * k), abs=1e-12
        )
        assert orbit_trace_sum(pot, k, 1) == pytest.approx(
            complex(trace_power(pot, k, 2)), abs=1e-12
        )


@settings(max_examples=30, deadline=None)
@given(
    k=st.floats(0.1, 100.0),
    n=st.integers(1, 8),
)
def test_word_sum_reproduces_matrix_traces(k, n):
    direct = trace_power(REF, k, 2 * n)
    words = orbit_trace_sum(REF, k, n)
    assert abs(direct - words) < 1e-10


def test_word_sum_larger_powers():
    rng = np.random.default_rng(11)
    for n in (10, 12):
        for k in rng.uniform(0.0, 100.0, 5):
            assert abs(trace_power(REF, k, 2 * n) - orbit_trace_sum(REF, k, n)) < 1e-10


def test_word_sum_rejects_bad_input():
    with pytest.raises(ValueError, match="n must be >= 1"):
        orbit_trace_sum(REF, 1.0, 0)
    with pytest.raises(ValueError, match="n must be <= 24"):
        orbit_trace_sum(REF, 1.0, 25)
    chain = build_nstep([0.0, 0.5, 1.0], [0.0, 0.5])
    with pytest.raises(TypeError):
        orbit_trace_sum(chain, 1.0, 2)
    with pytest.raises(ValueError):
        trace_power(REF, 1.0, 0)


def test_counting_function_free_well():
    pot = build_potential(0.5, 0.0)
    # between the first two levels the truncated staircase is close to 1
    val = counting_function(pot, 0.5 * (math.pi + 2 * math.pi), 200)
    assert val == pytest.approx(1.0, abs=0.2)
    # well below the first level it is close to 0
    assert counting_function(pot, math.pi / 2, 200) == pytest.approx(0.0, abs=0.2)


def test_counting_function_reference_midgap():
    # [DERIVED] frozen midgap value between roots 1 and 2
    roots = find_roots(REF, 10.0).roots
    mid = 0.5 * (roots[0] + roots[1])
    val = counting_function(REF, mid, 200)
    assert val == pytest.approx(1.0, abs=0.05)


def test_counting_function_small_k_offset():
    # k -> 0+: all traces are tiny, leaving the -1/2 offset
    assert counting_function(REF, 1e-6, 50) == pytest.approx(-0.5, abs=1e-3)


def test_counting_function_rejects_bad_n():
    with pytest.raises(ValueError, match="n_max"):
        counting_function(REF, 1.0, 0)

