"""Graph scattering matrix: unitarity, traces and quantization equivalence."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import counting_function, secular
from raysplit.model import build_nstep, build_potential, step_parameters
from raysplit.graph import _DET_BLOCK, _blocks, build_smatrix, det_one_minus_s, trace_powers
from raysplit.orbits import orbit_classes
from raysplit.spectrum import find_roots
from raysplit.trace import trace_formula

REF = build_potential(0.7, 0.5)
L1, L2, R, T = step_parameters(REF)
OMEGA1 = REF.total_length


def enumerated_word_sum(pot, k, n):
    """Tr S^{2n} by listing all 2^n binary words (bit 1 = R) and scanning their cyclic pairs.

    Independent oracle for trace_formula, which sums over orbit classes instead:

        2 * sum_words (-1)^(n + rr) r^sigma t^tau2 e^{2 i k (n_L l1 + n_R l2)}
    """
    w = np.arange(1 << n, dtype=np.uint64)
    rot = (w >> np.uint64(1)) | ((w & np.uint64(1)) << np.uint64(n - 1))
    n_r = np.bitwise_count(w).astype(np.int64)
    rr = np.bitwise_count(w & rot).astype(np.int64)
    tau2 = np.bitwise_count(w ^ rot).astype(np.int64)
    sign = np.where((n + rr) % 2, -1.0, 1.0)
    l1, l2, r, t = step_parameters(pot)
    amp = sign * r ** (n - tau2) * t ** tau2
    lengths = (n - n_r) * l1 + n_r * l2
    return complex(2.0 * np.sum(amp * np.exp(2j * k * lengths)))


def formula_sums(pot, k, n_max):
    """Tr S^2 .. Tr S^{2 n_max} from the trace formula over every class up to length n_max."""
    return trace_formula(pot, orbit_classes(pot, n_max), k)


def test_single_step_matrix_literal_form():
    # chain basis (1>, 2>, 1<, 2<); i> moves right
    k = 2.3
    S = build_smatrix(REF, k)
    d1 = np.exp(1j * L1 * k)
    d2 = np.exp(1j * L2 * k)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = -d1             # left wall: 1< -> 1>
    expected[3, 1] = -d2             # right wall: 2> -> 2<
    expected[2, 0] = R * d1      # 1> reflects into 1<
    expected[1, 0] = T * d2      # 1> transmits into 2>
    expected[1, 3] = -R * d2     # 2< reflects into 2>
    expected[2, 3] = T * d1      # 2< transmits into 1<
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
        + R * (np.exp(2j * L1 * ks) - np.exp(2j * L2 * ks))
        - np.exp(2j * OMEGA1 * ks)
    )
    assert np.max(np.abs(det - closed)) < 1e-13


def test_det_proportional_to_secular_on_real_axis():
    ks = np.linspace(0.1, 60.0, 200)
    det = det_one_minus_s(REF, ks)
    prop = -2j * np.exp(1j * OMEGA1 * ks) * secular(REF, ks)
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
            assert abs(trace_powers(REF, k, n)[-1]) < 1e-12


def test_trace_square_closed_form():
    # Tr S^2 = -2 r (e^{2 i l1 k} - e^{2 i l2 k}) + 2 e^{2 i omega1 k}... no:
    # evaluate against the direct 2x2 block product instead
    k = 1.9
    S = build_smatrix(REF, k)
    assert trace_powers(REF, k, 2)[-1] == pytest.approx(complex(np.trace(S @ S)), abs=1e-13)


def test_transparent_step_traces():
    pot = build_potential(0.3, 0.0)
    for k in (0.8, 2.6):
        assert abs(trace_powers(pot, k, 2)[-1]) < 1e-13
        assert trace_powers(pot, k, 4)[-1] == pytest.approx(
            4 * np.exp(2j * k), abs=1e-12
        )
        assert formula_sums(pot, k, 1)[0] == pytest.approx(
            complex(trace_powers(pot, k, 2)[-1]), abs=1e-12
        )


@settings(max_examples=30, deadline=None)
@given(
    k=st.floats(0.1, 100.0),
    n=st.integers(1, 8),
)
def test_word_sum_reproduces_matrix_traces(k, n):
    direct = trace_powers(REF, k, 2 * n)[-1]
    words = formula_sums(REF, k, n)[n - 1]
    assert abs(direct - words) < 1e-10


@pytest.mark.parametrize("b, lam", [(0.7, 0.5), (0.7, 0.98), (0.3, 0.0)])
def test_word_sums_equal_enumerated_words(b, lam):
    pot = build_potential(b, lam)
    ks = np.random.default_rng(5).uniform(0.0, 100.0, 6)
    sums = formula_sums(pot, ks, 12)
    for n in range(1, 13):
        for i, k in enumerate(ks):
            assert abs(sums[n - 1, i] - enumerated_word_sum(pot, k, n)) < 1e-12


def test_word_sum_larger_powers():
    # every power up to the kernel's cap, at the most reflecting geometry
    pot = build_potential(0.7, 0.98)
    ks = np.random.default_rng(11).uniform(0.0, 100.0, 5)
    sums = formula_sums(pot, ks, 32)
    for i, k in enumerate(ks):
        for n in range(1, 33):
            assert abs(trace_powers(pot, k, 2 * n)[-1] - sums[n - 1, i]) < 1e-10


def test_word_sums_take_scalar_or_array_k():
    ks = np.array([[0.5, 3.0], [7.5, 40.0]])
    sums = formula_sums(REF, ks, 4)
    assert sums.shape == (4, 2, 2)
    assert formula_sums(REF, 7.5, 4).shape == (4,)
    assert np.max(np.abs(formula_sums(REF, 7.5, 4) - sums[:, 1, 0])) < 1e-13
    assert trace_formula(REF, (), ks).shape == (0, 2, 2)


def test_word_sum_rejects_bad_input():
    # the classes are capped where the cyclic-word counts stop
    with pytest.raises(ValueError, match=r"max_length must lie in \[1, 32\], got 0"):
        formula_sums(REF, 1.0, 0)
    with pytest.raises(ValueError, match=r"max_length must lie in \[1, 32\], got 33"):
        formula_sums(REF, 1.0, 33)
    with pytest.raises(ValueError, match=r"n_max must be >= 1, got 0"):
        trace_powers(REF, 1.0, 0)


@pytest.mark.parametrize("breakpoints, lambdas", [
    ([0.0, 1.0], [0.3]),
    ([0.0, 0.7, 1.0], [0.0, 0.5]),
    ([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75]),
    ([0.0, 0.2, 0.45, 0.7, 1.0], [0.1, 0.9, 0.0, 0.6]),
    ([0.0, 0.1, 0.3, 0.5, 0.8, 1.0], [0.0, 0.5, 0.2, 0.95, 0.4]),
    ([0.0, 0.15, 0.3, 0.5, 0.6, 0.85, 1.0], [0.7, 0.0, 0.5, 0.3, 0.99, 0.1]),
])
def test_trace_powers_equal_matrix_powers(breakpoints, lambdas):
    chain = build_nstep(breakpoints, lambdas)
    ks = np.random.default_rng(len(lambdas)).uniform(0.0, 100.0, 4)
    for pot in (chain, REF):
        traces = trace_powers(pot, ks, 64)
        assert traces.shape == (64, 4)
        for i, k in enumerate(ks):
            S = build_smatrix(pot, k)
            direct = [np.trace(np.linalg.matrix_power(S, n)) for n in range(1, 65)]
            assert np.max(np.abs(traces[:, i] - direct)) < 1e-11
            scalar = trace_powers(pot, k, 64)
            assert scalar.shape == (64,)
            assert np.max(np.abs(scalar - traces[:, i])) < 1e-13


def test_trace_powers_blocks_and_shapes():
    # arrays spanning several blocks give the scalar results, in the shape of k
    ks = np.random.default_rng(3).uniform(0.0, 50.0, _DET_BLOCK + 5)
    traces = trace_powers(REF, ks, 3)
    for i in (0, _DET_BLOCK - 1, _DET_BLOCK, _DET_BLOCK + 4):
        assert np.max(np.abs(traces[:, i] - trace_powers(REF, ks[i], 3))) < 1e-15
    assert trace_powers(REF, ks[:6].reshape(2, 3), 5).shape == (5, 2, 3)
    # a 20-region chain's 40x40 matrices come 40 to a block, as many entries as the step's
    chain = build_nstep(np.linspace(0.0, 1.0, 21), [0.05 * (i % 7) for i in range(20)])
    assert [(b.start, b.stop) for b in _blocks(chain, 85)] == [(0, 40), (40, 80), (80, 120)]
    traces = trace_powers(chain, ks[:85], 2)
    assert np.all(traces == np.array([trace_powers(chain, k, 2) for k in ks[:85]]).T)


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

