"""Exact rational identities of the cyclic word classes."""

import math
from fractions import Fraction
from functools import cache

import pytest

from oracles import build_word_table, min_rotation, necklace_count
from raysplit import orbits
from raysplit.combinatorics import (
    _signed_counts,
    binomial_sums,
    poisson_special_case_check,
    sum_rule_polynomial,
)
from raysplit.model import build_potential, step_parameters
from raysplit.orbits import (
    _divisors,
    _moebius,
    _primitive_necklace_counts,
    _word_count,
    orbit_classes,
    orbit_table,
    primitive_count,
)


def _cyclic_word_counts(max_length: int) -> list[dict[tuple[int, int], int]]:
    """counts[n][(n_r, tau2)]: binary words of length n by R count and cyclic
    unequal pairs, for n = 1..max_length (counts[0] is empty).

    A transfer-matrix pass over the bits carries the states
    (last bit, n_r, tau2) of the open words that start with L, and closes the
    cycle after n bits by counting last != L as one more unequal pair.  The
    words that start with R are their complements (L <-> R), with n - n_r R's
    and the same pairs.  One pass serves every length, O(max_length^3) in
    all, instead of the 2^n of listing the words.
    """
    counts: list[dict[tuple[int, int], int]] = [{} for _ in range(max_length + 1)]
    states = {(0, 0, 0): 1}
    for n in range(1, max_length + 1):
        closed = counts[n]
        step: dict[tuple[int, int, int], int] = {}
        for (last, n_r, tau2), words in states.items():
            for key in ((n_r, tau2 + last), (n - n_r, tau2 + last)):
                closed[key] = closed.get(key, 0) + words
            for bit in (0, 1):
                key = (bit, n_r + bit, tau2 + (last ^ bit))
                step[key] = step.get(key, 0) + words
        states = step
    return counts


@cache
def _dp_words() -> list[dict[tuple[int, int], int]]:
    # every length that _signed_counts(64) reads
    return _cyclic_word_counts(128)


def _dp_primitive_necklace_counts(p: int) -> dict[tuple[int, int], int]:
    """The Moebius inversion of _primitive_necklace_counts over the DP's cells."""
    primitive: dict[tuple[int, int], int] = {}
    for q in _divisors(p):
        mu = _moebius(q)
        if mu == 0:
            continue
        for (n_r, tau2), count in _dp_words()[p // q].items():
            key = (q * n_r, q * tau2)
            primitive[key] = primitive.get(key, 0) + mu * count
    return {key: count // p for key, count in sorted(primitive.items()) if count}


def test_half_length_one_classes():
    table = build_word_table(1)
    assert table.m == 1
    assert len(table.classes) == 3
    by_word = {c.word: c for c in table.classes}
    assert set(by_word) == {"LL", "LR", "RR"}
    assert by_word["LL"].t_w == Fraction(1, 2)
    assert by_word["RR"].t_w == Fraction(1, 2)
    assert by_word["LR"].t_w == Fraction(1)
    assert (by_word["LR"].alpha, by_word["LR"].beta, by_word["LR"].gamma) == (0, 0, 1)
    assert (by_word["LL"].alpha, by_word["LL"].beta, by_word["LL"].gamma) == (0, 1, 0)
    assert (by_word["RR"].alpha, by_word["RR"].beta, by_word["RR"].gamma) == (0, 1, 0)


def test_half_length_two_classes():
    table = build_word_table(2)
    assert len(table.classes) == 6
    by_word = {c.word: c for c in table.classes}
    llrr = by_word["LLRR"]
    assert llrr.t_w == Fraction(2)
    assert (llrr.alpha, llrr.beta, llrr.gamma) == (1, 1, 1)
    lrlr = by_word["LRLR"]
    assert lrlr.t_w == Fraction(1)             # nu = 2 halves the weight
    assert (lrlr.alpha, lrlr.beta, lrlr.gamma) == (0, 0, 2)


def test_class_count_equals_necklace_count():
    for m in range(1, 9):
        assert len(build_word_table(m).classes) == necklace_count(2 * m)


def test_classes_agree_with_orbit_records():
    # each class is the orbit-table row of its primitive root, repeated nu times
    table = orbit_table(build_potential(0.7, 0.5), 10)
    rows = dict(zip(table["code"], zip(table["length"], table["sigma"], table["tau2"],
                                       table["sign"])))
    for m in range(1, 6):
        for cls in build_word_table(m).classes:
            assert cls.word == min_rotation(cls.word)
            n, sigma, tau2, sign = rows[cls.word[:2 * m // cls.nu]]
            rr = (n + (sign < 0)) % 2       # the root's RR-pair parity, from (-1)^(n + RR)
            assert cls.alpha == cls.nu * rr % 2
            assert cls.beta == cls.nu * sigma // 2
            assert cls.gamma == cls.nu * tau2 // 2
            assert cls.t_w == Fraction(m, cls.nu)


def test_weight_structure_invariants():
    for m in range(1, 8):
        for cls in build_word_table(m).classes:
            assert cls.beta + cls.gamma == m
            assert cls.t_w * cls.nu == m        # nu divides 2M, so
            assert (2 * m) % cls.t_w.denominator == 0
            assert cls.alpha in (0, 1)


def test_signed_sum_evaluates_to_one_numerically():
    # substituting x = r^2 must collapse the table to exactly 1
    x = step_parameters(build_potential(0.7, 0.5))[2] ** 2
    for m in (1, 2, 3, 5):
        total = sum(
            float(c.t_w) * (-1) ** c.alpha * x**c.beta * (1 - x) ** c.gamma
            for c in build_word_table(m).classes
        )
        assert total == pytest.approx(1.0, abs=1e-12)


def test_fixed_beta_sums_are_binomial():
    for m in range(1, 9):
        sums = binomial_sums(m)
        assert len(sums) == m + 1
        for i, s in enumerate(sums):
            assert s == math.comb(m, i)


def test_half_length_six_row():
    assert binomial_sums(6) == tuple(Fraction(x) for x in (1, 6, 15, 20, 15, 6, 1))


def test_sum_rule_polynomial_is_unity():
    for m in range(1, 9):
        coeffs, ok = sum_rule_polynomial(binomial_sums(m))
        assert ok
        assert coeffs[0] == 1
        assert all(c == 0 for c in coeffs[1:])
        assert len(coeffs) == m + 1


def test_table_route_matches_streaming_route():
    # same numbers from explicit classes and from the bit-twiddling counter
    for m in range(1, 9):
        table = build_word_table(m)
        by_beta = {}
        for cls in table.classes:
            key = cls.beta
            by_beta[key] = by_beta.get(key, Fraction(0)) + (-1) ** cls.alpha * cls.t_w
        sums = binomial_sums(m)
        for beta in range(m + 1):
            assert by_beta.get(beta, Fraction(0)) == sums[beta]


def test_class_counts_match_enumerated_classes():
    # every (beta, nu) cell, zero-sum cells included, against the listed classes
    for m in range(1, 11):
        expected = {}
        for cls in build_word_table(m).classes:
            by_nu = expected.setdefault(cls.beta, {})
            by_nu[cls.nu] = by_nu.get(cls.nu, 0) + (-1) ** cls.alpha
        assert _signed_counts(m) == expected


def test_primitive_word_counts_give_primitive_necklaces():
    # the kernel _signed_counts and orbit_classes read
    for p in range(1, 33):
        counts = _primitive_necklace_counts(p)
        assert list(counts) == sorted(counts)
        assert all(necklaces > 0 for necklaces in counts.values())
        assert all(tau2 % 2 == 0 and tau2 <= 2 * min(n_r, p - n_r) for n_r, tau2 in counts)
        assert sum(counts.values()) == primitive_count(p)


def _cells(n):
    """Every (n_r, tau2) a word of length n could fall in: 0 <= tau2 / 2 <= min(n_r, n - n_r)."""
    return [(b, 2 * j) for b in range(n + 1) for j in range(min(b, n - b) + 1)]


def test_word_count_equals_the_word_count_dp():
    for n in range(1, 129):
        words = _dp_words()[n]
        cells = _cells(n)
        assert set(words) <= set(cells)
        # a cell the DP lacks counts zero
        assert {cell: _word_count(n, *cell) for cell in cells} == {
            cell: words.get(cell, 0) for cell in cells}


def test_word_counts_sum_to_every_word():
    for n in range(1, 200):
        assert sum(_word_count(n, *cell) for cell in _cells(n)) == 2 ** n


def test_run_count_numerator_is_divisible_by_j():
    # W = n C(n - b - 1, j - 1) C(b - 1, j - 1) / j is an integer without rounding
    for n in range(2, 200):
        for b in range(1, n):
            for j in range(1, min(b, n - b) + 1):
                assert n * math.comb(n - b - 1, j - 1) * math.comb(b - 1, j - 1) % j == 0


def test_primitive_necklace_counts_equal_the_dp_inversion():
    for p in range(1, 129):
        assert list(_primitive_necklace_counts(p).items()) == list(
            _dp_primitive_necklace_counts(p).items())


@pytest.mark.parametrize("b, lam", [(0.7, 0.5), (0.7, 0.98), (0.25, 0.3)])
def test_orbit_classes_equal_the_dp_built_classes(monkeypatch, b, lam):
    pot = build_potential(b, lam)
    closed = [orbit_classes(pot, max_length) for max_length in range(1, 33)]
    monkeypatch.setattr(orbits, "_primitive_necklace_counts", _dp_primitive_necklace_counts)
    assert closed == [orbit_classes(pot, max_length) for max_length in range(1, 33)]


def test_signed_counts_equal_the_dp_built_counts(monkeypatch):
    closed = [_signed_counts(m) for m in range(1, 65)]
    monkeypatch.setattr(orbits, "_primitive_necklace_counts", _dp_primitive_necklace_counts)
    dp = [_signed_counts(m) for m in range(1, 65)]
    assert [list(acc.items()) for acc in closed] == [list(acc.items()) for acc in dp]


@pytest.mark.parametrize("m", [63, 64])
def test_sum_rules_hold_at_the_documented_cap(m):
    assert binomial_sums(m) == tuple(Fraction(math.comb(m, beta)) for beta in range(m + 1))
    assert sum_rule_polynomial(binomial_sums(m))[1]


def test_m_range_validation():
    with pytest.raises(ValueError, match="M must lie in"):
        build_word_table(0)
    with pytest.raises(ValueError, match=r"M must lie in \[1, 13\], got 14$"):
        build_word_table(14)
    with pytest.raises(ValueError, match=r"M must lie in \[1, 64\], got 65$"):
        binomial_sums(65)


def test_poisson_case_half_strength():
    report = poisson_special_case_check(0.5)
    beta = math.sqrt(0.5)
    assert report.b == pytest.approx(beta / (1 + beta), abs=1e-15)
    assert report.ok
    assert report.max_action_deviation < 1e-12
    # first level of the arithmetic progression pi / (2 b)
    assert math.pi / (2 * report.b) == pytest.approx(3.79224, abs=1e-5)


def test_poisson_case_three_quarters_strength():
    report = poisson_special_case_check(0.75)
    assert report.b == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert report.ok
    # spacing 3 pi / 2 exactly
    assert math.pi / (2 * report.b) == pytest.approx(1.5 * math.pi, abs=1e-12)


def test_poisson_case_weak_step_limit():
    report = poisson_special_case_check(0.01)
    beta = math.sqrt(0.99)
    assert report.b == pytest.approx(beta / (1 + beta), abs=1e-15)
    assert report.ok


def test_poisson_case_rejects_edge_strengths():
    for lam in (0.0, 1.0, -0.3):
        with pytest.raises(ValueError, match="lambda"):
            poisson_special_case_check(lam)
