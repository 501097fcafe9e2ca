"""Necklace enumeration, the orbit table, orbit classes and action bookkeeping."""

import dataclasses
import math
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from oracles import enumerate_necklaces, min_rotation, necklace_count
from raysplit.model import build_nstep, build_potential, step_parameters
from raysplit.orbits import (
    OrbitClass,
    _lyndon,
    _pair_counts,
    _word,
    action_spectrum,
    amplitude,
    orbit_classes,
    orbit_table,
    primitive_count,
)

REF = build_potential(0.7, 0.5)
L1, L2, R, T = step_parameters(REF)
OMEGA1 = REF.total_length


def table_rows(pot, max_length=None, count=None):
    """orbit_table's rows, each a dict keyed by column."""
    table = orbit_table(pot, max_length, count)
    return [dict(zip(table, row)) for row in zip(*table.values())]


ROWS = {row["code"]: row for row in table_rows(REF, 12)}


def as_class(row):
    """One orbit of the table as a class of multiplicity 1."""
    return OrbitClass(length=row["length"], n_l=row["nL"], n_r=row["nR"], sigma=row["sigma"],
                      tau2=row["tau2"], sign=row["sign"], s0=row["S0"], multiplicity=1)


def brute_necklaces(n):
    """Independent oracle: canonicalize every binary word by brute force."""
    return {min_rotation("".join(bits)) for bits in product("LR", repeat=n)}


def test_counts_match_enumeration():
    for n in range(1, 13):
        codes = enumerate_necklaces(n)
        assert len(codes) == necklace_count(n)
        assert sum(1 for c in codes if c.nu == 1) == primitive_count(n)


def test_count_formulas_against_brute_force():
    for n in range(1, 13):
        assert necklace_count(n) == len(brute_necklaces(n))


def test_enumeration_matches_brute_force_sets():
    for n in range(1, 11):
        words = [c.word for c in enumerate_necklaces(n)]
        assert set(words) == brute_necklaces(n)
        assert words == sorted(words)           # lexicographic emission order
        assert len(words) == len(set(words))


def test_small_length_tables():
    assert [c.word for c in enumerate_necklaces(1)] == ["L", "R"]
    two = {c.word: c.nu for c in enumerate_necklaces(2)}
    assert two == {"LL": 2, "LR": 1, "RR": 2}
    four = {c.word: c.nu for c in enumerate_necklaces(4)}
    assert four == {"LLLL": 4, "LLLR": 1, "LLRR": 1, "LRLR": 2, "LRRR": 1, "RRRR": 4}


def test_forty_one_primitives_up_to_length_seven():
    table = orbit_table(REF, 7)
    assert len(table["code"]) == 41
    assert sum(primitive_count(n) for n in range(1, 8)) == 41
    assert list(table["length"]) == sorted(table["length"])   # shortest first
    assert set(table["nu"]) == {1}


def test_lyndon_kernel_matches_the_string_oracle_and_brute_force():
    # Duval on ints against the recursive string generator and against every
    # word canonicalised by brute force, length by length up to 14
    kernel = list(_lyndon(14))
    words = [_word(n, x) for n, x in kernel]
    assert words == sorted(words)               # lexicographic across lengths
    for n in range(1, 15):
        got = [(m, x) for m, x in kernel if m == n]
        oracle = [c.word for c in enumerate_necklaces(n) if c.nu == 1]
        assert got == [(n, int(w.replace("L", "0").replace("R", "1"), 2)) for w in oracle]
        brute = {min_rotation(w) for w in map("".join, product("LR", repeat=n))
                 if all(w[i:] + w[:i] != w for i in range(1, n))}
        assert sorted(brute) == [_word(m, x) for m, x in got]


def test_lyndon_kernel_counts_every_length():
    assert Counter(n for n, _ in _lyndon(20)) == {n: primitive_count(n) for n in range(1, 21)}
    with pytest.raises(ValueError, match="more than the 131072"):
        next(_lyndon(21))


def test_length_bounds():
    with pytest.raises(ValueError):
        enumerate_necklaces(0)
    with pytest.raises(ValueError):
        enumerate_necklaces(33)
    with pytest.raises(ValueError, match="max_length"):
        orbit_table(REF, 0)
    with pytest.raises(ValueError, match="max_length"):
        orbit_table(REF, 33)


def test_orbit_table_by_count():
    rows = table_rows(REF, 8)
    assert table_rows(REF, count=43) == rows[:43]
    assert table_rows(REF, 7, count=1) == rows[:1]   # count sets the length
    with pytest.raises(ValueError, match="count must be >= 1, got 0"):
        orbit_table(REF, count=0)
    with pytest.raises(ValueError, match="needs max_length or count"):
        orbit_table(REF)
    with pytest.raises(ValueError, match="more than the 131072"):
        orbit_table(REF, count=111_014)
    every = sum(map(primitive_count, range(1, 33)))
    with pytest.raises(ValueError, match=f"count {every + 1} needs orbits longer than 32 symbols"):
        orbit_table(REF, count=every + 1)


def test_record_left_bounce():
    row = ROWS["L"]
    assert (row["length"], row["nu"], row["nL"], row["nR"]) == (1, 1, 1, 0)
    assert (row["sigma"], row["tau2"]) == (1, 0)
    assert row["sign"] == -1
    assert row["S0"] == pytest.approx(2 * L1, abs=1e-15)


def test_record_right_bounce():
    row = ROWS["R"]
    assert (row["nL"], row["nR"]) == (0, 1)
    assert (row["sigma"], row["tau2"]) == (1, 0)
    assert row["sign"] == 1                     # the wall bounce and the RR reflection
    assert row["S0"] == pytest.approx(2 * L2, abs=1e-15)


def test_record_full_crossing():
    row = ROWS["LR"]
    assert (row["sigma"], row["tau2"]) == (0, 2)
    assert row["sign"] == 1
    assert row["S0"] == pytest.approx(2 * OMEGA1, abs=1e-15)
    assert amplitude(as_class(row), REF) == pytest.approx(T**2, abs=1e-15)


def test_record_double_bounce_word():
    row = ROWS["LLRR"]
    assert (row["sigma"], row["tau2"]) == (2, 2)
    assert row["sign"] == -1                    # four wall bounces and one RR reflection
    assert row["S0"] == pytest.approx(4 * OMEGA1, abs=1e-15)


@st.composite
def words(draw, max_len=12):
    n = draw(st.integers(1, max_len))
    return "".join(draw(st.sampled_from("LR")) for _ in range(n))


def primitive_root(word):
    """The table's row of the primitive orbit that the word repeats."""
    canon, n = min_rotation(word), len(word)
    period = min(p for p in range(1, n + 1) if n % p == 0 and canon == canon[:p] * (n // p))
    return ROWS[canon[:period]]


@given(words())
def test_record_invariants(word):
    row = primitive_root(word)
    assert row["nL"] + row["nR"] == row["length"]
    assert row["sigma"] + row["tau2"] == row["length"]   # every step visit splits
    assert row["tau2"] % 2 == 0                 # transmissions pair up
    assert row["sign"] in (-1, 1)
    assert row["S0"] > 0


@given(words(max_len=10))
def test_amplitude_equals_per_pair_product(word):
    # independent route: one factor per cyclic adjacent pair
    row = primitive_root(word)
    factors = {"LL": -R, "RR": R, "LR": -T, "RL": -T}
    prod = 1.0
    code, n = row["code"], row["length"]
    for i in range(n):
        prod *= factors[code[i] + code[(i + 1) % n]]
    assert amplitude(as_class(row), REF) == pytest.approx(prod, abs=1e-14)


def test_pair_counts_equal_a_scan_of_the_word():
    for n in range(1, 11):
        for bits in product("LR", repeat=n):
            w = "".join(bits)
            x = int(w.replace("L", "0").replace("R", "1"), 2)
            pairs = [w[i] + w[(i + 1) % n] for i in range(n)]
            expected = (w.count("R"), pairs.count("RR"), pairs.count("LR") + pairs.count("RL"))
            assert _pair_counts(x, n) == expected


def test_action_spectrum_reference_potential():
    # s_max alone bounds the repetitions: R up to R^4 (8 l2 = 1.70), L and LR once
    spect = action_spectrum(orbit_classes(REF, 2), s_max=2.0)
    expected = [2 * L2, 4 * L2, 6 * L2, 8 * L2, 2 * L1, 2 * OMEGA1]
    assert spect == pytest.approx(sorted(expected), abs=1e-12)
    assert all(type(s) is float for s in spect)


def test_action_spectrum_merges_degenerate_actions():
    # l1 = l2 = 1/2 at lam = 0 collapses the lattice onto integers
    pot = build_potential(0.5, 0.0)
    assert action_spectrum(orbit_classes(pot, 2), s_max=2.2) == pytest.approx([1.0, 2.0], abs=1e-12)


@pytest.mark.parametrize("b, lam", [(0.7, 0.5), (0.7, 0.98), (0.25, 0.3)])
def test_orbit_classes_equal_grouped_records(b, lam):
    # the counted classes against the listed orbits, multiplicities included
    pot = build_potential(b, lam)
    rows = {}
    for row in table_rows(pot, 16):
        rows.setdefault((row["length"], row["nR"], row["tau2"]), []).append(row)
    for max_length in range(1, 17):
        assert orbit_classes(pot, max_length) == tuple(
            dataclasses.replace(as_class(group[0]), multiplicity=len(group))
            for key, group in sorted(rows.items()) if key[0] <= max_length)


def test_class_multiplicities_count_every_primitive_orbit():
    classes = orbit_classes(REF, 32)
    assert len(classes) == 2843
    for n in range(1, 33):
        assert sum(c.multiplicity for c in classes if c.length == n) == primitive_count(n)
    with pytest.raises(ValueError, match="max_length"):
        orbit_classes(REF, 33)
    with pytest.raises(ValueError, match="max_length"):
        orbit_classes(REF, 0)


def test_length_four_classes_by_hand():
    by_key = {(c.length, c.n_r, c.tau2): c for c in orbit_classes(REF, 4)}
    # LLLR and LRRR differ in n_r; LLRR is alone with two transmissions at length 4
    assert by_key[(4, 2, 2)] == OrbitClass(
        length=4, n_l=2, n_r=2, sigma=2, tau2=2, sign=-1,
        s0=ROWS["LLRR"]["S0"], multiplicity=1)
    assert by_key[(3, 1, 2)].multiplicity == 1
    assert sum(c.multiplicity for c in by_key.values()) == 8   # L R LR LLR LRR LLLR LLRR LRRR


def test_orbit_layer_needs_two_regions():
    # the orbit picture is that of one step; a 3-region chain has none here
    chain = build_nstep([0.0, 0.3, 0.6, 1.0], [0.0, 0.5, 0.75])
    cls = orbit_classes(REF, 2)[-1]
    for call in (lambda: orbit_table(chain, 2), lambda: orbit_table(chain, count=3),
                 lambda: orbit_classes(chain, 4), lambda: amplitude(cls, chain)):
        with pytest.raises(ValueError, match="two regions"):
            call()
