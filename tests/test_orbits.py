"""Necklace enumeration, orbit records and action bookkeeping."""

import math
from itertools import product

import pytest
from hypothesis import given, strategies as st

from raysplit.model import build_potential
from raysplit.orbits import (
    OrbitClass,
    _pair_counts,
    action_spectrum,
    amplitude,
    canonical_rotation,
    classes_of,
    enumerate_necklaces,
    enumerate_primitive,
    necklace_count,
    orbit_classes,
    orbit_record,
    primitive_count,
)

REF = build_potential(0.7, 0.5)


def brute_necklaces(n):
    """Independent oracle: canonicalize every binary word by brute force."""
    out = set()
    for bits in product("LR", repeat=n):
        word = "".join(bits)
        out.add(min(word[i:] + word[:i] for i in range(n)))
    return out


def test_counts_match_enumeration():
    for n in range(1, 13):
        codes = enumerate_necklaces(n)
        assert len(codes) == necklace_count(n)
        assert sum(1 for c in codes if c.is_primitive) == primitive_count(n)


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
    codes = enumerate_primitive(7)
    assert len(codes) == 41
    assert sum(primitive_count(n) for n in range(1, 8)) == 41
    lengths = [c.length for c in codes]
    assert lengths == sorted(lengths)           # shortest first


def test_canonical_rotation():
    assert canonical_rotation("RL") == "LR"
    assert canonical_rotation("RRL") == "LRR"
    assert canonical_rotation("LLR") == "LLR"
    with pytest.raises(ValueError):
        canonical_rotation("LXR")
    with pytest.raises(ValueError):
        canonical_rotation("")


def test_length_bounds():
    with pytest.raises(ValueError):
        enumerate_necklaces(0)
    with pytest.raises(ValueError):
        enumerate_necklaces(33)
    with pytest.raises(ValueError):
        enumerate_primitive(0)


def lookup(word):
    code = [c for c in enumerate_necklaces(len(word)) if c.word == word]
    assert len(code) == 1
    return orbit_record(code[0], REF)


def test_record_left_bounce():
    rec = lookup("L")
    assert (rec.n_l, rec.n_r) == (1, 0)
    assert (rec.sigma, rec.tau2, rec.rr_pairs) == (1, 0, 0)
    assert rec.sign == -1
    assert rec.s0 == pytest.approx(2 * REF.l1, abs=1e-15)


def test_record_right_bounce():
    rec = lookup("R")
    assert (rec.n_l, rec.n_r) == (0, 1)
    assert (rec.sigma, rec.tau2, rec.rr_pairs) == (1, 0, 1)
    assert rec.sign == 1
    assert rec.s0 == pytest.approx(2 * REF.l2, abs=1e-15)


def test_record_full_crossing():
    rec = lookup("LR")
    assert (rec.sigma, rec.tau2) == (0, 2)
    assert rec.sign == 1
    assert rec.s0 == pytest.approx(2 * REF.omega1, abs=1e-15)
    assert amplitude(rec, REF) == pytest.approx(REF.t**2, abs=1e-15)


def test_record_double_bounce_word():
    rec = lookup("LLRR")
    assert (rec.sigma, rec.tau2, rec.rr_pairs) == (2, 2, 1)
    assert rec.sign == -1
    assert rec.s0 == pytest.approx(4 * REF.omega1, abs=1e-15)


def test_period_is_action_slope():
    rec = lookup("LR")
    k = 7.3
    assert rec.period(k) == pytest.approx(rec.s0 / (2 * k), abs=1e-15)


@st.composite
def words(draw, max_len=12):
    n = draw(st.integers(1, max_len))
    return "".join(draw(st.sampled_from("LR")) for _ in range(n))


@given(words())
def test_record_invariants(word):
    canon = canonical_rotation(word)
    code = [c for c in enumerate_necklaces(len(word)) if c.word == canon][0]
    rec = orbit_record(code, REF)
    assert rec.n_l + rec.n_r == len(word)
    assert rec.sigma + rec.tau2 == len(word)    # every step visit splits
    assert rec.tau2 % 2 == 0                    # transmissions pair up
    assert rec.sign in (-1, 1)
    assert rec.s0 > 0


@given(words(max_len=10))
def test_amplitude_equals_per_pair_product(word):
    # independent route: one factor per cyclic adjacent pair
    canon = canonical_rotation(word)
    code = [c for c in enumerate_necklaces(len(word)) if c.word == canon][0]
    rec = orbit_record(code, REF)
    factors = {"LL": -REF.r, "RR": REF.r, "LR": -REF.t, "RL": -REF.t}
    prod = 1.0
    n = len(canon)
    for i in range(n):
        prod *= factors[canon[i] + canon[(i + 1) % n]]
    assert amplitude(rec, REF) == pytest.approx(prod, abs=1e-14)


def test_pair_counts_equal_a_scan_of_the_word():
    for n in range(1, 11):
        for bits in product("LR", repeat=n):
            w = "".join(bits)
            x = int(w.replace("L", "0").replace("R", "1"), 2)
            pairs = [w[i] + w[(i + 1) % n] for i in range(n)]
            expected = (w.count("R"), pairs.count("RR"), pairs.count("LR") + pairs.count("RL"))
            assert _pair_counts(x, n) == expected


def test_repetition_power_law():
    base = lookup("LR")
    twice = lookup("LRLR")
    thrice = lookup("LRLRLR")
    assert twice.code.nu == 2 and thrice.code.nu == 3
    assert amplitude(twice, REF) == pytest.approx(amplitude(base, REF) ** 2, abs=1e-14)
    assert amplitude(thrice, REF) == pytest.approx(amplitude(base, REF) ** 3, abs=1e-14)
    assert twice.s0 == pytest.approx(2 * base.s0, abs=1e-14)
    assert thrice.s0 == pytest.approx(3 * base.s0, abs=1e-14)


def test_action_spectrum_reference_potential():
    # s_max alone bounds the repetitions: R up to R^4 (8 l2 = 1.70), L and LR once
    spect = action_spectrum(orbit_classes(REF, 2), s_max=2.0)
    expected = [2 * REF.l2, 4 * REF.l2, 6 * REF.l2, 8 * REF.l2, 2 * REF.l1, 2 * REF.omega1]
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
    recs = [orbit_record(c, pot) for c in enumerate_primitive(16)]
    for max_length in range(1, 17):
        assert orbit_classes(pot, max_length) == classes_of(
            rec for rec in recs if rec.code.length <= max_length)


def test_class_multiplicities_count_every_primitive_orbit():
    classes = orbit_classes(REF, 32)
    assert len(classes) == 2843
    for n in range(1, 33):
        assert sum(c.multiplicity for c in classes if c.length == n) == primitive_count(n)
    with pytest.raises(ValueError, match="max_length"):
        orbit_classes(REF, 33)
    with pytest.raises(ValueError, match="max_length"):
        orbit_classes(REF, 0)


def test_classes_of_small_set():
    recs = [orbit_record(c, REF) for c in enumerate_primitive(4)]
    by_key = {(c.length, c.n_r, c.tau2): c for c in classes_of(recs)}
    # LLLR and LRRR differ in n_r; LLRR is alone with two transmissions at length 4
    assert by_key[(4, 2, 2)] == OrbitClass(
        length=4, n_l=2, n_r=2, sigma=2, tau2=2, sign=-1,
        s0=lookup("LLRR").s0, multiplicity=1)
    assert by_key[(3, 1, 2)].multiplicity == 1
    assert sum(c.multiplicity for c in by_key.values()) == len(recs)
    assert classes_of([]) == ()
    with pytest.raises(ValueError, match="primitive"):
        classes_of([lookup("LRLR")])
