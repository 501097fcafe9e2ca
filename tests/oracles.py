"""Independent oracles the tests compare the package against.

No command runs any of these.  Each is a second route to something the
package computes another way: the step's closed-form secular function and
its wavefunction-matching form, the staircase from the trace expansion, the
cycle-expansion cells summed at a wavenumber, necklaces listed one by one as
strings and counted by Burnside's sum, the orbits table's rows read off each
word's cyclic pairs, and the cyclic word classes listed with their exact
weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

import numpy as np

from raysplit.combinatorics import _check_m
from raysplit.graph import trace_powers
from raysplit.model import NStepPotential, step_parameters
from raysplit.orbits import _check_length, _divisors

_MAX_TABLE_M = 13    # build_word_table lists the classes, ~2.6M at M = 13


def secular(pot: NStepPotential, k):
    """sin(k (l1 + l2)) - r sin(k (l1 - l2)) of a single step; zero exactly on
    its spectrum.  The closed form the tests check secular_function against."""
    l1, l2, r, _ = step_parameters(pot)
    k = np.asarray(k, dtype=float) if np.ndim(k) else k
    return np.sin(k * (l1 + l2)) - r * np.sin(k * (l1 - l2))


def matching_determinant(pot: NStepPotential, k):
    """Wavefunction-matching form of the quantization condition of a single step,

        cos(k l1) sin(k l2) + (beta_2 / beta_1) sin(k l1) cos(k l2)

    with beta_2 / beta_1 = (1 - r) / (1 + r).  Derived by joining sine
    solutions at the step, so it is an independent route to the same zero
    set: it equals secular / (1 + r).
    """
    l1, l2, r, _ = step_parameters(pot)
    k = np.asarray(k, dtype=float)
    out = np.cos(k * l1) * np.sin(k * l2) + (1.0 - r) / (1.0 + r) * np.sin(k * l1) * np.cos(k * l2)
    return out if out.ndim else float(out)


def counting_function(pot, k: float, n_max: int) -> float:
    """Spectral staircase from the trace expansion,

        N(k) = (sum_i l_i) k / pi - 1/2 + (1/pi) Im sum_{n<=n_max} Tr S^n / n.

    Approaches the exact number of levels below k as n_max grows, with the
    usual half-step at the levels themselves.
    """
    traces = trace_powers(pot, k, n_max)
    acc = float(np.sum(traces.imag / np.arange(1, n_max + 1)))
    return pot.total_length * k / np.pi - 0.5 + acc / np.pi


def evaluate_cycle_terms(
    cells: dict[tuple[int, int, int], int], pot: NStepPotential, k
) -> complex | np.ndarray:
    """Sum coefficient r^sigma t^tau2 x^n_l y^n_r over the cells at wavenumber k."""
    l1, l2, r, t = step_parameters(pot)
    karr = np.asarray(k, dtype=complex)
    x, y = np.exp(2j * l1 * karr), np.exp(2j * l2 * karr)
    out = np.zeros_like(karr)
    for (n_l, n_r, tau2), coeff in cells.items():
        out = out + coeff * r ** (n_l + n_r - tau2) * t ** tau2 * x ** n_l * y ** n_r
    return complex(out) if karr.ndim == 0 else out


def min_rotation(word: str) -> str:
    """Lexicographically smallest rotation of a word, by brute force."""
    return min(word[i:] + word[:i] for i in range(len(word)))


@dataclass(frozen=True)
class Necklace:
    """A necklace's smallest rotation, nu repetitions of its shortest period."""

    word: str
    nu: int


def _necklaces_with_period(n: int) -> Iterator[tuple[str, int]]:
    """Yield (canonical word, primitive period) for all binary necklaces of
    length n, in lexicographic order.

    Classic iterative-deepening generator: extends pre-necklaces a[1..t]
    maintaining the current period p, emitting whenever p divides n.  Each
    emitted word is the smallest rotation of its class.  The package lists
    primitive necklaces by Duval's algorithm on ints instead (orbits._lyndon).
    """
    a = [0] * (n + 1)
    symbols = "LR"

    def gen(t: int, p: int) -> Iterator[tuple[str, int]]:
        if t > n:
            if n % p == 0:
                yield "".join(symbols[x] for x in a[1:]), p
        else:
            a[t] = a[t - p]
            yield from gen(t + 1, p)
            if a[t - p] == 0:
                a[t] = 1
                yield from gen(t + 1, t)

    yield from gen(1, 1)


def enumerate_necklaces(length: int) -> list[Necklace]:
    """All binary necklaces of exactly the given length, lexicographic order."""
    _check_length(length, "length")
    return [Necklace(w, length // p) for w, p in _necklaces_with_period(length)]


def cyclic_pairs(word: str) -> tuple[int, int, int]:
    """(RR pairs, equal pairs, unequal pairs) of a word read cyclically, pair by pair."""
    pairs = [word[i - 1] + word[i] for i in range(len(word))]
    equal = pairs.count("LL") + pairs.count("RR")
    return pairs.count("RR"), equal, pairs.count("LR") + pairs.count("RL")


def orbit_rows(pot: NStepPotential, max_length: int) -> list[tuple]:
    """The orbits table's rows (code, length, nu, nL, nR, sigma, tau2, sign, S0)
    of every primitive necklace up to max_length, in (length, action, word) order.

    sigma and tau2 count the equal and unequal cyclic pairs, the sign is
    (-1)^(length + RR pairs) and S0 = 2 (nL l1 + nR l2).
    """
    l1, l2, _, _ = step_parameters(pot)
    rows = []
    for n in range(1, max_length + 1):
        for necklace in enumerate_necklaces(n):
            if necklace.nu == 1:
                word = necklace.word
                rr, sigma, tau2 = cyclic_pairs(word)
                n_l, n_r = word.count("L"), word.count("R")
                rows.append((word, n, 1, n_l, n_r, sigma, tau2, (-1) ** (n + rr),
                             2.0 * (n_l * l1 + n_r * l2)))
    return sorted(rows, key=lambda row: (row[1], row[8], row[0]))


def necklace_count(length: int) -> int:
    """Number of binary necklaces of the given length (cyclic Burnside sum)."""
    return sum(_totient(d) * 2 ** (length // d) for d in _divisors(length)) // length


def _totient(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


@dataclass(frozen=True)
class WordClass:
    """One cyclic class: canonical word, repetitions, exact weights."""

    word: str
    nu: int
    t_w: Fraction
    alpha: int
    beta: int
    gamma: int


@dataclass(frozen=True)
class WordClassTable:
    """All cyclic classes of binary words of length 2M, lexicographic order."""

    m: int
    classes: tuple[WordClass, ...]


def build_word_table(m: int) -> WordClassTable:
    """Enumerate every cyclic class of length 2M with its exact weights.

    Memory grows with the necklace count (~2.6M classes at M = 13);
    combinatorics counts the classes by (beta, nu) instead of listing them,
    and this table is its test oracle.
    """
    _check_m(m, _MAX_TABLE_M)
    n = 2 * m
    classes = []
    for word, period in _necklaces_with_period(n):
        rr, _, tau2 = cyclic_pairs(word)
        nu = n // period
        classes.append(WordClass(
            word=word, nu=nu, t_w=Fraction(m, nu),
            alpha=rr & 1, beta=(n - tau2) >> 1, gamma=tau2 >> 1,
        ))
    return WordClassTable(m=m, classes=tuple(classes))
