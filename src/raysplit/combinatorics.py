"""Exact sum rules over cyclic binary words.

Closed walks of even length 2M on the two-bond chain, grouped into cyclic
classes, carry rational primitive times T_w = M / nu_w and integer weights
read off adjacent pairs: beta_w reflection pairs, gamma_w transmission pairs
(beta_w + gamma_w = M) and a sign from the parity alpha_w of RR pairs.  Two
identities tie the family together exactly, independent of the potential:
summed against x^beta (1-x)^gamma the classes give the constant polynomial 1;
restricted to fixed beta they give the binomial coefficient C(M, beta).  Both
are verified here in exact rational arithmetic, never floating point.

The verifiers never list the classes.  They read the cyclic-word kernel of
raysplit.orbits, which counts the primitive necklaces of each length by their
R count and transmission count (a transfer-matrix pass over the bits, then
Moebius inversion over the divisors); a class is a primitive necklace
repeated nu times, and its RR-pair parity follows from those two counts.  The
cost is polynomial in M.  build_word_table still enumerates the necklaces one
by one and is the oracle the counts are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import orbits as _orbits
from . import spectrum as _spectrum
from .model import ScaledStepPotential, build_potential

__all__ = [
    "WordClass",
    "WordClassTable",
    "PoissonCaseReport",
    "build_word_table",
    "verify_sum_rule",
    "sum_rule_polynomial",
    "binomial_sums",
    "poisson_special_case_check",
]

_MAX_M = 64          # binomial_sums counts the classes, in time polynomial in M
_MAX_TABLE_M = 13    # build_word_table lists them, ~2.6M classes at M = 13
_POISSON_ROOTS = 20  # comb roots that poisson_special_case_check compares


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

    @property
    def class_count(self) -> int:
        return len(self.classes)


def _check_m(m: int, cap: int) -> None:
    if not 1 <= m <= cap:
        raise ValueError(f"M must lie in [1, {cap}], got {m!r}")


def _pair_weights(x: int, n: int) -> tuple[int, int, int]:
    """(alpha, beta, gamma) of a length-n word encoded with R as bit 1."""
    _, rr, tau2 = _orbits._pair_counts(x, n)
    return rr & 1, (n - tau2) >> 1, tau2 >> 1


def build_word_table(m: int) -> WordClassTable:
    """Enumerate every cyclic class of length 2M with its exact weights.

    Memory grows with the necklace count (~2.6M classes at M = 13); the
    verifiers below count the classes by (beta, nu) instead of listing them,
    and this table is their test oracle.
    """
    _check_m(m, _MAX_TABLE_M)
    n = 2 * m
    classes = []
    for word, period in _orbits._necklaces_with_period(n):
        alpha, beta, gamma = _pair_weights(int(word.translate(_orbits._BITS), 2), n)
        nu = n // period
        classes.append(WordClass(
            word=word, nu=nu, t_w=Fraction(m, nu),
            alpha=alpha, beta=beta, gamma=gamma,
        ))
    return WordClassTable(m=m, classes=tuple(classes))


def _signed_counts(m: int) -> dict[int, dict[int, int]]:
    """acc[beta][nu] = sum over classes with that beta and nu of (-1)^alpha.

    Counts the classes without listing them: a class of length 2M and
    repetition nu is u^nu for a primitive necklace u of length p = 2M / nu,
    counted by (n_r, tau2) by the kernel of raysplit.orbits.  It has
    tau2 = nu * tau2(u), beta = (2M - tau2) / 2 and alpha = nu * rr(u) mod 2,
    where rr(u) = n_r(u) - tau2(u) / 2.  A cell is present exactly when some
    class falls in it, even if its signed sum is zero.
    """
    n = 2 * m
    words = _orbits._cyclic_word_counts(n)
    acc: dict[int, dict[int, int]] = {}
    for p in _orbits._divisors(n):
        nu = n // p
        for (n_r, tau2), count in _orbits._primitive_necklace_counts(p, words).items():
            by_nu = acc.setdefault((n - nu * tau2) // 2, {})
            sign = -1 if nu * _orbits._rr_pairs(n_r, tau2) % 2 else 1
            by_nu[nu] = by_nu.get(nu, 0) + sign * count
    return acc


def binomial_sums(m: int) -> tuple[Fraction, ...]:
    """For each beta in 0..M, the exact sum of (-1)^alpha T_w over classes.

    Every entry must equal C(M, beta); returning the computed values rather
    than a verdict keeps the oracle reusable.
    """
    _check_m(m, _MAX_M)
    acc = _signed_counts(m)
    sums = []
    for beta in range(m + 1):
        total = Fraction(0)
        for nu, count in sorted(acc.get(beta, {}).items()):
            total += Fraction(m * count, nu)
        sums.append(total)
    return tuple(sums)


def sum_rule_polynomial(beta_sums: tuple[Fraction, ...]) -> tuple[tuple[Fraction, ...], bool]:
    """Expand P(x) = sum_w T_w (-1)^alpha x^beta (1-x)^gamma exactly.

    beta_sums are the per-beta totals of binomial_sums(M); gamma = M - beta
    for every class, so the sum over classes collapses onto them.  Returns
    the coefficient tuple of P (degree M) and whether P is the constant
    polynomial 1.
    """
    m = len(beta_sums) - 1
    coeffs = [Fraction(0)] * (m + 1)
    for beta, total in enumerate(beta_sums):
        gamma = m - beta
        for j in range(gamma + 1):
            coeffs[beta + j] += total * comb(gamma, j) * (-1) ** j
    expected = [Fraction(1)] + [Fraction(0)] * m
    return tuple(coeffs), coeffs == expected


def verify_sum_rule(m: int) -> tuple[tuple[Fraction, ...], bool]:
    """sum_rule_polynomial of the classes of length 2M."""
    return sum_rule_polynomial(binomial_sums(m))


@dataclass(frozen=True)
class PoissonCaseReport:
    """Check of the degenerate geometry where both regions weigh the same.

    Choosing b = beta / (1 + beta) makes l1 = l2 = b, every orbit action an
    integer multiple of 2b, and the spectrum the exact comb n pi / (2b).
    """

    lam: float
    b: float
    potential: ScaledStepPotential
    roots_checked: int
    max_root_deviation: float
    max_action_deviation: float
    ok: bool


def poisson_special_case_check(lam: float) -> PoissonCaseReport:
    """Verify the equal-weight geometry end to end for a given lam in (0, 1)."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam!r}")
    beta = float(np.sqrt(1.0 - lam))
    b = beta / (1.0 + beta)
    pot = build_potential(b, lam)
    comb_spacing = np.pi / (2.0 * b)
    result = _spectrum.find_roots(pot, (_POISSON_ROOTS + 0.5) * comb_spacing)
    roots = result.roots[:_POISSON_ROOTS]
    expected = comb_spacing * np.arange(1, len(roots) + 1)
    root_dev = float(np.max(np.abs(roots - expected))) if len(roots) else np.inf
    action_dev = 0.0
    for cls in _orbits.orbit_classes(pot, 6):
        multiple = cls.s0 / (2.0 * b)
        action_dev = max(action_dev, abs(multiple - round(multiple)))
    ok = len(roots) == _POISSON_ROOTS and root_dev <= 1e-10 and action_dev <= 1e-12
    return PoissonCaseReport(
        lam=lam, b=b, potential=pot,
        roots_checked=len(roots),
        max_root_deviation=root_dev,
        max_action_deviation=action_dev,
        ok=ok,
    )
