"""Exact sum rules over cyclic binary words.

Closed walks of even length 2M on the two-bond chain, grouped into cyclic
classes, carry rational primitive times T_w = M / nu_w and integer weights
read off adjacent pairs: beta_w reflection pairs, gamma_w transmission pairs
(beta_w + gamma_w = M) and a sign from the parity alpha_w of RR pairs.  Two
identities tie the family together exactly, independent of the potential:
summed against x^beta (1-x)^gamma the classes give the constant polynomial 1;
restricted to fixed beta they give the binomial coefficient C(M, beta).  Both
are verified here in integers, never floating point, in two steps.

Class to word: a class of repetition nu is u^nu for a primitive necklace u of
period p = 2M / nu, so it holds p distinct words and T_w = p / 2.  A word
with n_r R's and 2j unequal pairs has gamma = j and n_r - j RR pairs (each of
its j runs of R loses one), and raysplit.orbits counts such words in closed
form, W(2M; n_r, 2j).  So with j = M - beta the class sum at beta is
1/2 sum over n_r of (-1)^(n_r - j) W(2M; n_r, 2j), and no class is listed.

Word to binomial: j = 0 leaves the two constant words, and the sum is 1.  For
j >= 1, W = (2M / j) C(a - 1, j - 1) C(b - 1, j - 1) with a = 2M - n_r and
b = n_r, and the generating functions (x / (1 - x))^j and (-x / (1 + x))^j of
the two factors give, for every M,

    sum over a + b = 2M of (-1)^b C(a - 1, j - 1) C(b - 1, j - 1)
        = [x^2M] (-x^2 / (1 - x^2))^j = (-1)^j C(M - 1, j - 1),

so the signed word sum is (2M / j) C(M - 1, j - 1) = 2 C(M, j), and the class
sum is C(M, beta).  The tests list the classes necklace by necklace as the
oracle for this route.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

from . import orbits as _orbits
from .model import build_potential

__all__ = [
    "PoissonCaseReport",
    "sum_rule_polynomial",
    "binomial_sums",
    "poisson_special_case_check",
]

_MAX_M = 64  # binomial_sums counts the words, in time polynomial in M


def _check_m(m: int, cap: int) -> None:
    if not 1 <= m <= cap:
        raise ValueError(f"M must lie in [1, {cap}], got {m!r}")


def binomial_sums(m: int) -> tuple[int, ...]:
    """For each beta in 0..M, the exact sum of (-1)^alpha T_w over classes.

    Half the signed count of closed words with gamma = M - beta (see the
    module docstring).  Every entry must equal C(M, beta); returning the
    computed values rather than a verdict keeps the oracle reusable.
    """
    _check_m(m, _MAX_M)
    n = 2 * m
    sums = []
    for beta in range(m + 1):
        j = m - beta
        # a word with 2j unequal pairs has j runs of each symbol, so j <= n_r <= n - j
        n_rs = range(j, n - j + 1) if j else (0, n)
        sums.append(sum((-1) ** (n_r - j) * _orbits._word_count(n, n_r, 2 * j)
                        for n_r in n_rs) // 2)
    return tuple(sums)


def sum_rule_polynomial(beta_sums: tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
    """Expand P(x) = sum_w T_w (-1)^alpha x^beta (1-x)^gamma exactly.

    beta_sums are the per-beta totals of binomial_sums(M); gamma = M - beta
    for every class, so the sum over classes collapses onto them.  Returns
    the coefficient tuple of P (degree M) and whether P is the constant
    polynomial 1.
    """
    m = len(beta_sums) - 1
    coeffs = [0] * (m + 1)
    for beta, total in enumerate(beta_sums):
        gamma = m - beta
        for j in range(gamma + 1):
            coeffs[beta + j] += total * comb(gamma, j) * (-1) ** j
    return tuple(coeffs), coeffs == [1] + [0] * m


@dataclass(frozen=True)
class PoissonCaseReport:
    """Check of the degenerate geometry where both regions weigh the same.

    Choosing b = beta / (1 + beta) makes l1 = l2 = b, every orbit action an
    integer multiple of 2b, and the spectrum the exact comb n pi / (2b).  The
    report holds the action half; the comb roots are held by the root engine's
    tests (test_comb_roots_within_four_ulp, test_equal_length_geometry_roots
    and acceptance criterion 2).
    """

    lam: float
    b: float
    max_action_deviation: float
    ok: bool


def poisson_special_case_check(lam: float) -> PoissonCaseReport:
    """Verify that every orbit action of the equal-weight geometry, to length
    6, is an integer multiple of 2b, for a given lam in (0, 1)."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam!r}")
    beta = sqrt(1.0 - lam)  # correctly rounded (IEEE 754), so b is the same on every platform
    b = beta / (1.0 + beta)
    action_dev = 0.0
    for cls in _orbits.orbit_classes(build_potential(b, lam), 6):
        multiple = cls.s0 / (2.0 * b)
        action_dev = max(action_dev, abs(multiple - round(multiple)))
    return PoissonCaseReport(lam=lam, b=b, max_action_deviation=action_dev,
                             ok=action_dev <= 1e-12)
