"""Periodic orbits of the step potential as binary necklaces over {L, R}.

Every periodic orbit bounces between the outer walls and the step, spending
each traversal entirely in the left (L) or right (R) region.  An orbit is
therefore a cyclic binary word; cyclically equivalent words describe the same
orbit, so orbits are necklaces.  Adjacent equal symbols (LL or RR) mean a
reflection off the step, adjacent unequal symbols a transmission through it.
The step is any two-region chain: its actions and amplitudes read only
model.step_parameters, and any other region count raises ValueError.
Primitive necklaces (Lyndon words) come from Duval's algorithm (J. Algorithms
4, 363 (1983)) on ints; a recursive string generator is the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from typing import Iterable, Iterator

from .model import NStepPotential, step_parameters

_MAX_LENGTH = 32
# Largest orbit table: every length up to 20 (111,013 orbits; the orbits
# command lists them in 0.45 s and 50 MB on a 2-vCPU VM).  Length 21 would
# double that, and length 31 would hold 1.4e8 Python objects.
_MAX_ROWS = 2 ** 17
_SYMBOLS = str.maketrans("01", "LR")

__all__ = ["OrbitClass", "primitive_count", "orbit_table", "orbit_classes", "amplitude",
           "action_spectrum"]


@dataclass(frozen=True)
class OrbitClass:
    """Primitive orbits of one length, R count n_r and transmission count tau2.

    All share n_l, the step reflections sigma (cyclic LL or RR pairs), the sign
    (-1)^(length + RR pairs), a -1 per wall bounce and per right-side step
    reflection, and the reduced action s0 = 2 (n_l l1 + n_r l2) (s0 k at
    wavenumber k), hence every orbit-sum term; multiplicity counts them.
    """

    length: int
    n_l: int
    n_r: int
    sigma: int
    tau2: int
    sign: int
    s0: float
    multiplicity: int


def primitive_count(length: int) -> int:
    """Number of primitive binary necklaces of the given length (Moebius sum)."""
    return sum(_moebius(d) * 2 ** (length // d) for d in _divisors(length)) // length


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _moebius(n: int) -> int:
    result, m = 1, n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def _check_length(length: int, what: str) -> None:
    if not 1 <= length <= _MAX_LENGTH:
        raise ValueError(f"{what} must lie in [1, {_MAX_LENGTH}], got {length!r}")


def _lyndon(max_length: int) -> Iterator[tuple[int, int]]:
    """(n, x) of each primitive necklace of length n <= max_length in word
    order, x its least rotation in binary (R as 1, first symbol highest):
    repeat the last word to max_length symbols, drop its trailing R's, turn
    its last L into R.  Checks _MAX_ROWS before yielding."""
    _check_length(max_length, "max_length")
    rows = sum(map(primitive_count, range(1, max_length + 1)))
    if rows > _MAX_ROWS:
        raise ValueError(
            f"orbits up to length {max_length} number {rows}, more than the "
            f"{_MAX_ROWS} one table may hold"
        )
    n, x = 1, 0
    while n:
        yield n, x
        m = n
        while m < max_length:
            x, m = x << m | x, 2 * m
        x >>= m - max_length
        ones = (~x & (x + 1)).bit_length() - 1   # trailing R's
        n, x = max_length - ones, (x >> ones) + 1


def _word(n: int, x: int) -> str:
    return format(x, f"0{n}b").translate(_SYMBOLS)


def _pair_counts(x: int, n: int) -> tuple[int, int, int]:
    """(n_r, rr, tau2) of a length-n word encoded with R as bit 1.

    Its rotation by one bit lines every symbol up with its cyclic successor,
    so the cyclic RR pairs are the common bits and the unequal pairs the
    differing ones.
    """
    rot = (x >> 1) | ((x & 1) << (n - 1))
    return x.bit_count(), (x & rot).bit_count(), (x ^ rot).bit_count()


def _row(n: int, x: int, l1: float, l2: float) -> tuple:
    """(length, s0, x, n_l, n_r, sigma, tau2, sign) of the length-n word x: the
    orbits table's sort key, then its counts."""
    n_r, rr, tau2 = _pair_counts(x, n)
    n_l = n - n_r
    return (n, 2.0 * (n_l * l1 + n_r * l2), x, n_l, n_r, n - tau2, tau2,
            -1 if (n + rr) % 2 else 1)


def orbit_table(pot: NStepPotential, max_length: int | None = None,
                count: int | None = None) -> dict:
    """The orbits command's columns code, length, nu, nL, nR, sigma, tau2, sign
    and S0 (fields as in OrbitClass) of every primitive orbit of length
    1..max_length, or of the count shortest, in (length, action, word) order.

    count, when given, sets max_length to the shortest length whose primitive
    necklaces number at least count.  Raises ValueError past _MAX_ROWS orbits.
    """
    l1, l2, _, _ = step_parameters(pot)
    if max_length is None and count is None:
        raise ValueError("orbit_table needs max_length or count")
    if count is not None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        max_length = 1
        while sum(map(primitive_count, range(1, max_length + 1))) < count:
            if max_length == _MAX_LENGTH:
                raise ValueError(f"count {count} needs orbits longer than {_MAX_LENGTH} symbols")
            max_length += 1
    # one transposition of the sorted rows: a list of named rows would raise the peak
    length, s0, x, n_l, n_r, sigma, tau2, sign = zip(
        *sorted(_row(n, x, l1, l2) for n, x in _lyndon(max_length))[:count])
    return {"code": list(map(_word, length, x)), "length": length, "nu": (1,) * len(x),
            "nL": n_l, "nR": n_r, "sigma": sigma, "tau2": tau2, "sign": sign, "S0": s0}


def _word_count(n: int, n_r: int, tau2: int) -> int:
    """Closed binary words of length n with n_r R's and tau2 cyclic unequal pairs.

    Such a word is j = tau2 / 2 runs of L and j runs of R in turn: cut the
    n - n_r L's and the n_r R's into j runs each, pick one of n starts, and
    every word comes j times, W = (n / j) C(n - n_r - 1, j - 1) C(n_r - 1, j - 1)
    (run counting, Mood 1940).  With j = 0 only the two constant words remain.
    """
    j = tau2 // 2
    if j == 0:
        return 1 if n_r in (0, n) else 0
    return n * comb(n - n_r - 1, j - 1) * comb(n_r - 1, j - 1) // j


def _primitive_necklace_counts(p: int) -> dict[tuple[int, int], int]:
    """Primitive necklaces of length p by (n_r, tau2), keys in sorted order.

    A word u^q with u primitive of length p/q has q times the counts of u, so
    W(p; r, t) = sum over q | p of P(p/q; r/q, t/q), and Moebius inversion
    gives P(p; r, t) = sum over q | gcd(p, r, t/2) of mu(q) W(p/q; r/q, t/q).
    The p rotations of a primitive word are distinct, so P / p counts necklaces.
    """
    primitive: dict[tuple[int, int], int] = {}
    for n_r in range(p + 1):
        for j in range(min(n_r, p - n_r) + 1):
            count = sum(_moebius(q) * _word_count(p // q, n_r // q, 2 * j // q)
                        for q in _divisors(gcd(p, n_r, j)))
            if count:
                primitive[n_r, 2 * j] = count // p
    return primitive


def orbit_classes(pot: NStepPotential, max_length: int) -> tuple[OrbitClass, ...]:
    """Every primitive orbit of length 1..max_length, counted by class.

    Ordered by (length, n_r, tau2).  Nothing is enumerated, so no row cap
    applies: max_length 32 takes well under a second.
    """
    l1, l2, _, _ = step_parameters(pot)
    _check_length(max_length, "max_length")
    out = []
    for n in range(1, max_length + 1):
        for (n_r, tau2), count in _primitive_necklace_counts(n).items():
            n_l = n - n_r
            rr = n_r - tau2 // 2   # each of the tau2 / 2 runs of R loses one RR pair
            out.append(OrbitClass(
                length=n, n_l=n_l, n_r=n_r, sigma=n - tau2, tau2=tau2,
                sign=-1 if (n + rr) % 2 else 1,
                s0=2.0 * (n_l * l1 + n_r * l2), multiplicity=count,
            ))
    return tuple(out)


def amplitude(cls: OrbitClass, pot: NStepPotential) -> float:
    """Stability amplitude sign * r^sigma * t^(2 tau) of one orbit traversal."""
    _, _, r, t = step_parameters(pot)
    return cls.sign * r ** cls.sigma * t ** cls.tau2


def action_spectrum(classes: Iterable[OrbitClass], s_max: float) -> list[float]:
    """All repeated reduced actions nu * s0 <= s_max, sorted and merged.

    Actions closer than 1e-9 to the first of a run share its entry.
    """
    actions = sorted({nu * cls.s0 for cls in classes
                      for nu in range(1, int(s_max / cls.s0) + 2) if nu * cls.s0 <= s_max})
    merged: list[float] = []
    for s in actions:
        if not merged or s - merged[-1] > 1e-9:
            merged.append(s)
    return merged
