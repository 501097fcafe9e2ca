"""Periodic orbits of the step potential as binary necklaces over {L, R}.

Every periodic orbit bounces between the outer walls and the step, spending
each traversal entirely in the left (L) or right (R) region.  An orbit is
therefore a cyclic binary word; cyclically equivalent words describe the same
orbit, so orbits are necklaces.  Adjacent equal symbols (LL or RR) mean a
reflection off the step, adjacent unequal symbols a transmission through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator

from .model import ScaledStepPotential

_MAX_LENGTH = 32
# Largest orbit table enumerate_primitive lists: every length up to 20
# (111,013 orbits; with their records about 2 s and 50 MB on a 2-vCPU VM).
# Length 21 would double that, and length 31 would hold 1.4e8 Python objects.
_MAX_ROWS = 2 ** 17
_BITS = str.maketrans("LR", "01")   # a word as the binary digits of an int, R as 1

__all__ = [
    "OrbitCode",
    "OrbitRecord",
    "OrbitClass",
    "canonical_rotation",
    "enumerate_necklaces",
    "enumerate_primitive",
    "orbit_record",
    "orbit_classes",
    "classes_of",
    "amplitude",
    "action_spectrum",
]


@dataclass(frozen=True)
class OrbitCode:
    """Canonical representative of a cyclic binary word.

    word is the lexicographically smallest rotation (L < R), nu the number of
    repetitions of the shortest sub-code, primitive_length = len(word) // nu.
    """

    word: str
    nu: int
    primitive_length: int

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_primitive(self) -> bool:
        return self.nu == 1


@dataclass(frozen=True)
class OrbitRecord:
    """Scattering counts and reduced action of one orbit on a given potential.

    sigma counts step reflections (cyclic LL or RR pairs), tau2 counts step
    transmissions (LR or RL pairs), sign is the phase factor (-1)^(length +
    rr_pairs) collecting one -1 per wall bounce and one per right-side step
    reflection.  s0 is the reduced action 2 * (n_l * l1 + n_r * l2); the full
    action at wavenumber k is s0 * k.
    """

    code: OrbitCode
    n_l: int
    n_r: int
    sigma: int
    tau2: int
    rr_pairs: int
    sign: int
    s0: float

    def period(self, k: float) -> float:
        """Orbit period in the energy domain, dS/dE = s0 / (2k)."""
        return self.s0 / (2.0 * k)


@dataclass(frozen=True)
class OrbitClass:
    """Primitive orbits of one length, R count n_r and transmission count tau2.

    All of them share sigma, sign and reduced action s0 (fields as in
    OrbitRecord), hence every orbit-sum term; multiplicity counts them.
    """

    length: int
    n_l: int
    n_r: int
    sigma: int
    tau2: int
    sign: int
    s0: float
    multiplicity: int


def canonical_rotation(word: str) -> str:
    """Lexicographically smallest rotation of a word over {L, R}."""
    if not word or set(word) - {"L", "R"}:
        raise ValueError(f"word must be a non-empty string over {{L, R}}, got {word!r}")
    doubled = word + word
    n = len(word)
    return min(doubled[i:i + n] for i in range(n))


def _code_from_word(word: str, period: int) -> OrbitCode:
    return OrbitCode(word=word, nu=len(word) // period, primitive_length=period)


def _necklaces_with_period(n: int) -> Iterator[tuple[str, int]]:
    """Yield (canonical word, primitive period) for all binary necklaces of
    length n, in lexicographic order.

    Classic iterative-deepening generator: extends pre-necklaces a[1..t]
    maintaining the current period p, emitting whenever p divides n.  Each
    emitted word is the smallest rotation of its class.
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


def necklace_count(length: int) -> int:
    """Number of binary necklaces of the given length (cyclic Burnside sum)."""
    return sum(_totient(d) * 2 ** (length // d) for d in _divisors(length)) // length


def primitive_count(length: int) -> int:
    """Number of primitive binary necklaces of the given length (Moebius sum)."""
    return sum(_moebius(d) * 2 ** (length // d) for d in _divisors(length)) // length


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _totient(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


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


def enumerate_necklaces(length: int) -> list[OrbitCode]:
    """All binary necklaces of exactly the given length, lexicographic order."""
    _check_length(length, "length")
    return [_code_from_word(w, p) for w, p in _necklaces_with_period(length)]


def enumerate_primitive(max_length: int) -> list[OrbitCode]:
    """All primitive necklaces of length 1..max_length.

    Ordered by length, then lexicographically; this is the deterministic
    "shortest orbits first" ordering used for trace-formula truncations.
    Raises ValueError, before building any necklace, when the table would
    hold more than _MAX_ROWS orbits.
    """
    _check_length(max_length, "max_length")
    rows = sum(map(primitive_count, range(1, max_length + 1)))
    if rows > _MAX_ROWS:
        raise ValueError(
            f"orbits up to length {max_length} number {rows}, more than the "
            f"{_MAX_ROWS} one table may hold"
        )
    out: list[OrbitCode] = []
    for n in range(1, max_length + 1):
        out.extend(
            _code_from_word(w, p) for w, p in _necklaces_with_period(n) if p == n
        )
    return out


def _pair_counts(x: int, n: int) -> tuple[int, int, int]:
    """(n_r, rr, tau2) of a length-n word encoded with R as bit 1.

    Its rotation by one bit lines every symbol up with its cyclic successor,
    so the cyclic RR pairs are the common bits and the unequal pairs the
    differing ones.
    """
    rot = (x >> 1) | ((x & 1) << (n - 1))
    return x.bit_count(), (x & rot).bit_count(), (x ^ rot).bit_count()


def orbit_record(code: OrbitCode, pot: ScaledStepPotential) -> OrbitRecord:
    """Compute counts, sign and reduced action from the popcounts of the word."""
    n = code.length
    n_r, rr, tau2 = _pair_counts(int(code.word.translate(_BITS), 2), n)
    n_l = n - n_r
    return OrbitRecord(
        code=code, n_l=n_l, n_r=n_r, sigma=n - tau2, tau2=tau2,
        rr_pairs=rr, sign=-1 if (n + rr) % 2 else 1,
        s0=2.0 * (n_l * pot.l1 + n_r * pot.l2),
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


def _primitive_necklace_counts(
    p: int, words: list[dict[tuple[int, int], int]],
) -> dict[tuple[int, int], int]:
    """Primitive necklaces of length p by (n_r, tau2), from _cyclic_word_counts.

    A word u^q with u primitive of length p/q has q times the counts of u, so
    W(p; r, t) = sum over q | p of P(p/q; r/q, t/q), and Moebius inversion
    gives P(p; r, t) = sum over q | p of mu(q) W(p/q; r/q, t/q).  The p
    rotations of a primitive word are distinct, so P / p counts necklaces.
    Keys come in sorted order.
    """
    primitive: dict[tuple[int, int], int] = {}
    for q in _divisors(p):
        mu = _moebius(q)
        if mu == 0:
            continue
        for (n_r, tau2), count in words[p // q].items():
            key = (q * n_r, q * tau2)
            primitive[key] = primitive.get(key, 0) + mu * count
    return {key: count // p for key, count in sorted(primitive.items()) if count}


def _rr_pairs(n_r: int, tau2: int) -> int:
    """Cyclic RR pairs of a word: each of its tau2 / 2 runs of R loses one."""
    return n_r - tau2 // 2


def orbit_classes(pot: ScaledStepPotential, max_length: int) -> tuple[OrbitClass, ...]:
    """Every primitive orbit of length 1..max_length, counted by class.

    Ordered by (length, n_r, tau2).  Nothing is enumerated, so no row cap
    applies: max_length 32 takes well under a second.
    """
    _check_length(max_length, "max_length")
    words = _cyclic_word_counts(max_length)
    out = []
    for n in range(1, max_length + 1):
        for (n_r, tau2), count in _primitive_necklace_counts(n, words).items():
            n_l = n - n_r
            out.append(OrbitClass(
                length=n, n_l=n_l, n_r=n_r, sigma=n - tau2, tau2=tau2,
                sign=-1 if (n + _rr_pairs(n_r, tau2)) % 2 else 1,
                s0=2.0 * (n_l * pot.l1 + n_r * pot.l2), multiplicity=count,
            ))
    return tuple(out)


def classes_of(records: Iterable[OrbitRecord]) -> tuple[OrbitClass, ...]:
    """Group explicit primitive orbit records into classes, as orbit_classes orders them."""
    groups: dict[tuple[int, int, int], tuple[OrbitRecord, int]] = {}
    for rec in records:
        if rec.code.nu != 1:
            raise ValueError(f"orbit {rec.code.word!r} is not primitive")
        key = (rec.code.length, rec.n_r, rec.tau2)
        groups[key] = (rec, groups[key][1] + 1 if key in groups else 1)
    return tuple(
        OrbitClass(
            length=rec.code.length, n_l=rec.n_l, n_r=rec.n_r, sigma=rec.sigma,
            tau2=rec.tau2, sign=rec.sign, s0=rec.s0, multiplicity=count,
        )
        for _, (rec, count) in sorted(groups.items())
    )


def amplitude(rec: OrbitRecord | OrbitClass, pot: ScaledStepPotential) -> float:
    """Stability amplitude sign * r^sigma * t^(2 tau) of one orbit traversal."""
    return rec.sign * pot.r ** rec.sigma * pot.t ** rec.tau2


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
