"""Quantum-graph scattering matrix for step-potential chains.

The potential is mapped onto a linear graph: one bond per constant region
(weighted length l_i), dead-end vertices at the walls and a scattering vertex
at each interface.  Waves live on directed bonds; the unitary matrix S(k)
propagates amplitudes across one vertex scattering plus one bond traversal.
The spectrum is the zero set of det(1 - S(k)), and traces of powers of S
expand into sums over closed bond sequences, which is what ties the matrix
to the periodic-orbit sums.
"""

from __future__ import annotations

import numpy as np

from .model import NStepPotential, ScaledStepPotential, interface_coefficients

__all__ = [
    "build_smatrix",
    "det_one_minus_s",
    "trace_power",
    "orbit_trace_sum",
    "counting_function",
]

_MAX_WORD_POWER = 24
_DET_BLOCK = 4096          # wavenumbers per stack of S(k) in det_one_minus_s


def _smatrix_stack(pot: ScaledStepPotential | NStepPotential, k: np.ndarray) -> np.ndarray:
    """S(k) for an array of wavenumbers, shape (len(k), 2N, 2N).

    Directed-bond basis (1>, ..., N>, 1<, ..., N<) where i> moves right.
    Each entry carries the vertex coefficient into the new bond times that
    bond's phase e^{i l k}; dead ends contribute -1.  A single step is the
    two-region chain.
    """
    k = np.asarray(k)
    betas, lengths = pot.betas, pot.lengths
    n = len(lengths)
    ph = np.exp(1j * np.multiply.outer(k, np.asarray(lengths)))  # (..., n)
    S = np.zeros(k.shape + (2 * n, 2 * n), dtype=complex)
    for i in range(n - 1):
        r, t = interface_coefficients(betas[i], betas[i + 1])
        S[..., n + i, i] = r * ph[..., i]            # i> reflects into i<
        S[..., i + 1, i] = t * ph[..., i + 1]        # i> transmits into (i+1)>
        S[..., i + 1, n + i + 1] = -r * ph[..., i + 1]   # (i+1)< reflects back
        S[..., n + i, n + i + 1] = t * ph[..., i]    # (i+1)< transmits into i<
    S[..., 0, n] = -ph[..., 0]                       # left wall
    S[..., 2 * n - 1, n - 1] = -ph[..., n - 1]       # right wall
    return S


def build_smatrix(pot: ScaledStepPotential | NStepPotential, k: float) -> np.ndarray:
    """Graph scattering matrix S(k), unitary for real k."""
    return _smatrix_stack(pot, np.asarray(float(k)))


def det_one_minus_s(pot, k) -> complex | np.ndarray:
    """det(1 - S(k)); vanishes exactly on the spectrum.

    Accepts scalar or array k, real or complex (small imaginary parts are
    useful for probing zeros off the real axis).  Arrays are evaluated in
    blocks of _DET_BLOCK points, so the matrix stacks stay bounded in size.
    """
    karr = np.asarray(k, dtype=complex)
    flat = karr.reshape(-1)
    d = np.empty(flat.size, dtype=complex)
    eye = np.eye(2 * len(pot.lengths))
    for i in range(0, flat.size, _DET_BLOCK):
        block = slice(i, i + _DET_BLOCK)
        d[block] = np.linalg.det(eye - _smatrix_stack(pot, flat[block]))
    return complex(d[0]) if karr.ndim == 0 else d.reshape(karr.shape)


def trace_power(pot, k: float, n: int) -> complex:
    """Tr S(k)^n from the matrix power.

    Odd powers vanish identically because the chain graph is bipartite (every
    closed walk alternates between the two wall-to-step bond directions).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    S = build_smatrix(pot, k)
    return complex(np.trace(np.linalg.matrix_power(S, n)))


def _popcount(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x).astype(np.int64)


def orbit_trace_sum(pot: ScaledStepPotential, k: float, n: int) -> complex:
    """Tr S^{2n} assembled from binary words instead of the matrix.

    Each length-n word over {L, R} is one closed bond sequence; scanning its
    cyclic pairs gives reflection and transmission counts and the word's
    weighted length L_n = n_L l1 + n_R l2.  The sum

        2 * sum_words (-1)^chi r^sigma t^(2 tau) e^{2 i k L_n}

    must reproduce trace_power(pot, k, 2n), which is the central oracle
    equivalence between the graph and orbit pictures.
    """
    if not isinstance(pot, ScaledStepPotential):
        raise TypeError("orbit_trace_sum requires the two-bond step potential")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    if n > _MAX_WORD_POWER:
        raise ValueError(f"n must be <= {_MAX_WORD_POWER}, got {n!r} (2^n words)")
    total = 0.0 + 0.0j
    chunk = 1 << 20
    top = np.uint64(1) << np.uint64(n - 1)
    for start in range(0, 1 << n, chunk):
        w = np.arange(start, min(start + chunk, 1 << n), dtype=np.uint64)
        rot = (w >> np.uint64(1)) | ((w & np.uint64(1)) * top)
        n_r = _popcount(w)                      # bit 1 encodes R
        rr = _popcount(w & rot)
        tau2 = _popcount(w ^ rot)
        sigma = n - tau2
        sign = np.where((n + rr) % 2, -1.0, 1.0)
        amp = sign * pot.r ** sigma * pot.t ** tau2
        ln = (n - n_r) * pot.l1 + n_r * pot.l2
        total += np.sum(amp * np.exp(2j * k * ln))
    return complex(2.0 * total)


def counting_function(pot, k: float, n_max: int) -> float:
    """Spectral staircase from the trace expansion,

        N(k) = (sum_i l_i) k / pi - 1/2 + (1/pi) Im sum_{n<=n_max} Tr S^n / n.

    Approaches the exact number of levels below k as n_max grows, with the
    usual half-step at the levels themselves.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    S = build_smatrix(pot, k)
    acc = 0.0
    power = np.eye(S.shape[0], dtype=complex)
    for n in range(1, n_max + 1):
        power = power @ S
        acc += np.trace(power).imag / n
    return pot.total_length * k / np.pi - 0.5 + acc / np.pi
