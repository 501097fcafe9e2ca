"""Quantum-graph scattering matrix for step-potential chains.

The potential is mapped onto a linear graph: one bond per constant region
(weighted length l_i), dead-end vertices at the walls and a scattering vertex
at each interface.  Waves live on directed bonds; the unitary matrix S(k)
propagates amplitudes across one vertex scattering plus one bond traversal.
The spectrum is the zero set of det(1 - S(k)), and the traces Tr S(k)^n
expand into sums over closed bond sequences, the periodic orbits; this module
is the matrix side of that identity, and trace.trace_formula the orbit side.
"""

from __future__ import annotations

import numpy as np

from .model import NStepPotential, interface_coefficients

__all__ = [
    "build_smatrix",
    "det_one_minus_s",
    "trace_powers",
]

_DET_BLOCK = 4096   # wavenumbers per stack of the step's 4x4 S(k); a chain's holds as many entries


def _blocks(pot, size: int):
    """Slices of range(size) whose stacks of S(k) hold at most 16 _DET_BLOCK entries each."""
    step = max(1, 16 * _DET_BLOCK // (2 * len(pot.lengths)) ** 2)
    return (slice(i, i + step) for i in range(0, size, step))


def build_smatrix(pot: NStepPotential, k) -> np.ndarray:
    """Graph scattering matrix S(k), shape shape(k) + (2N, 2N); unitary for real k.

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


def det_one_minus_s(pot, k) -> complex | np.ndarray:
    """det(1 - S(k)); vanishes exactly on the spectrum.

    Accepts scalar or array k, real or complex (small imaginary parts are
    useful for probing zeros off the real axis).  Arrays are evaluated in
    blocks (_blocks), so the matrix stacks stay bounded in size.
    """
    karr = np.asarray(k, dtype=complex)
    flat = karr.reshape(-1)
    d = np.empty(flat.size, dtype=complex)
    eye = np.eye(2 * len(pot.lengths))
    for block in _blocks(pot, flat.size):
        d[block] = np.linalg.det(eye - build_smatrix(pot, flat[block]))
    return complex(d[0]) if karr.ndim == 0 else d.reshape(karr.shape)


def trace_powers(pot, k, n_max: int) -> np.ndarray:
    """Tr S(k)^n for n = 1..n_max, shape (n_max,) + shape(k); row n - 1 holds Tr S^n.

    The powers are multiplied up in the blocks of det_one_minus_s.  Odd
    powers vanish identically because the chain graph is bipartite: every
    closed walk alternates between right- and left-moving bonds.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    karr = np.asarray(k)
    flat = karr.reshape(-1)
    traces = np.empty((n_max, flat.size), dtype=complex)
    for block in _blocks(pot, flat.size):
        S = power = build_smatrix(pot, flat[block])
        for n in range(n_max):
            if n:
                power = power @ S
            traces[n, block] = np.trace(power, axis1=-2, axis2=-1)
    return traces.reshape((n_max,) + karr.shape)

