"""Symmetric-subspace machinery: Dicke states, matrix-free symmetrization,
post-selected projection with success probability."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from .statekit import DensityOp, Ket, _check_capacity, _targets_first


class VanishingProjectionError(Exception):
    """Raised when the post-selected component of a state is (near-)zero."""


@dataclass(frozen=True)
class DickeLabel:
    """n-qubit permutation-symmetric state with k qubits excited to |phi_perp>."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= self.k <= self.n:
            raise ValueError(f"k={self.k} out of range for n={self.n}")


def symmetric_powers(u, N):
    """Yield S_n[j, k] = <D_j|u^(x n)|D_k>, n = 0, ..., N, the one-qubit map u on
    the symmetric subspace of n qubits, in O(N^3) and with no binomials; every
    basis change of a symmetric state or its Dicke coefficients goes through it.

    |D_k^n> = sqrt((n-k)/n) |D_k^{n-1}>|0> + sqrt(k/n) |D_{k-1}^{n-1}>|1>, so
    S_n is four shifted copies of S_{n-1}, one per entry u[r, c], with row r and
    column c shifted by one when set and weighted by these square roots.
    """
    s = np.ones((1, 1), dtype=complex)
    yield s
    for n in range(1, N + 1):
        i = np.arange(n)
        w = (np.sqrt((n - i) / n), np.sqrt((i + 1) / n))
        prev, s = s, np.zeros((n + 1, n + 1), dtype=complex)
        for r, c in np.ndindex(2, 2):
            s[r:n + r, c:n + c] += u[r][c] * np.outer(w[r], w[c]) * prev
        yield s


def _hamming(n):
    """The Hamming weight of each n-bit index, and C(n, w) for w = 0..n."""
    weight = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        weight = np.concatenate((weight, weight + 1))
    return weight, np.array([comb(n, w) for w in range(n + 1)], dtype=float)


def dicke_state(label):
    """Normalized computational-basis symmetric state with the given excitation
    count; in another basis |D_k> is column k of S_n(basis) over these."""
    n, k = label.n, label.k
    _check_capacity(2 ** n)
    weight, counts = _hamming(n)
    return Ket(n, (weight == k) / np.sqrt(counts[k]))


def symmetric_projector(n):
    """Projector onto the (n+1)-dimensional symmetric subspace of n qubits,
    as the dense sum of Dicke outer products: a 4^n reference for tests only."""
    dim = 2 ** n
    _check_capacity(dim * dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for k in range(n + 1):
        v = dicke_state(DickeLabel(n, k)).amplitudes
        mat += np.outer(v, v.conj())
    return mat


def symmetrize(state, subset):
    """Apply the symmetric-subspace projector on the subset qubits, matrix-free.

    The projector is sum_k |D_k><D_k| over the Dicke states of the subset, so
    each amplitude becomes the mean of the amplitudes whose subset bits have
    the same Hamming weight. Time and memory are O(2^n) in the register size.
    """
    n = state.num_qubits
    k = len(subset)
    order = _targets_first(n, subset)
    psi = state.amplitudes.reshape((2,) * n).transpose(order).reshape(2 ** k, -1)
    cols = psi.shape[1]
    weight, counts = _hamming(k)
    bins = (weight[:, None] * cols + np.arange(cols)).ravel()
    size = (k + 1) * cols
    sums = np.bincount(bins, psi.real.ravel(), size) + 1j * np.bincount(
        bins, psi.imag.ravel(), size
    )
    means = sums.reshape(k + 1, cols) / counts[:, None]
    out = means[weight].reshape((2,) * n).transpose(np.argsort(order))
    return Ket(n, out.reshape(-1))


def dicke_coefficients(state):
    """Computational-basis coefficients <D_k|state>, k = 0..n, of a
    permutation-symmetric ket: it has one amplitude per Hamming weight, and
    index 2^k - 1 has weight k. S_n(basis^dag) maps them into another basis."""
    n = state.num_qubits
    return np.array([state.amplitudes[2 ** k - 1] * sqrt(comb(n, k)) for k in range(n + 1)])


def dicke_reduced_density(coeffs, basis=None, offset=0, num_qubits=None):
    """Normalized one-qubit reduced state of sum_k c_k |D_k>, in O(len(coeffs)).

    |D_k> has k of its n qubits in |phi_perp>; ``basis`` has the columns
    {|phi>, |phi_perp>} (default: computational). ``coeffs`` is a window: it
    holds c_k for k = offset, ..., offset + len(coeffs) - 1 of an n-qubit state
    (n = num_qubits), and every other c_k is zero; by default the window is
    the whole vector, n = len(coeffs) - 1. Every qubit of a symmetric state
    has this state: rho_00 = sum |c_k|^2 (n-k)/n and
    rho_01 = sum c_k conj(c_{k+1}) sqrt((n-k)(k+1))/n, summed over the window.
    """
    c = np.asarray(coeffs, dtype=complex)
    n = len(c) - 1 if num_qubits is None else num_qubits
    k = np.arange(offset, offset + len(c), dtype=float)
    weight = float(np.vdot(c, c).real)
    if n < 1 or weight == 0:
        raise ValueError("need a nonzero state on at least one qubit")
    if offset < 0 or offset + len(c) - 1 > n:
        raise ValueError(f"window of {len(c)} at offset {offset} does not fit {n} qubits")
    rest = n - k
    rho00 = float(np.abs(c) ** 2 @ rest) / n
    root = np.sqrt(rest[:-1] * k[1:])  # sqrt((n-k)(k+1))
    rho01 = complex(c[:-1] @ (c[1:].conj() * root)) / n
    rho = np.array([[rho00, rho01], [rho01.conjugate(), weight - rho00]]) / weight
    if basis is not None:
        rho = basis @ rho @ basis.conj().T
    return DensityOp(1, rho)


def project_and_postselect(state, subset):
    """Apply the symmetrizer to the subset qubits and post-select.

    Returns (unnormalized projected state, success probability, normalized
    projected state). The success probability is the squared norm of the
    projected state before renormalization.
    """
    projected = symmetrize(state, subset)
    success = projected.norm_sq
    if success < 1e-14:
        raise VanishingProjectionError(
            f"projection onto the symmetric subspace vanished (norm^2={success:.3e})"
        )
    return projected, success, projected.normalized()


def concatenation_defect(P):
    """Max defect of Pi^{2P-1} (Pi^P x I^{P-1}) = Pi^{2P-1}, scheme A's two-stage
    identity, on three random (2P-1)-qubit kets from a fixed seed. Their amplitudes
    are of order one, and a ket is the largest array, so one capacity check guards all."""
    if P < 1:
        raise ValueError("P must be >= 1")
    n = 2 * P - 1
    _check_capacity(2 ** n)
    rng = np.random.default_rng(5)
    qubits = list(range(n))
    worst = 0.0
    for _ in range(3):
        psi = Ket(n, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n))
        both = symmetrize(symmetrize(psi, qubits[:P]), qubits)
        worst = max(worst, float(np.max(np.abs(both.amplitudes - symmetrize(psi, qubits).amplitudes))))
    return worst
