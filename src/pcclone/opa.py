"""Truncated two-mode bosonic simulator for the collinear type-II amplifier.

The two modes are the orthogonal polarizations of a single spatial mode.
States are stored as amplitude vectors indexed by the photon pair (m, n)
with 0 <= m, n <= cutoff; ``mode_basis`` is either the string "HV" or a float
phase phi tagging the rotated pair {phi, phi_perp} with
a_phi = (a_H + e^{-i phi} a_V)/sqrt2 (dagger convention as in the rotated
Hamiltonian form). Units: the coupling chi*hbar is set to 1, so "gain" is
the dimensionless interaction time chi*t.

The Hamiltonian is never stored: ``evolve`` and ``first_order_output`` apply
it matrix-free from its matrix elements, O((c+1)^2) per application, so the
cutoff is limited by the series, not by a (c+1)^2 x (c+1)^2 matrix.
``fock_state`` refuses a cutoff whose (c+1)^2 amplitudes exceed
``statekit.DENSE_BYTES`` (c > 4095) before it allocates them, and a pair
(m, n) with m + n over the cutoff; ``FockVec.amplitude`` refuses one off the grid.
``build_hamiltonian`` and ``hamiltonian_in_rotated_modes`` tabulate the same
action on the identity for the tests only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import perm, sqrt

import numpy as np

from .statekit import _check_capacity
from .symmetry import dicke_reduced_density, symmetric_powers


class CutoffOverflowError(Exception):
    """Evolution pushed significant population onto the truncation boundary."""


@dataclass(frozen=True)
class FockVec:
    """Truncated two-mode state; amplitudes indexed by (m, n) row-major."""

    cutoff: int
    amplitudes: np.ndarray
    mode_basis: object = "HV"

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        dim = (self.cutoff + 1) ** 2
        if amps.shape != (dim,):
            raise ValueError(f"expected {dim} amplitudes, got {amps.shape}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_sq(self):
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def amplitude(self, m, n):
        if not (0 <= m <= self.cutoff and 0 <= n <= self.cutoff):
            raise ValueError(f"amplitude requires 0 <= m, n <= cutoff: (m, n) = ({m}, {n}) "
                             f"is off the grid at cutoff {self.cutoff}")
        return complex(self.amplitudes[m * (self.cutoff + 1) + n])


def fock_state(cutoff, m, n, mode_basis="HV"):
    if m < 0 or n < 0 or m + n > cutoff:
        raise ValueError(f"Fock state requires m, n >= 0 and m + n <= cutoff: |{m}, {n}> "
                         f"is not held by the truncation at {cutoff}")
    _check_capacity((cutoff + 1) ** 2)
    amps = np.zeros((cutoff + 1) ** 2, dtype=complex)
    amps[m * (cutoff + 1) + n] = 1.0
    return FockVec(cutoff, amps, mode_basis)


def _apply_hamiltonian(basis, cutoff, amps):
    """H applied to amplitudes of shape ((c+1)^2, ...) written in ``basis``.

    H is a sum of terms g a1^dag^p a2^dag^q + h.c.; a1^dag^p a2^dag^q moves
    (m, n) to (m+p, n+q) with weight sqrt((m+1)...(m+p) (n+1)...(n+q)) and its
    adjoint moves it back. In HV, H = i a_H^dag a_V^dag + h.c.; in the
    {phi, phi_perp} pair the same H reads
    (1/2) i e^{-i phi} (a1^dag^2 - e^{2i phi} a2^dag^2) + h.c.
    """
    if cutoff < 3:
        raise ValueError("cutoff must be >= 3 to hold the 3-photon sector")
    if basis == "HV":
        terms = [(1, 1, 1j)]
    else:
        phi = float(basis)
        lead = 0.5j * np.exp(-1j * phi)
        # -lead e^{2i phi}, written without 2 phi, which overflows near the float limit
        terms = [(2, 0, lead), (0, 2, -0.5j * np.exp(1j * phi))]
    side = cutoff + 1
    psi = amps.reshape(side, side, -1)
    out = np.zeros(psi.shape, dtype=complex)
    for p, q, g in terms:
        w = np.sqrt(np.outer(
            [perm(k + p, p) for k in range(side - p)], [perm(k + q, q) for k in range(side - q)]
        ))[:, :, None]
        out[p:, q:] += g * w * psi[: side - p, : side - q]
        out[: side - p, : side - q] += np.conj(g) * w * psi[p:, q:]
    return out.reshape(amps.shape)


def build_hamiltonian(cutoff):
    """Pair-creation Hamiltonian i a_H^dag a_V^dag + h.c. (chi*hbar = 1) as a
    dense (c+1)^2 x (c+1)^2 matrix, tabulated from the matrix-free action."""
    return _apply_hamiltonian("HV", cutoff, np.eye((cutoff + 1) ** 2, dtype=complex))


def hamiltonian_in_rotated_modes(cutoff, phi):
    """The same Hamiltonian written on amplitudes in the {phi, phi_perp} basis:
    (1/2) i e^{-i phi}(a1^dag^2 - e^{2i phi} a2^dag^2) + h.c., as a dense matrix."""
    return _apply_hamiltonian(phi, cutoff, np.eye((cutoff + 1) ** 2, dtype=complex))


def _boundary_population(cutoff, amps):
    grid = np.abs(amps.reshape(cutoff + 1, cutoff + 1)) ** 2
    return float(grid[cutoff, :].sum() + grid[:, cutoff].sum() - grid[cutoff, cutoff])


def evolve(state, gain, order):
    """Truncated Taylor expansion of exp(-i gain H) applied to the state.

    Returns (evolved FockVec, remainder) where the remainder is the norm of
    the first dropped series term, an upper estimate of the truncation error.
    A series that overflows is refused by the boundary check, so numpy's
    overflow warnings on the way there are silenced.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    h = partial(_apply_hamiltonian, state.mode_basis, state.cutoff)
    term = state.amplitudes.copy()
    acc = term.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, order + 1):
            term = (-1j * gain / j) * h(term)
            acc = acc + term
        remainder = float(np.linalg.norm((-1j * gain / (order + 1)) * h(term)))
        boundary = _boundary_population(state.cutoff, acc)
    if not boundary <= 1e-8:  # NaN: the series overflowed
        raise CutoffOverflowError(
            "series pushed population onto the truncation boundary or overflowed; "
            "raise the cutoff or lower the gain"
        )
    return FockVec(state.cutoff, acc, state.mode_basis), remainder


def first_order_output(phase):
    """Coefficient of gain^1 for an injected |phi>-polarized photon, at cutoff 6.

    The injected state is |1,0> in the rotated {phi, phi_perp} basis; the
    first-order term lives entirely in the 3-photon sector, the same at every
    cutoff >= 3, with amplitude ratio (3,0):(1,2) = sqrt6 : -sqrt2 e^{2i phi}.
    """
    cutoff = 6
    injected = fock_state(cutoff, 1, 0, mode_basis=float(phase))
    amps = _apply_hamiltonian(float(phase), cutoff, injected.amplitudes)
    return FockVec(cutoff, -1j * amps + 0.0, float(phase))  # + 0.0: no -0.0 parts


def change_mode_basis(state, new_basis):
    """Re-express a FockVec in another polarization mode pair.

    The N-photon sector is N symmetric qubits, |m, n> the Dicke state with n
    in the second mode, so u on one photon acts on a sector's anti-diagonal as
    S_N(u) of ``symmetry.symmetric_powers``: exact and unitary under the cutoff.
    """
    c = state.cutoff
    k = np.arange(c + 1)
    photons = np.add.outer(k, k).ravel()
    if np.any(state.amplitudes[photons > c]):
        raise ValueError("basis change requires total photon number <= cutoff")
    u = _single_particle(new_basis).conj().T @ _single_particle(state.mode_basis)
    out = np.zeros((c + 1) ** 2, dtype=complex)
    for N, s in enumerate(symmetric_powers(u, c)):
        sector = (N - k[:N + 1]) * (c + 1) + k[:N + 1]  # (N - n, n), n = 0..N
        out[sector] = s @ state.amplitudes[sector]
    return FockVec(c, out, new_basis)


def _single_particle(basis):
    """Columns express the basis pair's one-photon states over (|H>, |V>)."""
    if basis == "HV":
        return np.eye(2, dtype=complex)
    phi = float(basis)
    return np.array([[1, -np.exp(-1j * phi)], [np.exp(1j * phi), 1]], dtype=complex) / sqrt(2)


def photon_reduced_density(state):
    """Single-photon polarization density matrix of a fixed-N Fock state.

    Maps the symmetric N-photon sector to N qubits (|m, N-m> <-> Dicke state
    with N-m excitations in the orthogonal polarization) and takes the
    reduced state of one qubit from the N+1 Dicke coefficients. The qubit
    basis pair is the state's mode basis expressed over {|H>, |V>} = {|0>, |1>}.
    """
    k = np.arange(state.cutoff + 1)
    photons = np.add.outer(k, k).ravel()
    sector_weight = np.bincount(photons, weights=np.abs(state.amplitudes) ** 2)
    total = sector_weight.sum()
    if total == 0:
        raise ValueError("zero state")
    # relative test: a weak sector of a low-gain evolution is still a state
    big_n = int(np.argmax(sector_weight))
    off = total - sector_weight[big_n]
    if off > 1e-10 * total or big_n < 1:
        raise ValueError("state must be supported on a single photon-number sector N >= 1")
    if big_n > state.cutoff:
        raise ValueError(f"reduced state requires photon number <= cutoff: sector N = {big_n} "
                         f"is cut by the truncation at {state.cutoff}")
    coeffs = [state.amplitude(big_n - k, k) for k in range(big_n + 1)]
    return dicke_reduced_density(coeffs, _single_particle(state.mode_basis))
