"""Dense complex linear algebra for multi-qubit pure states and density operators.

Conventions: qubit 0 is the most significant bit of the basis-state index,
so ``|q0 q1 ... q_{n-1}>`` maps to index ``sum(q_i * 2**(n-1-i))``.
Unnormalized kets are legal values (they arise after projective post-selection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

# largest dense complex array the oracle or the amplifier allocates: a 24-qubit
# ket, a 12-qubit matrix, the (c+1)^2 amplitudes of a cutoff c = 4095
DENSE_BYTES = 2 ** 28


class CapacityError(Exception):
    """Raised before a dense array larger than DENSE_BYTES is allocated."""


def _check_capacity(entries):
    """Refuse a dense complex array of ``entries`` entries over DENSE_BYTES."""
    needed = entries * np.dtype(complex).itemsize
    if needed > DENSE_BYTES:
        raise CapacityError(
            f"a dense array of {entries} entries needs {needed} bytes, "
            f"over the budget of {DENSE_BYTES} bytes"
        )


# Pauli matrices
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class Ket:
    """Pure state on ``num_qubits`` qubits, possibly unnormalized."""

    num_qubits: int
    amplitudes: np.ndarray
    norm_sq: float = field(init=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2 ** self.num_qubits,):
            raise ValueError(
                f"expected {2 ** self.num_qubits} amplitudes, got {amps.shape}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "norm_sq", float(np.vdot(amps, amps).real))

    def normalized(self):
        if self.norm_sq < 1e-14:
            raise ValueError("cannot normalize a (near-)zero vector")
        return Ket(self.num_qubits, self.amplitudes / np.sqrt(self.norm_sq))

    def overlap(self, other):
        """<self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityOp:
    """Density operator on ``num_qubits`` qubits."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** self.num_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {mat.shape}")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


class BellKind(Enum):
    PhiPlus = "phi+"
    PhiMinus = "phi-"
    PsiPlus = "psi+"
    PsiMinus = "psi-"


class PlaneId(Enum):
    """Equatorial plane of the Bloch sphere.

    Each plane fixes a canonical basis pair {|psi>, |psi_perp>}, where its phase
    rotation is diag(e^{-i angle/2}, e^{i angle/2}), the Pauli realizing the
    in-plane NOT, and the Bell ancilla selecting it in the symmetrization cloner.
    """

    XZ = "xz"
    YZ = "yz"
    XY = "xy"

    @cached_property
    def basis(self):
        """2x2 matrix whose columns are the canonical {|psi>, |psi_perp>};
        built on first access, once per plane, and read-only."""
        s = 1 / np.sqrt(2)
        if self is PlaneId.XZ:
            # |R> = (|0> - i|1>)/sqrt2, |L> = (|0> + i|1>)/sqrt2
            matrix = np.array([[s, s], [-1j * s, 1j * s]], dtype=complex)
        elif self is PlaneId.YZ:
            matrix = np.array([[s, s], [s, -s]], dtype=complex)
        else:
            matrix = np.eye(2, dtype=complex)
        matrix.flags.writeable = False
        return matrix

    @property
    def flip_pauli(self):
        """Pauli whose action is the NOT gate on this plane's states."""
        return {PlaneId.XZ: SIGMA_Y, PlaneId.YZ: SIGMA_X, PlaneId.XY: SIGMA_Z}[self]

    @property
    def bell_kind(self):
        """Bell ancilla selecting this plane in the symmetrization cloner.

        Fixed by the identity (I x sigma_flip)|psi-> = Bell: the ancilla is
        the plane's NOT gate applied to half a singlet.
        """
        return {
            PlaneId.XZ: BellKind.PhiPlus,
            PlaneId.YZ: BellKind.PhiMinus,
            PlaneId.XY: BellKind.PsiPlus,
        }[self]


@dataclass(frozen=True)
class PhaseRotation:
    """Rotation about the plane's normal axis advancing the equatorial phase.

    It is diag(e^{-i angle/2}, e^{i angle/2}) in plane.basis, in every plane,
    so equatorial_state(plane, theta) maps to equatorial_state(plane,
    theta + angle) up to a global phase.
    """

    plane: PlaneId
    angle: float

    @property
    def matrix(self):
        b = self.plane.basis
        return b @ np.diag(np.exp([-0.5j * self.angle, 0.5j * self.angle])) @ b.conj().T


def equatorial_state(plane, phase):
    """(|psi> + e^{i phase}|psi_perp>)/sqrt2 in the plane's canonical basis."""
    b = plane.basis
    amps = (b[:, 0] + np.exp(1j * phase) * b[:, 1]) / np.sqrt(2)
    return Ket(1, amps)


def equatorial_orthogonal(plane, phase):
    """The in-plane orthogonal partner (|psi> - e^{i phase}|psi_perp>)/sqrt2."""
    b = plane.basis
    amps = (b[:, 0] - np.exp(1j * phase) * b[:, 1]) / np.sqrt(2)
    return Ket(1, amps)


def bell_state(which):
    s = 1 / np.sqrt(2)
    table = {
        BellKind.PhiPlus: [s, 0, 0, s],
        BellKind.PhiMinus: [s, 0, 0, -s],
        BellKind.PsiPlus: [0, s, s, 0],
        BellKind.PsiMinus: [0, s, -s, 0],
    }
    return Ket(2, np.array(table[which], dtype=complex))


def tensor(a, b):
    """Kronecker product; qubit indices of b shift up by a.num_qubits."""
    return tensor_all([a, b])


def tensor_all(kets):
    """Kronecker product of the kets in order, as one chain of outer products
    and one Ket; each ket's qubit indices shift up by those of the kets before it."""
    n = sum(k.num_qubits for k in kets)
    _check_capacity(2 ** n)
    amps = kets[0].amplitudes
    for k in kets[1:]:
        amps = np.multiply.outer(amps, k.amplitudes).reshape(-1)
    return Ket(n, amps)


def _as_axes(state):
    return state.amplitudes.reshape((2,) * state.num_qubits)


def _targets_first(n, targets):
    """The axis order putting the target qubits first, in their listed order,
    and the others after them in theirs; ``np.argsort`` of it undoes it.
    A repeated target raises ValueError, one out of range IndexError."""
    rest = set(targets)
    if len(rest) != len(targets):
        raise ValueError("target qubits must be distinct")
    if any(q < 0 or q >= n for q in targets):
        raise IndexError("target qubit out of range")
    return [*targets, *(q for q in range(n) if q not in rest)]


def apply(op, target_qubits, state):
    """Apply ``op`` to the listed qubits (identity elsewhere)."""
    n = state.num_qubits
    k = len(target_qubits)
    op = np.asarray(op, dtype=complex)
    if op.shape != (2 ** k, 2 ** k):
        raise ValueError(f"operator shape {op.shape} does not match {k} targets")
    order = _targets_first(n, target_qubits)
    psi = op @ _as_axes(state).transpose(order).reshape(2 ** k, -1)
    return Ket(n, psi.reshape((2,) * n).transpose(np.argsort(order)).reshape(-1))


def permute_qubits(state, order):
    """Reorder qubits so new qubit i is the old qubit order[i]."""
    n = state.num_qubits
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all qubit indices")
    psi = _as_axes(state).transpose(order)
    return Ket(n, psi.reshape(-1))


def outer(ket):
    """|psi><psi| as a DensityOp (ket need not be normalized)."""
    v = ket.amplitudes
    _check_capacity(v.size ** 2)
    return DensityOp(ket.num_qubits, np.outer(v, v.conj()))


def partial_trace(ket, keep):
    """Reduced density operator of a ket on the kept qubits (in the listed order)."""
    if not keep:
        raise ValueError("keep must be nonempty")
    n = ket.num_qubits
    if len(set(keep)) != len(keep) or any(q < 0 or q >= n for q in keep):
        raise IndexError("invalid keep list")
    k = len(keep)
    _check_capacity(4 ** k)
    m = _as_axes(ket).transpose(_targets_first(n, keep)).reshape(2 ** k, -1)
    return DensityOp(k, m @ m.conj().T)


def fidelity(rho, target):
    """<target|rho|target>; target must be normalized."""
    if rho.num_qubits != target.num_qubits:
        raise ValueError("dimension mismatch between rho and target")
    if abs(target.norm_sq - 1) > 1e-10:
        raise ValueError("target must be normalized")
    val = complex(np.vdot(target.amplitudes, rho.matrix @ target.amplitudes))
    if abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
        raise ValueError(f"fidelity has imaginary residue {val.imag}")
    return float(val.real)


def phase_rotate(rot, state, qubits):
    """Apply the plane rotation to each listed qubit."""
    out = state
    for q in qubits:
        out = apply(rot.matrix, [q], out)
    return out


def pure_trace_distance(a, b):
    """Trace distance sqrt(1 - |<a|b>|^2) between two normalized pure states,
    given as Kets or as amplitude vectors in one basis (Dicke coefficients).

    Arrays hold the amplitudes on their last axis and broadcast over the
    leading ones, giving one distance per broadcast pair; two vectors give a
    float. Each vector must have unit norm to 1e-10. Evaluated as
    sqrt(||a - e^{i phi} b||^2 (1 + |<a|b>|) / 2), with e^{i phi} aligning b's
    global phase to a, so that nearly equal states do not lose their
    distance to cancellation in 1 - |<a|b>|^2.
    """
    a, b = (np.asarray(getattr(x, "amplitudes", x)) for x in (a, b))
    if a.shape[-1:] != b.shape[-1:]:
        raise ValueError("dimension mismatch between kets")
    for amps in (a, b):
        if np.any(np.abs((amps.conj() * amps).real.sum(axis=-1) - 1) > 1e-10):
            raise ValueError("kets must be normalized")
    ov = (a.conj() * b).sum(axis=-1)
    mag = np.abs(ov)
    diff = a - np.exp(-1j * np.angle(ov))[..., None] * b
    dist = np.sqrt((diff.conj() * diff).real.sum(axis=-1) * (1 + mag) / 2)
    return float(dist) if dist.ndim == 0 else dist


def trace_distance(rho_a, rho_b):
    """Trace distance of two dense density operators; the reference for
    ``pure_trace_distance``."""
    eigs = np.linalg.eigvalsh(rho_a.matrix - rho_b.matrix)
    return float(np.abs(eigs).sum() / 2)
