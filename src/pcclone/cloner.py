"""End-to-end cloning pipelines.

Two routes to the optimal 1 -> M = 2P-1 equatorial cloner:

* scheme A: universal 1 -> P cloner (symmetrization of the input with P-1
  singlet ancillas), in-plane NOT on the P-1 anticlone qubits, then
  projection of all 2P-1 qubits onto the symmetric subspace;
* scheme B: direct symmetrization of the input qubit with P-1 copies of the
  plane's Bell ancilla.

Both schemes act on dense 2^M-amplitude kets; the symmetric projection is
matrix-free (``symmetry.symmetrize``, O(2^M) time and memory), and the dense
projector is a test oracle only. One scheme-A run takes about 2 ms at M=13,
0.9 s at M=21 and 4.6 s at M=23 (670 MiB peak) on a 2-core x86-64 VM with
one BLAS thread. ``covariance_defect`` compares pure states by their
cancellation-free trace distance and costs one pipeline run and one
M-qubit rotation per probe phase.

Success-probability bookkeeping: each post-selection stage renormalizes and
reports its own probability. The universal-cloner stage is treated as a
normalized source, so CloneReport.success_prob for scheme A is the final
symmetrization probability alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt

import numpy as np

from . import statekit as sk
from .angular import fidelity_formula
from .statekit import BellKind, Ket, PlaneId
from .symmetry import dicke_reduced_density, project_and_postselect

DEFAULT_PROBE_PHASES = tuple(2 * np.pi * k / 8 for k in range(8))


@dataclass(frozen=True)
class CloneReport:
    """Structured result of one cloning run."""

    M: int
    P: int
    scheme: str
    plane: PlaneId
    input_phase: float
    per_clone_fidelity: list
    success_prob: float
    optimal_fidelity: float

    def __post_init__(self):
        if self.M != 2 * self.P - 1 or self.M % 2 == 0:
            raise ValueError("M must be odd with M = 2P - 1")
        if self.scheme not in ("A", "B"):
            raise ValueError("scheme must be 'A' or 'B'")
        if len(self.per_clone_fidelity) != self.M:
            raise ValueError("need one fidelity per clone")
        if not all(0 <= f <= 1 + 1e-12 for f in self.per_clone_fidelity):
            raise ValueError("fidelities must lie in [0, 1]")
        if not 0 < self.success_prob <= 1 + 1e-12:
            raise ValueError("success probability must lie in (0, 1]")

    def to_dict(self):
        return {
            "M": self.M,
            "P": self.P,
            "scheme": self.scheme,
            "plane": self.plane.value,
            "input_phase": self.input_phase,
            "per_clone_fidelity": list(self.per_clone_fidelity),
            "success_prob": self.success_prob,
            "optimal_fidelity": self.optimal_fidelity,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            M=d["M"],
            P=d["P"],
            scheme=d["scheme"],
            plane=PlaneId(d["plane"]),
            input_phase=d["input_phase"],
            per_clone_fidelity=list(d["per_clone_fidelity"]),
            success_prob=d["success_prob"],
            optimal_fidelity=d["optimal_fidelity"],
        )


@dataclass(frozen=True)
class UqcmOutput:
    """Post-selected universal-cloner output with qubit bookkeeping."""

    state: Ket
    clone_qubits: tuple
    anticlone_qubits: tuple


def uqcm(input_ket, P):
    """Optimal universal 1 -> P cloner by symmetrization with singlet ancillas.

    Qubit layout of the result: clones (input + P-1 ancillas) first, then the
    P-1 anticlone qubits.
    """
    if P < 2:
        raise ValueError("P must be >= 2")
    if abs(input_ket.norm_sq - 1) > 1e-10:
        raise ValueError("input must be normalized")
    singlet = sk.bell_state(BellKind.PsiMinus)
    state = sk.tensor_all([input_ket] + [singlet] * (P - 1))
    # interleaved layout S, A1, B1, A2, B2, ... -> S, A..., B...
    order = [0] + [1 + 2 * i for i in range(P - 1)] + [2 + 2 * i for i in range(P - 1)]
    state = sk.permute_qubits(state, order)
    _, _, normalized = project_and_postselect(state, list(range(P)))
    return UqcmOutput(
        state=normalized,
        clone_qubits=tuple(range(P)),
        anticlone_qubits=tuple(range(P, 2 * P - 1)),
    )


def _clone_fidelities(state, target):
    """The M equal clone fidelities of a fully symmetrized output: ``symmetrize``
    leaves one amplitude per Hamming weight, and index 2^k - 1 has weight k."""
    M = state.num_qubits
    coeffs = [state.amplitudes[2 ** k - 1] * sqrt(comb(M, k)) for k in range(M + 1)]
    return [sk.fidelity(dicke_reduced_density(coeffs), target)] * M


def _make_report(scheme, plane, input_phase, P, fids, success):
    M = 2 * P - 1
    return CloneReport(
        M=M,
        P=P,
        scheme=scheme,
        plane=plane,
        input_phase=input_phase,
        per_clone_fidelity=fids,
        success_prob=success,
        optimal_fidelity=float(fidelity_formula("cov_odd", 1, M)),
    )


def pqcm_scheme_a(input_phase, plane, P):
    """Universal cloner + in-plane NOT on anticlones + full symmetrization."""
    target = sk.equatorial_state(plane, input_phase)
    out = uqcm(target, P)
    state = out.state
    for q in out.anticlone_qubits:
        state = sk.apply(plane.flip_pauli, [q], state)
    _, success, final = project_and_postselect(state, list(range(2 * P - 1)))
    fids = _clone_fidelities(final, target)
    return _make_report("A", plane, input_phase, P, fids, success), final


def pqcm_scheme_b(input_phase, plane, P):
    """Direct symmetrization of the input with P-1 plane-matched Bell pairs."""
    if P < 2:
        raise ValueError("P must be >= 2")
    target = sk.equatorial_state(plane, input_phase)
    bell = sk.bell_state(plane.bell_kind)
    state = sk.tensor_all([target] + [bell] * (P - 1))
    _, success, final = project_and_postselect(state, list(range(2 * P - 1)))
    fids = _clone_fidelities(final, target)
    return _make_report("B", plane, input_phase, P, fids, success), final


def run_scheme(scheme, input_phase, plane, P):
    """Scheme "A" or "B" on one input phase: (CloneReport, output ket)."""
    if scheme == "A":
        return pqcm_scheme_a(input_phase, plane, P)
    return pqcm_scheme_b(input_phase, plane, P)


def covariance_defect(plane, P, scheme="A", probe_phases=DEFAULT_PROBE_PHASES):
    """Max trace distance between rotate-then-clone and clone-then-rotate.

    Each probe phase is cloned once, and the output at theta_b is compared
    with the output at theta_a rotated by theta_b - theta_a for every pair.
    As R(x) R(y) = R(x + y) and the trace distance is unitarily invariant,
    D(out_b, R(theta_b - theta_a) out_a) = D(R(-theta_b) out_b, R(-theta_a) out_a),
    so each output is rotated back once, by its own phase, before the pairs.
    """
    if not probe_phases:
        raise ValueError("probe list must be nonempty")
    M = 2 * P - 1
    rotated_back = []
    for theta in probe_phases:
        _, out = run_scheme(scheme, theta, plane, P)
        rotated_back.append(sk.phase_rotate(sk.PhaseRotation(plane, -theta), out, list(range(M))))
    return max(sk.pure_trace_distance(b, a) for a in rotated_back for b in rotated_back)


def scheme_equivalence_defect(plane, P, probe_phases=DEFAULT_PROBE_PHASES):
    """Max over probes of 1 - |<out_A|out_B>|^2 for the normalized outputs."""
    if not probe_phases:
        raise ValueError("probe list must be nonempty")
    worst = 0.0
    for theta in probe_phases:
        _, out_a = pqcm_scheme_a(theta, plane, P)
        _, out_b = pqcm_scheme_b(theta, plane, P)
        worst = max(worst, 1 - abs(out_a.overlap(out_b)) ** 2)
    return worst
