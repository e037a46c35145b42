"""End-to-end cloning pipelines.

Two routes to the optimal 1 -> M = 2P-1 equatorial cloner:

* scheme A: universal 1 -> P cloner (symmetrization of the input with P-1
  singlet ancillas), in-plane NOT on the P-1 anticlone qubits, then
  projection of all 2P-1 qubits onto the symmetric subspace;
* scheme B: direct symmetrization of the input qubit with P-1 copies of the
  plane's Bell ancilla.

Every state the schemes post-select is permutation-symmetric, so the Dicke
engine holds an M-qubit output as its M+1 coefficients on the Dicke states of
``plane.basis``, and each stage's success probability as a log10. The machine
is phase-covariant: only the input amplitudes depend on the phase. So each
scheme splits into a ``SchemeKernel``, built once per (scheme, plane, P) with
everything the input does not enter, and an O(M) apply per input. ``simulate``
builds one kernel per command and shares it between its run (``run_kernel``)
and the probes of ``covariance_defect``. Binomial coefficients and
probabilities are carried as logarithms, so M = 100001 runs in a quarter of a
second. The ancillas enter as two-variable polynomials whose coefficients are
read from ``plane.basis`` and ``bell_state``: in that basis each ancilla is
the m = 0 two-qubit state, a monomial, and the engine refuses one that is not.

The dense pipelines (``uqcm``, ``pqcm_scheme_a``/``pqcm_scheme_b`` and
``scheme_equivalence_defect``) act on 2^M-amplitude kets and are the engine's
oracle, used by ``verify`` and the tests. Their symmetric projection is
matrix-free (``symmetry.symmetrize``, O(2^M) time and memory); one scheme-A
run takes about 2 ms at M=13 and 4.6 s at M=23 (670 MiB peak) on a 2-core
x86-64 VM with one BLAS thread. The dense byte budget
(``statekit.DENSE_BYTES``, a 24-qubit ket) stops them at M = 23.

Success-probability bookkeeping: each post-selection stage renormalizes and
reports its own probability. CloneReport.success_prob is the last stage's
probability: for scheme A the universal-cloner stage is treated as a
normalized source. CloneReport.success_log10 is the log10 of the whole run's
probability, every stage included; it stays finite where success_prob
underflows to 0.0 (scheme B past P of about 1030).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import log10

import numpy as np

from . import statekit as sk
from .angular import fidelity_formula
from .statekit import BellKind, Ket, PlaneId
from .symmetry import (
    VanishingProjectionError,
    dicke_coefficients,
    dicke_reduced_density,
    project_and_postselect,
)

DEFAULT_PROBE_PHASES = tuple(2 * np.pi * k / 8 for k in range(8))

# largest entry allowed off the m = 0 monomial of a two-qubit ancilla, and
# off the diagonal of flip_pauli, in the plane basis
MONOMIAL_TOL = 1e-15


@dataclass(frozen=True)
class CloneReport:
    """Structured result of one cloning run.

    success_prob is the last post-selection stage's probability and
    success_log10 the log10 of the whole run's (see the module docstring).
    """

    M: int
    P: int
    scheme: str
    plane: PlaneId
    input_phase: float
    per_clone_fidelity: list
    success_prob: float
    optimal_fidelity: float
    success_log10: float

    def __post_init__(self):
        if self.M != 2 * self.P - 1 or self.M % 2 == 0:
            raise ValueError("M must be odd with M = 2P - 1")
        if self.scheme not in ("A", "B"):
            raise ValueError("scheme must be 'A' or 'B'")
        if len(self.per_clone_fidelity) != self.M:
            raise ValueError("need one fidelity per clone")
        if not 0 <= min(self.per_clone_fidelity) <= max(self.per_clone_fidelity) <= 1 + 1e-12:
            raise ValueError("fidelities must lie in [0, 1]")
        if not 0 <= self.success_prob <= 1 + 1e-12:
            raise ValueError("success probability must lie in [0, 1]")
        if not -np.inf < self.success_log10 <= 1e-12:
            raise ValueError("log10 success probability must be finite and <= 0")

    def to_dict(self):
        return {
            "M": self.M,
            "P": self.P,
            "scheme": self.scheme,
            "plane": self.plane.value,
            "input_phase": self.input_phase,
            "per_clone_fidelity": list(self.per_clone_fidelity),
            "success_prob": self.success_prob,
            "success_log10": self.success_log10,
            "optimal_fidelity": self.optimal_fidelity,
        }


def _make_report(scheme, plane, input_phase, P, fids, success, success_log10):
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
        success_log10=success_log10,
    )


# ---------------------------------------------------------------------------
# Dicke engine: M+1 coefficients in plane.basis, probabilities as log10


@dataclass(frozen=True)
class DickeOutput:
    """Normalized symmetric M-qubit output of the Dicke engine.

    coeffs[k] is the amplitude of the Dicke state with k of the M qubits in
    |psi_perp>, in plane.basis. stage_log10 maps each post-selection stage
    ("uqcm" for scheme A, then "final") to the log10 of its probability.
    """

    plane: PlaneId
    coeffs: np.ndarray
    stage_log10: dict


@dataclass(frozen=True)
class SchemeKernel:
    """One scheme at (plane, P) without its input (a0, a1), which ``output`` and
    ``stage_log10`` apply in O(M). Both schemes output the polynomial
    (a0 + a1 x) x^(P-1) common, common = exp(ln_common) phase_common, in
    plane.basis; ln_binom_m is ln C(M, .), and for scheme A uqcm_terms holds
    (2 ln w_m, ln C(P, .), ln C(P-1, P-1-m)), the universal-cloner stage's
    terms, which |a0|^2 and |a1|^2 weight apart (see ``_kernel_a``).
    """

    scheme: str
    plane: PlaneId
    P: int
    ln_common: float
    phase_common: complex
    ln_binom_m: np.ndarray
    uqcm_terms: tuple = None

    def output(self, a):
        """Normalized coefficients of (a0 + a1 x) x^(P-1) common, each divided by
        sqrt(C(M, k)), and ln of their squared norm."""
        P = self.P
        ln_mag = np.full(2 * P, -np.inf)
        phase = np.zeros(2 * P, dtype=complex)
        ln_mag[P - 1:P + 1] = np.log(np.abs(a)) + self.ln_common
        phase[P - 1:P + 1] = a / np.abs(a) * self.phase_common
        ln_mag -= 0.5 * self.ln_binom_m
        top = np.max(ln_mag)
        coeffs = np.exp(ln_mag - top) * phase
        norm_sq = float(np.vdot(coeffs, coeffs).real)
        return coeffs / np.sqrt(norm_sq), 2 * top + np.log(norm_sq)

    def stage_log10(self, a, ln_total):
        """log10 of each stage's probability for the input a, where ln_total is
        the ln of the whole run's probability (from ``output``)."""
        if self.uqcm_terms is None:
            return {"final": ln_total / np.log(10)}
        two_ln_w, ln_clone, ln_anti = self.uqcm_terms
        ln_terms = np.concatenate((
            2 * np.log(abs(a[0])) + two_ln_w - ln_clone[:-1] - ln_anti,
            2 * np.log(abs(a[1])) + two_ln_w - ln_clone[1:] - ln_anti,
        ))
        ln_uqcm, _ = _log_sum(ln_terms, np.ones(2 * self.P))
        return {"uqcm": ln_uqcm / np.log(10), "final": (ln_total - ln_uqcm) / np.log(10)}


def _ln_binomials(n):
    """ln C(n, k) for k = 0..n, summed from the ratios C(n, k+1)/C(n, k) = (n-k)/(k+1)
    in extended precision (where numpy has it), so the running sum loses no digits."""
    k = np.arange(n, dtype=np.longdouble)
    return np.concatenate(([0.0], np.cumsum(np.log((n - k) / (k + 1))).astype(float)))


def _log_sum(ln_mag, phase):
    """sum_i exp(ln_mag[i]) phase[i], without overflow, as (ln |sum|, sum / |sum|).

    A sum that cancels to below 1e-7 of its terms' total modulus (a projection
    probability below 1e-14 of the unprojected weight) counts as vanished.
    """
    top = np.max(ln_mag)
    scaled = np.exp(ln_mag - top)
    total = complex(scaled @ phase)
    if abs(total) <= 1e-7 * scaled.sum():
        raise VanishingProjectionError("the projection onto the symmetric subspace vanished")
    return top + np.log(abs(total)), total / abs(total)


@cache
def _flip_signs(plane):
    """The diagonal (d0, d1) = (+-1, -+1) of plane.flip_pauli in plane.basis."""
    b = plane.basis
    flip = b.conj().T @ plane.flip_pauli @ b
    signs = np.rint(flip.diagonal().real)
    if np.max(np.abs(flip - np.diag(signs))) > MONOMIAL_TOL:
        raise ValueError(f"flip_pauli is not diagonal in the {plane.value} basis")
    return tuple(signs)


def _pair_table(plane, ket, name):
    """Amplitudes t[i, j] of a two-qubit ancilla in plane.basis; it must be the
    m = 0 state, t00 = t11 = 0, for its polynomial to be a monomial."""
    inv = plane.basis.conj().T
    table = inv @ ket.amplitudes.reshape(2, 2) @ inv.T
    off = max(abs(table[0, 0]), abs(table[1, 1]))
    if off > MONOMIAL_TOL:
        raise ValueError(f"{name} is not a monomial in the {plane.value} basis (off entry {off:.1e})")
    return table


def _kernel_a(plane, P):
    """Scheme A's kernel.

    With s marking a clone qubit in |psi_perp> and u an anticlone qubit, the
    input times the P-1 singlets, the NOT already applied to each anticlone,
    is (a0 + a1 s)(alpha u + beta s)^(P-1) = sum_{j,l} coef_{j,l} s^j u^l,
    nonzero only on the diagonals j + l = P-1 and P. The universal-cloner
    stage keeps sum |coef_{j,l}|^2 / (C(P, j) C(P-1, l)) and the final
    projection leaves c_k = sum_{j+l=k} coef_{j,l} / sqrt(C(M, k)).
    """
    # the NOT on the anticlone multiplies its column by the flip's diagonal
    pair = _pair_table(plane, sk.bell_state(BellKind.PsiMinus), "the singlet")
    pair = pair * _flip_signs(plane)
    alpha, beta = pair[0, 1], pair[1, 0]
    # coef_{m, P-1-m} = a0 w_m and coef_{m+1, P-1-m} = a1 w_m, with
    # w_m = C(P-1, m) beta^m alpha^(P-1-m)
    m = np.arange(P)
    ln_binom = _ln_binomials(P - 1)
    ln_w = ln_binom + m * np.log(abs(beta)) + (P - 1 - m) * np.log(abs(alpha))
    phase_w = np.exp(1j * (m * np.angle(beta) + (P - 1 - m) * np.angle(alpha)))
    ln_diag, phase_diag = _log_sum(ln_w, phase_w)
    # C(P-1, l) at l = P-1-m is ln_binom reversed
    return SchemeKernel("A", plane, P, ln_diag, phase_diag, _ln_binomials(2 * P - 1),
                        (2 * ln_w, _ln_binomials(P), ln_binom[::-1]))


def _kernel_b(plane, P):
    """Scheme B's kernel.

    The input polynomial a0 + a1 x times the Bell polynomial
    (b00 + (b01 + b10) x + b11 x^2)^(P-1), then c_k = coeff_k / sqrt(C(M, k)).
    In the plane basis the Bell polynomial is the monomial beta x, so its
    power is beta^(P-1) x^(P-1).
    """
    pair = _pair_table(plane, sk.bell_state(plane.bell_kind), "the Bell ancilla")
    beta = pair[0, 1] + pair[1, 0]
    return SchemeKernel("B", plane, P, (P - 1) * np.log(abs(beta)),
                        np.exp(1j * (P - 1) * np.angle(beta)), _ln_binomials(2 * P - 1))


def scheme_kernel(scheme, plane, P):
    """The SchemeKernel of scheme "A" or "B" at (plane, P), P >= 2."""
    if P < 2:
        raise ValueError("P must be >= 2")
    return (_kernel_a if scheme == "A" else _kernel_b)(plane, P)


def run_kernel(kernel, input_phase):
    """The kernel's scheme on one input phase: (CloneReport, DickeOutput)."""
    plane, P = kernel.plane, kernel.P
    target = sk.equatorial_state(plane, input_phase)
    a = plane.basis.conj().T @ target.amplitudes
    coeffs, ln_total = kernel.output(a)
    stages = {name: float(value) for name, value in kernel.stage_log10(a, ln_total).items()}
    fid = sk.fidelity(dicke_reduced_density(coeffs, plane.basis), target)
    report = _make_report(kernel.scheme, plane, input_phase, P, [fid] * (2 * P - 1),
                          10 ** stages["final"], sum(stages.values()))
    return report, DickeOutput(plane, coeffs, stages)


def dicke_rotation(plane, angle, M):
    """PhaseRotation(plane, angle) on all M qubits, as the diagonal it is on
    Dicke coefficients in plane.basis.

    R = exp(-i s angle flip/2) with s = plane.orientation, and flip is
    diag(d0, d1) in plane.basis, so R = diag(r0, r1), r_i = exp(-i s angle d_i/2),
    and |D_k> takes r0^(M-k) r1^k. The integer exponent d0 (M-k) + d1 k is
    summed before it meets the angle, so the phase is exact where it is small.
    """
    return np.exp(-0.5j * plane.orientation * angle * _rotation_exponent(plane, M))


def _rotation_exponent(plane, M):
    """The integer exponent d0 (M-k) + d1 k of ``dicke_rotation``, for k = 0..M."""
    d = _flip_signs(plane)
    k = np.arange(M + 1)
    return d[0] * (M - k) + d[1] * k


# ---------------------------------------------------------------------------
# Dense pipelines: the engine's oracle


@dataclass(frozen=True)
class UqcmOutput:
    """Post-selected universal-cloner output with qubit bookkeeping."""

    state: Ket
    clone_qubits: tuple
    anticlone_qubits: tuple
    success_prob: float


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
    _, success, normalized = project_and_postselect(state, list(range(P)))
    return UqcmOutput(
        state=normalized,
        clone_qubits=tuple(range(P)),
        anticlone_qubits=tuple(range(P, 2 * P - 1)),
        success_prob=success,
    )


def _clone_fidelities(state, target):
    """The M equal clone fidelities of a fully symmetrized output."""
    coeffs = dicke_coefficients(state)
    return [sk.fidelity(dicke_reduced_density(coeffs), target)] * state.num_qubits


def pqcm_scheme_a(input_phase, plane, P):
    """Universal cloner + in-plane NOT on anticlones + full symmetrization."""
    target = sk.equatorial_state(plane, input_phase)
    out = uqcm(target, P)
    state = out.state
    for q in out.anticlone_qubits:
        state = sk.apply(plane.flip_pauli, [q], state)
    _, success, final = project_and_postselect(state, list(range(2 * P - 1)))
    fids = _clone_fidelities(final, target)
    total_log10 = log10(out.success_prob) + log10(success)
    return _make_report("A", plane, input_phase, P, fids, success, total_log10), final


def pqcm_scheme_b(input_phase, plane, P):
    """Direct symmetrization of the input with P-1 plane-matched Bell pairs."""
    if P < 2:
        raise ValueError("P must be >= 2")
    target = sk.equatorial_state(plane, input_phase)
    bell = sk.bell_state(plane.bell_kind)
    state = sk.tensor_all([target] + [bell] * (P - 1))
    _, success, final = project_and_postselect(state, list(range(2 * P - 1)))
    fids = _clone_fidelities(final, target)
    return _make_report("B", plane, input_phase, P, fids, success, log10(success)), final


def covariance_defect(kernel, probe_phases=DEFAULT_PROBE_PHASES):
    """Max trace distance between rotate-then-clone and clone-then-rotate.

    Each probe phase is cloned once by the kernel's scheme, on its plane and
    at its P, and the output at theta_b is compared with the output at
    theta_a rotated by theta_b - theta_a for every pair.
    As R(x) R(y) = R(x + y) and the trace distance is unitarily invariant,
    D(out_b, R(theta_b - theta_a) out_a) = D(R(-theta_b) out_b, R(-theta_a) out_a),
    so each output is rotated back once, by its own phase, before the pairs.
    The kernel is shared by the probes, so a probe costs one O(M) apply and
    rotation; the distance is symmetric, so each unordered pair is measured
    once, and each probe's norm is checked once, before the pairs.
    """
    if not probe_phases:
        raise ValueError("probe list must be nonempty")
    plane, P = kernel.plane, kernel.P
    inv = plane.basis.conj().T
    # dicke_rotation(plane, -theta, M), with its exponent built once for all probes
    turn, exponent = -0.5j * plane.orientation, _rotation_exponent(plane, 2 * P - 1)
    rotated_back = []
    for theta in probe_phases:
        coeffs, _ = kernel.output(inv @ sk.equatorial_state(plane, theta).amplitudes)
        rotated_back.append(np.exp(turn * -theta * exponent) * coeffs)
        sk._check_normalized(rotated_back[-1])
    return max((sk._pure_distance(b, a)
                for i, a in enumerate(rotated_back) for b in rotated_back[i + 1:]), default=0.0)


def scheme_equivalence_defect(plane, P, probe_phases=DEFAULT_PROBE_PHASES):
    """Max over probes of 1 - |<out_A|out_B>|^2 for the normalized dense outputs."""
    if not probe_phases:
        raise ValueError("probe list must be nonempty")
    worst = 0.0
    for theta in probe_phases:
        _, out_a = pqcm_scheme_a(theta, plane, P)
        _, out_b = pqcm_scheme_b(theta, plane, P)
        worst = max(worst, 1 - abs(out_a.overlap(out_b)) ** 2)
    return worst
