"""End-to-end cloning pipelines.

Two routes to the optimal 1 -> M = 2P-1 equatorial cloner:

* scheme A: universal 1 -> P cloner (symmetrization of the input with P-1
  singlet ancillas), in-plane NOT on the P-1 anticlone qubits, then
  projection of all 2P-1 qubits onto the symmetric subspace;
* scheme B: direct symmetrization of the input qubit with P-1 copies of the
  plane's Bell ancilla.

Every state the schemes post-select is permutation-symmetric, and in
``plane.basis`` each ancilla is the m = 0 two-qubit state, a monomial (the
engine refuses one that is not). So by the binomial theorem both schemes
output a0 |D_{P-1}> + a1 |D_P>, times one common factor, for any input
a0 |0> + a1 |1>, and the Dicke engine holds an M-qubit output as that
two-coefficient window. The machine is phase-covariant: only the input
amplitudes depend on the phase, and no stage's success probability does. So
each scheme splits into a ``SchemeKernel``, built once per (scheme, plane, P)
in O(1) with everything the input does not enter, each stage's probability
as a log10 included, and an apply per input (or batch of inputs) that writes
the two coefficients. ``simulate`` builds one kernel per command and shares
it between its run (``run_kernel``, one ``DickeOutput``: the window, the
stages and the one clone fidelity) and the probes of ``covariance_defect``;
nothing in either is O(M). The engine works in plane.basis end to end: in
every plane the input is (1, e^{i theta})/sqrt2 there, the phase rotation
diag(e^{-i angle/2}, e^{i angle/2}), and the clone fidelity is read there.

The dense pipelines (``uqcm`` and ``pqcm_scheme_a``/``pqcm_scheme_b``) act on
2^M-amplitude kets and are the engine's oracle, used by ``verify`` and the
tests. Their symmetric projection is matrix-free (``symmetry.symmetrize``,
O(2^M) time and memory), scheme A's NOT on its P-1 anticlones is one signed
reversal of the trailing index (``_flip_trailing``), and both schemes end in
one shared step (``_symmetrized_report``) that projects all M qubits and reads
the clone fidelity. One scheme-A run takes about 2 ms at M=13 and 1.3 s at
M=23 (543 MiB peak) on a 2-core x86-64 VM with one BLAS thread. The dense byte
budget (``statekit.DENSE_BYTES``, 2^24 amplitudes) stops them at M = 23 and
the engine at M = 2^24 - 1.

Success-probability bookkeeping: each post-selection stage renormalizes and
reports its own probability. success_prob (of DickeOutput, and of
CloneReport, the dense pipelines' four-field record) is the last stage's
probability: for scheme A the universal-cloner stage is a normalized source.
success_log10 is the log10 of the whole run's probability, every stage
included; it stays finite where success_prob underflows to 0.0 (scheme B
past P of about 1030).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, log, log10, pi

import numpy as np

from . import statekit as sk
from .statekit import BellKind, Ket, PlaneId
from .symmetry import (
    VanishingProjectionError,
    _hamming,
    dicke_coefficients,
    dicke_reduced_density,
    project_and_postselect,
)

DEFAULT_PROBE_PHASES = tuple(2 * np.pi * k / 8 for k in range(8))

# largest entry allowed off the m = 0 monomial of a two-qubit ancilla, and
# off the diagonal of flip_pauli, in the plane basis
MONOMIAL_TOL = 1e-15


# ---------------------------------------------------------------------------
# Dicke engine: a two-coefficient window in plane.basis, probabilities as log10


@dataclass(frozen=True)
class DickeOutput:
    """One run of the Dicke engine: its normalized symmetric M-qubit output,
    as a window, its stage probabilities and its clone fidelity.

    coeffs[i] is the amplitude of the Dicke state with offset + i of the
    num_qubits = M qubits in |psi_perp>, in plane.basis; every other amplitude
    is zero (the engine's window: offset P - 1, two entries). stage_log10 is
    the kernel's (see ``SchemeKernel``). fidelity is every clone's fidelity
    with the input, one number, as the output is symmetric.
    """

    plane: PlaneId
    num_qubits: int
    offset: int
    coeffs: np.ndarray
    stage_log10: dict
    fidelity: float

    def __post_init__(self):
        if not 0 <= self.fidelity <= 1 + 1e-12:
            raise ValueError("fidelity must lie in [0, 1]")

    @property
    def success_prob(self):
        """The last stage's probability (see the module docstring)."""
        return 10 ** self.stage_log10["final"]

    @property
    def success_log10(self):
        """log10 of the whole run's probability, every stage included."""
        return sum(self.stage_log10.values())


@dataclass(frozen=True)
class SchemeKernel:
    """One scheme at (plane, P) without its input (a0, a1), which ``output``
    applies. Both schemes output common (a0 |D_{P-1}> + a1 |D_P>) in
    plane.basis, where common = |common| phase_common is the ancilla power
    (t01 + t10)^(P-1) over sqrt(C(M, P)) = sqrt(C(M, P-1)). stage_log10 maps
    each post-selection stage ("uqcm" for scheme A, then "final") to the log10
    of its probability for a normalized input, which is the same for every
    input (see ``scheme_kernel``).
    """

    scheme: str
    plane: PlaneId
    P: int
    phase_common: complex
    stage_log10: dict

    def __post_init__(self):
        if not all(-np.inf < value <= 1e-12 for value in self.stage_log10.values()):
            raise ValueError("log10 stage probabilities must be finite and <= 0")

    def output(self, a):
        """The normalized window a phase_common / |a| on D_{P-1}, D_P; a of
        shape (..., 2) applies the kernel to every input along the leading
        axes at once."""
        a = np.asarray(a, dtype=complex)
        norm_sq = (a.conj() * a).real.sum(axis=-1)
        return a * (self.phase_common / np.sqrt(norm_sq))[..., None]


@cache
def _flip_signs(plane):
    """The diagonal (d0, d1) = (+-1, -+1) of plane.flip_pauli in plane.basis, as ints."""
    b = plane.basis
    flip = b.conj().T @ plane.flip_pauli @ b
    signs = np.rint(flip.diagonal().real)
    if np.max(np.abs(flip - np.diag(signs))) > MONOMIAL_TOL:
        raise ValueError(f"flip_pauli is not diagonal in the {plane.value} basis")
    return tuple(int(s) for s in signs)


def _pair_table(plane, ket, name):
    """Amplitudes t[i, j] of a two-qubit ancilla in plane.basis; it must be the
    m = 0 state, t00 = t11 = 0, for its polynomial to be a monomial."""
    inv = plane.basis.conj().T
    table = inv @ ket.amplitudes.reshape(2, 2) @ inv.T
    off = max(abs(table[0, 0]), abs(table[1, 1]))
    if off > MONOMIAL_TOL:
        raise ValueError(f"{name} is not a monomial in the {plane.value} basis (off entry {off:.1e})")
    return table


def _ln_binom_m_p(P):
    """ln C(2P-1, P) = ln C(M, P) in O(1): exact below P = 64, else Stirling's
    series for ln C(2P, P) - ln 2, whose next term, 17/(14336 P^7), is below
    3e-16 there (lgamma(2P) - lgamma(P+1) - lgamma(P) rounds ~2 log2(2P) times worse)."""
    if P < 64:
        return log(comb(2 * P - 1, P))
    x = 1 / P
    return (2 * P - 1) * log(2) - 0.5 * log(pi * P) + x * (-1 / 8 + x * x * (1 / 192 - x * x / 640))


def scheme_kernel(scheme, plane, P):
    """The SchemeKernel of scheme "A" or "B" at (plane, P), P >= 2, in O(1).

    With s marking a qubit in |psi_perp> on the input's side of each ancilla
    pair and u on the other side, the input times the P-1 ancillas is
    (a0 + a1 s)(alpha u + beta s)^(P-1), alpha = t01 and beta = t10 of the
    ancilla table: scheme B's Bell ancilla, or scheme A's singlet with the
    NOT already applied to its anticlone u. The final projection sets s = u = x,
    so by the binomial theorem the output is (a0 + a1 x)(alpha + beta)^(P-1) x^(P-1),
    and c_k = coeff_k / sqrt(C(M, k)). Scheme A's universal-cloner stage first
    projects the P clones alone; with w_m = C(P-1, m) beta^m alpha^(P-1-m) it
    keeps sum_m |w_m|^2 / C(P-1, m) (|a0|^2 / C(P, m) + |a1|^2 / C(P, m+1)). For
    |alpha| = |beta|, as for the singlet in every plane, both inner sums are
    (P+1)/2 |alpha|^(2(P-1)), so the stage keeps (P+1)/2^P of a normalized
    input; a table with |alpha| != |beta| raises ValueError.
    """
    if scheme not in ("A", "B"):
        raise ValueError("scheme must be 'A' or 'B'")
    if P < 2:
        raise ValueError("P must be >= 2")
    sk._check_capacity(2 * P)
    if scheme == "A":
        # the NOT on the anticlone multiplies its column by the flip's diagonal
        pair = _pair_table(plane, sk.bell_state(BellKind.PsiMinus), "the singlet") * _flip_signs(plane)
    else:
        pair = _pair_table(plane, sk.bell_state(plane.bell_kind), "the Bell ancilla")
    alpha, beta = pair[0, 1], pair[1, 0]
    # a base cancelling to below 1e-7 of its terms (1e-14 in probability) has vanished
    if abs(alpha + beta) <= 1e-7 * (abs(alpha) + abs(beta)):
        raise VanishingProjectionError("the projection onto the symmetric subspace vanished")
    # ln of the whole run's probability, |common|^2
    ln_total = 2 * ((P - 1) * np.log(abs(alpha + beta)) - 0.5 * _ln_binom_m_p(P))
    phase_common = np.exp(1j * (P - 1) * np.angle(alpha + beta))
    if scheme == "B":
        return SchemeKernel("B", plane, P, phase_common, {"final": float(ln_total / log(10))})
    if abs(abs(alpha) - abs(beta)) > 1e-12:
        raise ValueError(f"the universal-cloner stage needs |t01| = |t10|, got {abs(alpha):.3e}, {abs(beta):.3e}")
    ln_uqcm = np.log((P + 1) / 2) + 2 * (P - 1) * np.log(abs(alpha))
    stages = {"uqcm": float(ln_uqcm / log(10)), "final": float((ln_total - ln_uqcm) / log(10))}
    return SchemeKernel("A", plane, P, phase_common, stages)


def _equatorial_input(theta):
    """equatorial_state(plane, theta) in plane.basis, (1, e^{i theta})/sqrt2 in
    every plane; an array of phases gives one row per phase."""
    return np.exp(np.multiply.outer(theta, (0, 1j))) / np.sqrt(2)


def run_kernel(kernel, input_phase):
    """The kernel's scheme on one input phase, as a DickeOutput, in plane.basis."""
    P, a = kernel.P, _equatorial_input(input_phase)
    coeffs = kernel.output(a)
    fid = sk.fidelity(dicke_reduced_density(coeffs, offset=P - 1, num_qubits=2 * P - 1), Ket(1, a))
    return DickeOutput(kernel.plane, 2 * P - 1, P - 1, coeffs, kernel.stage_log10, fid)


def dicke_rotation(angle, M, k):
    """PhaseRotation(plane, angle) on all M qubits, in any plane, as the diagonal
    it is on Dicke coefficients in plane.basis, at the Dicke indices k: R is
    diag(e^{-i angle/2}, e^{i angle/2}) there, so |D_k> takes e^{-i angle (M-2k)/2}.
    M - 2k is formed in integers before it meets the angle; on the window
    k = P-1, P it is +1 and -1 at any M. An array of angles gives one row per angle.
    """
    return np.exp(-0.5j * np.multiply.outer(angle, M - 2 * np.asarray(k)))


# ---------------------------------------------------------------------------
# Dense pipelines: the engine's oracle


@dataclass(frozen=True)
class CloneReport:
    """Structured result of one dense cloning run: the M = 2P - 1 clone
    fidelities, all equal as the output is symmetric.

    success_prob is the last post-selection stage's probability and
    success_log10 the log10 of the whole run's (see the module docstring).
    """

    scheme: str
    per_clone_fidelity: list
    success_prob: float
    success_log10: float

    def __post_init__(self):
        if self.scheme not in ("A", "B"):
            raise ValueError("scheme must be 'A' or 'B'")
        if len(self.per_clone_fidelity) < 3 or len(self.per_clone_fidelity) % 2 == 0:
            raise ValueError("need an odd number of clone fidelities, at least 3")
        if not 0 <= min(self.per_clone_fidelity) <= max(self.per_clone_fidelity) <= 1 + 1e-12:
            raise ValueError("fidelities must lie in [0, 1]")
        if not 0 <= self.success_prob <= 1 + 1e-12:
            raise ValueError("success probability must lie in [0, 1]")
        if not -np.inf < self.success_log10 <= 1e-12:
            raise ValueError("log10 success probability must be finite and <= 0")


def uqcm(input_ket, P):
    """Optimal universal 1 -> P cloner by symmetrization with singlet ancillas,
    as (normalized state, success probability).

    Qubit layout of the state: the P clones (input + P-1 ancillas) first, then
    the P-1 anticlone qubits.
    """
    if P < 2:
        raise ValueError("P must be >= 2")
    if abs(input_ket.norm_sq - 1) > 1e-10:
        raise ValueError("input must be normalized")
    singlet = sk.bell_state(BellKind.PsiMinus)
    # interleaved layout S, A1, B1, A2, B2, ... -> S, A..., B...
    order = [0] + [1 + 2 * i for i in range(P - 1)] + [2 + 2 * i for i in range(P - 1)]
    state = sk.permute_qubits(sk.tensor_all([input_ket] + [singlet] * (P - 1)), order)
    _, success, normalized = project_and_postselect(state, list(range(P)))
    return normalized, success


def _flip_trailing(op, m, state):
    """A diagonal or off-diagonal 2x2 op (a Pauli) on each of the state's last
    m qubits, in one pass. Qubit by qubit, op maps |b> to op[b', b] |b'>, so
    an amplitude whose last m bits have weight w takes op[0,0]^(m-w) op[1,1]^w
    (diagonal), or takes op[1,0]^(m-w) op[0,1]^w and moves to the index with
    those m bits flipped, which reverses the trailing 2^m index (off-diagonal)."""
    flip = op[0, 0] == 0
    a, b = (op[1, 0], op[0, 1]) if flip else (op[0, 0], op[1, 1])
    scale = np.array([a ** (m - w) * b ** w for w in range(m + 1)])[_hamming(m)[0]]
    psi = state.amplitudes.reshape(-1, 2 ** m)
    if flip:
        psi, scale = psi[:, ::-1], scale[::-1]
    return Ket(state.num_qubits, (psi * scale).reshape(-1))


def _symmetrized_report(scheme, target, state, earlier_log10=0.0):
    """Both schemes' last stage: project every qubit of state onto the symmetric
    subspace and read the clone fidelity with target, as (CloneReport, final).
    earlier_log10 is the log10 of the earlier stages' probability."""
    M = state.num_qubits
    _, success, final = project_and_postselect(state, list(range(M)))
    fid = sk.fidelity(dicke_reduced_density(dicke_coefficients(final)), target)
    return CloneReport(scheme, [fid] * M, success, earlier_log10 + log10(success)), final


def pqcm_scheme_a(input_phase, plane, P):
    """Universal cloner + in-plane NOT on anticlones + full symmetrization."""
    target = sk.equatorial_state(plane, input_phase)
    state, success = uqcm(target, P)
    # rebinding drops the universal cloner's ket before the final stage
    state = _flip_trailing(plane.flip_pauli, P - 1, state)
    return _symmetrized_report("A", target, state, log10(success))


def pqcm_scheme_b(input_phase, plane, P):
    """Direct symmetrization of the input with P-1 plane-matched Bell pairs."""
    if P < 2:
        raise ValueError("P must be >= 2")
    target = sk.equatorial_state(plane, input_phase)
    bell = sk.bell_state(plane.bell_kind)
    return _symmetrized_report("B", target, sk.tensor_all([target] + [bell] * (P - 1)))


def covariance_defect(kernel, probe_phases=DEFAULT_PROBE_PHASES):
    """Max trace distance between rotate-then-clone and clone-then-rotate.

    Each probe phase is cloned once by the kernel's scheme, on its plane and
    at its P, and the output at theta_b is compared with the output at
    theta_a rotated by theta_b - theta_a for every pair.
    As R(x) R(y) = R(x + y) and the trace distance is unitarily invariant,
    D(out_b, R(theta_b - theta_a) out_a) = D(R(-theta_b) out_b, R(-theta_a) out_a),
    so each output is rotated back once, by its own phase, before the pairs.
    The probes go through the kernel as one batch of inputs, are rotated on
    their two-entry window only, and every pair's distance comes from one
    broadcast call, so a call costs O(n^2) in the n probes and O(1) in M.
    """
    if not probe_phases:
        raise ValueError("probe list must be nonempty")
    P, theta = kernel.P, np.asarray(probe_phases, dtype=float)
    coeffs = kernel.output(_equatorial_input(theta))
    back = dicke_rotation(-theta, 2 * P - 1, (P - 1, P)) * coeffs
    distance = sk.pure_trace_distance(back[:, None], back[None, :])
    return float(np.max(distance, where=~np.eye(len(theta), dtype=bool), initial=0.0))

