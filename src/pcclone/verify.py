"""Invariant suites behind the ``verify`` CLI command.

Each check returns (name, measured defect, threshold); a check passes when
the defect is at or below its threshold. Exact-arithmetic checks report a
defect of 0.0 or 1.0.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb, lcm, log10

import numpy as np

from . import statekit as sk
from . import symmetry as sym
from .angular import (
    _ladder_triples,
    _racah,
    b_coef,
    central_binomials,
    d_coef,
    d_coef_via_cg,
    fidelity_formula,
    gamma,
    gamma_closed_form,
    projection_norm_sq,
)
from .cloner import (
    DEFAULT_PROBE_PHASES,
    covariance_defect,
    dicke_scheme_a,
    dicke_scheme_b,
    pqcm_scheme_a,
    pqcm_scheme_b,
    scheme_equivalence_defect,
    scheme_kernel,
)
from . import opa


def _exact(flag):
    return 0.0 if flag else 1.0


def angular_checks():
    checks = []
    # CG orthogonality: sum over J of cg^2 = 1, exact, on Racah triples (sign, n, d)
    ortho_ok = True
    for tj1 in range(0, 7):
        for tj2 in range(0, 7):
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    tM = tm1 + tm2
                    squares = [_racah(tj1, tj2, tm1, tm2, tJ, tM)[1:]
                               for tJ in range(max(abs(tj1 - tj2), abs(tM)), tj1 + tj2 + 1, 2)]
                    common = lcm(*(d for _, d in squares))
                    ortho_ok &= sum(n * (common // d) for n, d in squares) == common
    checks.append(("cg orthogonality (2j <= 6) exact", _exact(ortho_ok), 0.0))

    # both sides reduced, so equal triples are equal coefficients
    ladder_ok = True
    for tj1 in range(0, 11):
        for tj2 in range(0, 11 - tj1):
            for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                tables = list(_ladder_triples(tj1, tj2, tJ))
                ladder_ok &= [tM for tM, _ in tables] == list(range(tJ, -tJ - 1, -2))
                for tM, table in tables:
                    for tm1 in range(max(-tj1, tM - tj2), min(tj1, tM + tj2) + 1, 2):
                        ladder_ok &= (_racah(tj1, tj2, tm1, tM - tm1, tJ, tM)
                                      == table.get(tm1, (0, 0, 1)))
    checks.append(("cg closed form == ladder oracle (2j <= 10)", _exact(ladder_ok), 0.0))

    d_ok = all(
        d_coef(P, k) == d_coef_via_cg(P, k)
        for P in range(1, 21) for k in range(P)
    )
    checks.append(("d_k closed form == b_k x CG (P <= 20)", _exact(d_ok), 0.0))

    b_ok = all(
        sum((b_coef(P, k).square() for k in range(P)), Fraction(0)) == 1
        for P in range(1, 51)
    )
    checks.append(("sum b_k^2 = 1 (P <= 50)", _exact(b_ok), 0.0))

    table = []  # C(2n, n), grown by one entry per P and shared by the two loops below
    norms = {P: projection_norm_sq(P, central_binomials(P, table)) for P in range(1, 301)}
    norm_ok = all(n == Fraction(4 ** P, (P + 1) * comb(2 * P, P)) for P, n in norms.items())
    checks.append(("projection_norm_sq == 4^P/((P+1) C(2P,P)) (P <= 300)", _exact(norm_ok), 0.0))
    # scheme A: UQCM stage (P+1)/2^P, then the projection; scheme B: one stage
    total_ok = all(
        Fraction(P + 1, 2 ** P) * n == Fraction(2 ** (P - 1), comb(2 * P - 1, P))
        for P, n in norms.items()
    )
    checks.append(("scheme A success == scheme B 2^(P-1)/C(2P-1,P) (P <= 300)", _exact(total_ok), 0.0))

    g_ok = all(gamma(P, table) == gamma_closed_form(P) for P in range(1, 202))
    checks.append(("gamma(P) == closed form (P <= 201)", _exact(g_ok), 0.0))

    rel_ok = all(
        fidelity_formula("cov_odd", 1, M) - fidelity_formula("phase_estimation", 1)
        == Fraction(1, 4 * M)
        for M in range(1, 40, 2)
    )
    checks.append(("cov_odd - phase_estimation == 1/(4M)", _exact(rel_ok), 0.0))
    return checks


def symmetry_checks():
    checks = []
    rng = np.random.default_rng(7)
    for n in (2, 3, 4):
        ref = sym.symmetric_projector(n)
        # random rotated basis pair
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        basis = np.array(
            [[np.cos(theta), -np.exp(-1j * phi) * np.sin(theta)],
             [np.exp(1j * phi) * np.sin(theta), np.cos(theta)]]
        )
        rot = sym.symmetric_projector(n, basis)
        checks.append(
            (f"projector basis independence n={n}", float(np.max(np.abs(ref - rot))), 1e-12)
        )
        worst = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                swap = _transposition(n, i, j)
                worst = max(
                    worst,
                    float(np.max(np.abs(swap @ ref - ref))),
                    float(np.max(np.abs(ref @ swap - ref))),
                )
        checks.append((f"projector permutation invariance n={n}", worst, 1e-12))
        rank = int((np.linalg.eigvalsh(ref) > 0.5).sum())
        checks.append((f"projector rank n={n} equals n+1", _exact(rank == n + 1), 0.0))

        amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
        psi = sk.Ket(n, amps).normalized()
        _, success, _ = sym.project_and_postselect(psi, list(range(n)))
        dicke_sum = sum(
            abs(sym.dicke_state(sym.DickeLabel(n, k)).overlap(psi)) ** 2
            for k in range(n + 1)
        )
        checks.append((f"dicke-weight vs projection prob n={n}", abs(success - dicke_sum), 1e-12))

        worst = 0.0
        for _ in range(8):
            k = int(rng.integers(1, n + 1))
            subset = [int(q) for q in rng.permutation(n)[:k]]
            amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            psi = sk.Ket(n, amps).normalized()
            dense = sk.apply(sym.symmetric_projector(k), subset, psi)
            fast = sym.symmetrize(psi, subset)
            worst = max(worst, float(np.max(np.abs(fast.amplitudes - dense.amplitudes))))
        checks.append((f"matrix-free projection == dense projector n={n}", worst, 1e-14))
    for P in (2, 3):
        checks.append((f"concatenation defect P={P}", sym.concatenation_defect(P), 1e-12))
    return checks


def _transposition(n, i, j):
    dim = 2 ** n
    mat = np.zeros((dim, dim))
    for idx in range(dim):
        bi = (idx >> (n - 1 - i)) & 1
        bj = (idx >> (n - 1 - j)) & 1
        swapped = idx & ~(1 << (n - 1 - i)) & ~(1 << (n - 1 - j))
        swapped |= bj << (n - 1 - i) | bi << (n - 1 - j)
        mat[swapped, idx] = 1
    return mat


def cloner_checks():
    checks = []
    phases = DEFAULT_PROBE_PHASES
    for P in (2, 3):
        M = 2 * P - 1
        opt = float(fidelity_formula("cov_odd", 1, M))
        for plane in sk.PlaneId:
            worst_fid = 0.0
            worst_pair = 0.0
            worst_offdiag = 0.0
            for theta in phases:
                for run in (pqcm_scheme_a, pqcm_scheme_b):
                    report, final = run(theta, plane, P)
                    worst_fid = max(
                        worst_fid, max(abs(f - opt) for f in report.per_clone_fidelity)
                    )
                    reds = [sk.partial_trace(final, [q]).matrix for q in range(M)]
                    for a in range(M):
                        for b in range(a + 1, M):
                            worst_pair = max(worst_pair, float(np.max(np.abs(reds[a] - reds[b]))))
                    target = sk.equatorial_state(plane, theta)
                    perp = sk.equatorial_orthogonal(plane, theta)
                    off = np.vdot(target.amplitudes, reds[0] @ perp.amplitudes)
                    worst_offdiag = max(worst_offdiag, abs(off))
            checks.append((f"per-clone fidelity optimal P={P} {plane.value}", worst_fid, 1e-10))
            checks.append((f"reduced matrices identical P={P} {plane.value}", worst_pair, 1e-10))
            checks.append((f"reduced state diagonal in-plane P={P} {plane.value}", worst_offdiag, 1e-10))
            checks.append(
                (f"covariance defect P={P} {plane.value}",
                 covariance_defect(scheme_kernel("A", plane, P), phases[:4]), 1e-10)
            )
            checks.append(
                (f"scheme equivalence P={P} {plane.value}",
                 scheme_equivalence_defect(plane, P), 1e-12)
            )
    return checks + engine_checks()


def _log10(fraction):
    return log10(fraction.numerator) - log10(fraction.denominator)


def engine_checks():
    """The Dicke engine against the dense oracle and the closed forms F1, F2."""
    checks = []
    pairs = ((dicke_scheme_a, pqcm_scheme_a), (dicke_scheme_b, pqcm_scheme_b))
    phases = (0.0, 0.9, 4.1)
    for plane in sk.PlaneId:
        worst = 0.0
        for P in range(2, 8):
            for theta in phases:
                for engine, dense in pairs:
                    report, out = engine(theta, plane, P)
                    ref, ket = dense(theta, plane, P)
                    ref_coeffs = sym.dicke_coefficients(ket, plane.basis)
                    worst = max(
                        worst,
                        1 - abs(np.vdot(ref_coeffs, out.coeffs)),
                        abs(report.success_prob - ref.success_prob),
                        abs(report.success_log10 - ref.success_log10),
                        abs(report.per_clone_fidelity[0] - ref.per_clone_fidelity[0]),
                    )
        checks.append((f"Dicke engine == dense oracle (M <= 13) {plane.value}", worst, 1e-12))

    sizes = (*range(2, 8), 301, 1001)
    off_weight = pair_defect = 0.0
    stage_defect = {"uqcm": 0.0, "final": 0.0, "total": 0.0}
    for P in sizes:
        plane = list(sk.PlaneId)[P % 3]
        uqcm_stage = _log10(Fraction(P + 1, 2 ** P))
        final_stage = _log10(projection_norm_sq(P)) if P <= 301 else None
        total = _log10(Fraction(2 ** P, comb(2 * P, P)))
        for engine in (dicke_scheme_a, dicke_scheme_b):
            report, out = engine(0.9, plane, P)
            # F1: (|D_{P-1}> + e^{i phase}|D_P>)/sqrt2 in the plane basis
            weights = np.abs(out.coeffs) ** 2
            off_weight = max(off_weight, weights[: P - 1].sum() + weights[P + 1:].sum())
            pair_defect = max(pair_defect, *(abs(w - 0.5) for w in weights[P - 1:P + 1]))
            stage_defect["total"] = max(
                stage_defect["total"], abs(report.success_log10 / total - 1))
            if "uqcm" in out.stage_log10:
                stage_defect["uqcm"] = max(
                    stage_defect["uqcm"], abs(out.stage_log10["uqcm"] / uqcm_stage - 1))
                if final_stage is not None:
                    stage_defect["final"] = max(
                        stage_defect["final"], abs(out.stage_log10["final"] / final_stage - 1))
    checks.append(("F1 engine weight off D_{P-1}, D_P (P <= 1001)", off_weight, 1e-30))
    checks.append(("F1 engine |c_{P-1}|^2 = |c_P|^2 = 1/2 (P <= 1001)", pair_defect, 1e-12))
    checks.append(("F2 UQCM stage log10 (P+1)/2^P, relative (P <= 1001)", stage_defect["uqcm"], 1e-12))
    checks.append(("F2 final stage log10 projection_norm_sq(P), relative (P <= 301)",
                   stage_defect["final"], 1e-12))
    checks.append(("F2 total log10 2^P/C(2P,P), both schemes, relative (P <= 1001)",
                   stage_defect["total"], 1e-12))
    return checks


def opa_checks():
    checks = []
    cutoff = 6
    # H in the {phi, phi_perp} pair and then a change to HV, against a change
    # to HV and then H there, on random states on N <= c-2 (kept under the cutoff)
    rng = np.random.default_rng(11)
    idx = np.arange((cutoff + 1) ** 2)
    low = idx // (cutoff + 1) + idx % (cutoff + 1) <= cutoff - 2
    worst = 0.0
    for phi in (0.0, np.pi / 3, np.pi / 2, 1.2):
        amps = low * (rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size))
        state = opa.FockVec(cutoff, amps / np.linalg.norm(amps), phi)
        h_amps = opa.hamiltonian_in_rotated_modes(cutoff, phi) @ state.amplitudes
        via_rotated = opa.change_mode_basis(opa.FockVec(cutoff, h_amps, phi), "HV").amplitudes
        via_hv = opa.build_hamiltonian(cutoff) @ opa.change_mode_basis(state, "HV").amplitudes
        worst = max(worst, float(np.max(np.abs(via_rotated - via_hv))))
    checks.append(("rotated Hamiltonian form invariance", worst, 1e-12))

    worst = 0.0
    for phi in (0.0, 0.7, np.pi / 2, 2.5, 4.0, 5.5, 1.1, 3.3):
        out = opa.first_order_output(phi, cutoff)
        ratio = out.amplitude(1, 2) / out.amplitude(3, 0)
        expected = -np.sqrt(2 / 6) * np.exp(2j * phi)
        worst = max(worst, abs(ratio - expected))
    checks.append(("first-order amplitude ratio -sqrt(1/3) e^{2i phi}", worst, 1e-10))

    out = opa.first_order_output(0.3, cutoff)
    rho = opa.photon_reduced_density(out)
    target = sk.Ket(1, np.array([1, np.exp(1j * 0.3)]) / np.sqrt(2))
    checks.append(("first-order reduced fidelity 5/6", abs(sk.fidelity(rho, target) - 5 / 6), 1e-9))

    # roomier cutoff: the perturbative flow from 1 photon must fit well below it
    injected = opa.fock_state(10, 1, 0, mode_basis=0.2)
    prev = 1.0
    mono = True
    deficit = None
    for order in range(1, 13):
        evolved, _ = opa.evolve(injected, 0.1, order)
        deficit = abs(1 - evolved.norm_sq)
        mono &= deficit <= prev + 1e-15
        prev = deficit
    checks.append(("series norm deficit monotone, order 12 deficit", deficit if mono else 1.0, 1e-10))
    return checks


SUITES = {
    "angular": angular_checks,
    "symmetry": symmetry_checks,
    "cloner": cloner_checks,
    "opa": opa_checks,
}


def run_suite(name):
    """(rows, elapsed): the (check name, defect, threshold, passed) rows of a
    suite, or of every suite for "all", and each suite's wall time in seconds."""
    rows, elapsed = [], {}
    for suite in list(SUITES) if name == "all" else [name]:
        start = time.perf_counter()
        checks = SUITES[suite]()
        elapsed[suite] = time.perf_counter() - start
        # bool(): a numpy defect's comparison is a numpy bool, which json cannot write
        rows += [(f"{suite}: {check}", defect, threshold, bool(defect <= threshold))
                 for check, defect, threshold in checks]
    return rows, elapsed
