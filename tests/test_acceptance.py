"""End-to-end acceptance checks, one per published anchor.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all;
failures surface through the assertion either way).
"""

import time
from fractions import Fraction

import numpy as np

from pcclone.angular import (
    cg,
    d_coef,
    d_coef_via_cg,
    fidelity_formula,
    gamma,
    gamma_closed_form,
)
from pcclone.cloner import (
    covariance_defect,
    pqcm_scheme_a,
    pqcm_scheme_b,
    scheme_kernel,
    uqcm,
)
from pcclone.opa import (
    FockVec,
    build_hamiltonian,
    change_mode_basis,
    first_order_output,
    hamiltonian_in_rotated_modes,
    photon_reduced_density,
)
from pcclone.statekit import Ket, PlaneId, equatorial_state, fidelity, partial_trace
from pcclone.symmetry import concatenation_defect

PLANES = list(PlaneId)


def _report(num, description, ok):
    print(f"\n{'PASS' if ok else 'FAIL'}  criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_one_to_three_scheme_a():
    start = time.perf_counter()
    worst_fid = 0.0
    worst_prob = 0.0
    for theta in np.linspace(0, 2 * np.pi, 16, endpoint=False):
        report, _ = pqcm_scheme_a(theta, PlaneId.XZ, 2)
        worst_fid = max(worst_fid, *(abs(f - 5 / 6) for f in report.per_clone_fidelity))
        worst_prob = max(worst_prob, abs(report.success_prob - 8 / 9))
    elapsed = time.perf_counter() - start
    ok = worst_fid < 1e-10 and worst_prob < 1e-10 and elapsed < 1.0
    _report(
        1,
        f"1->3 scheme A over 16 XZ phases: |F - 5/6| <= {worst_fid:.2e}, "
        f"|p - 8/9| <= {worst_prob:.2e}, {elapsed:.2f} s",
        ok,
    )


def test_criterion_2_scheme_equivalence():
    start = time.perf_counter()
    phases = tuple(np.linspace(0, 2 * np.pi, 8, endpoint=False))
    worst = max(
        1 - abs(pqcm_scheme_a(theta, plane, P)[1].overlap(pqcm_scheme_b(theta, plane, P)[1])) ** 2
        for P in (2, 3)
        for plane in PLANES
        for theta in phases
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _report(
        2,
        f"scheme A/B output overlap >= 1 - {worst:.2e} "
        f"(P in {{2,3}}, 3 planes, 8 phases, {elapsed:.2f} s)",
        ok,
    )


def test_criterion_3_optimal_fidelity_all_m():
    start = time.perf_counter()
    worst = 0.0
    for M in (3, 5, 7):
        P = (M + 1) // 2
        target = 0.5 * (1 + (M + 1) / (2 * M))
        for run in (pqcm_scheme_a, pqcm_scheme_b):
            report, _ = run(0.7, PlaneId.XZ, P)
            worst = max(worst, *(abs(f - target) for f in report.per_clone_fidelity))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    _report(
        3,
        f"per-clone fidelity matches (1/2)(1+(M+1)/2M) for M in {{3,5,7}}, "
        f"both schemes, within {worst:.2e} ({elapsed:.2f} s)",
        ok,
    )


def test_criterion_4_gamma_identity_large_m():
    start = time.perf_counter()
    ok = all(gamma(P) == gamma_closed_form(P) for P in range(1, 1002))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(
        4,
        f"gamma(P) == closed form exactly for every odd M <= 2001 ({elapsed:.2f} s)",
        ok,
    )


def test_criterion_5_coefficient_theory():
    start = time.perf_counter()
    routes = all(
        d_coef(P, k) == d_coef_via_cg(P, k) for P in range(1, 21) for k in range(P)
    )
    norm = sum((d_coef(2, k).square() for k in range(2)), Fraction(0)) == Fraction(8, 9)
    ortho = True
    for tj1 in range(0, 11):
        for tj2 in range(0, 11 - tj1):
            for tm1 in range(-tj1, tj1 + 1, 2):
                for tm2 in range(-tj2, tj2 + 1, 2):
                    lo = max(abs(tj1 - tj2), abs(tm1 + tm2))
                    total = sum(
                        (
                            cg(tj1, tj2, tm1, tm2, tJ, tm1 + tm2).square()
                            for tJ in range(lo, tj1 + tj2 + 1, 2)
                        ),
                        Fraction(0),
                    )
                    ortho &= total == 1
    elapsed = time.perf_counter() - start
    ok = routes and norm and ortho and elapsed < 5.0
    _report(
        5,
        f"d_k == b_k x CG for P <= 20; sum d_k^2 = 8/9 at P=2; "
        f"CG orthogonality exact for 2j <= 10 ({elapsed:.2f} s)",
        ok,
    )


def test_criterion_6_uqcm_stage():
    worst_clone = 0.0
    worst_anti = 0.0
    theta = 0.9
    target = equatorial_state(PlaneId.XZ, theta)
    from pcclone.statekit import equatorial_orthogonal

    flipped = equatorial_orthogonal(PlaneId.XZ, theta)
    for P in (2, 3):
        state, _ = uqcm(target, P)
        expected = (2 + 1 / P) / 3
        for q in range(P):
            worst_clone = max(
                worst_clone, abs(fidelity(partial_trace(state, [q]), target) - expected)
            )
        for q in range(P, 2 * P - 1):
            worst_anti = max(
                worst_anti, abs(fidelity(partial_trace(state, [q]), flipped) - 2 / 3)
            )
    ok = worst_clone < 1e-10 and worst_anti < 1e-10
    _report(
        6,
        f"UQCM clones at (2+1/P)/3 within {worst_clone:.2e}, "
        f"anticlones at 2/3 within {worst_anti:.2e} (P in {{2,3}})",
        ok,
    )


def test_criterion_7_covariance():
    worst = max(
        covariance_defect(scheme_kernel(scheme, plane, P))
        for P in (2, 3)
        for plane in PLANES
        for scheme in ("A", "B")
    )
    ok = worst <= 1e-10
    _report(7, f"covariance defect <= {worst:.2e} on the default grid", ok)


def test_criterion_8_concatenation():
    worst = max(concatenation_defect(P) for P in (2, 3))
    ok = worst <= 1e-12
    _report(8, f"projector concatenation defect <= {worst:.2e} for P in {{2,3}}", ok)


def test_criterion_9_opa():
    start = time.perf_counter()
    worst_ratio = 0.0
    worst_phase = 0.0
    worst_fid = 0.0
    for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        out = first_order_output(phi)
        a30, a12 = out.amplitude(3, 0), out.amplitude(1, 2)
        worst_ratio = max(worst_ratio, abs(abs(a30 / a12) - np.sqrt(3)))
        rel = a12 / a30 * -np.sqrt(3)
        worst_phase = max(worst_phase, abs(rel - np.exp(2j * phi)))
        target = Ket(1, np.array([1, np.exp(1j * phi)]) / np.sqrt(2))
        worst_fid = max(
            worst_fid, abs(fidelity(photon_reduced_density(out), target) - 5 / 6)
        )
    # H in the {phi, phi_perp} pair, then to HV == to HV, then H in HV, on a
    # random state on N <= cutoff - 2 that H keeps under the cutoff
    cutoff = 6
    rng = np.random.default_rng(9)
    idx = np.arange((cutoff + 1) ** 2)
    low = (idx // (cutoff + 1) + idx % (cutoff + 1)) <= cutoff - 2
    worst_h = 0.0
    for phi in np.linspace(0, 2 * np.pi, 8, endpoint=False):
        amps = low * (rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size))
        state = FockVec(cutoff, amps / np.linalg.norm(amps), phi)
        h_state = FockVec(cutoff, hamiltonian_in_rotated_modes(cutoff, phi) @ state.amplitudes, phi)
        via_hv = build_hamiltonian(cutoff) @ change_mode_basis(state, "HV").amplitudes
        worst_h = max(worst_h, np.max(np.abs(change_mode_basis(h_state, "HV").amplitudes - via_hv)))
    elapsed = time.perf_counter() - start
    ok = (
        worst_ratio < 1e-10 and worst_phase < 1e-10
        and worst_h < 1e-12 and worst_fid < 1e-9 and elapsed < 5.0
    )
    _report(
        9,
        f"OPA ratio sqrt3 within {worst_ratio:.2e}, relative phase e^(2i phi) within "
        f"{worst_phase:.2e}, Hamiltonian forms within {worst_h:.2e}, "
        f"reduced fidelity 5/6 within {worst_fid:.2e} ({elapsed:.2f} s)",
        ok,
    )


def test_criterion_10_formula_evaluator():
    checks = [
        (fidelity_formula("cov_odd", 1, 3), 0.833),
        (fidelity_formula("universal", 1, 2), 0.833),
        (fidelity_formula("universal", 1, 3), 0.778),
        (fidelity_formula("phase_estimation", 1), 0.75),
    ]
    ok = True
    for value, printed in checks:
        ok &= abs(float(value) - printed) < 5e-4 and isinstance(value, Fraction)
    ok &= fidelity_formula("cov_odd", 1, 3) == Fraction(5, 6)
    ok &= fidelity_formula("universal", 1, 2) == Fraction(5, 6)
    ok &= fidelity_formula("universal", 1, 3) == Fraction(7, 9)
    ok &= fidelity_formula("phase_estimation", 1) == Fraction(3, 4)
    _report(
        10,
        "formula evaluator reproduces 0.833 (two contexts) / 0.778 / 3/4, as exact Fractions",
        ok,
    )
