"""Correctness checks for the benchmark's operations.

Every expected value is computed here from a closed form, never read back
from a saved copy of the program's output. A check raises CheckFailed when
the program's output disagrees.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, sqrt

import numpy as np

FIDELITY_TOL = 1e-10
SUCCESS_TOL = 1e-10
OVERLAP_TOL = 1e-12
COVARIANCE_TOL = 1e-10
OPA_TOL = 1e-10


class CheckFailed(Exception):
    """The program returned a value that disagrees with the closed form."""


def optimal_fidelity(M):
    """Per-clone fidelity of the optimal 1->M phase-covariant cloner, odd M."""
    return Fraction(3 * M + 1, 4 * M)


def scheme_a_success(P):
    """Final-stage post-selection probability of scheme A."""
    return sum(
        Fraction(2, P + 1) * Fraction(comb(P - 1, k) ** 2, comb(2 * P - 1, 2 * k))
        for k in range(P)
    )


def scheme_b_success(P):
    """Post-selection probability of scheme B."""
    return Fraction(2 ** (P - 1), comb(2 * P - 1, P))


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_fidelities(fids, M):
    _expect(len(fids) == M, f"expected {M} clone fidelities, got {len(fids)}")
    want = float(optimal_fidelity(M))
    worst = max(abs(f - want) for f in fids)
    _expect(worst <= FIDELITY_TOL, f"M={M}: clone fidelity off by {worst:.3e}")


def check_success(success, P, scheme):
    want = float(scheme_a_success(P) if scheme == "A" else scheme_b_success(P))
    _expect(
        abs(success - want) <= SUCCESS_TOL,
        f"P={P} scheme {scheme}: success {success!r}, closed form {want!r}",
    )


def check_clone_point(M, report_a, state_a, report_b, state_b):
    """Both schemes at one (M, plane, phase) point, and their agreement."""
    P = (M + 1) // 2
    for scheme, report in (("A", report_a), ("B", report_b)):
        check_fidelities(report.per_clone_fidelity, M)
        check_success(report.success_prob, P, scheme)
    overlap = abs(np.vdot(state_a.amplitudes, state_b.amplitudes)) ** 2
    _expect(overlap >= 1 - OVERLAP_TOL, f"M={M}: |<A|B>|^2 = {overlap!r}")


def check_simulate(exit_code, payload, M, scheme):
    _expect(exit_code == 0, f"simulate exited {exit_code}")
    _expect(payload["M"] == M and payload["scheme"] == scheme, "simulate echoed other settings")
    check_fidelities(payload["per_clone_fidelity"], M)
    check_success(payload["success_prob"], (M + 1) // 2, scheme)
    defect = payload["covariance_defect"]
    _expect(0 <= defect <= COVARIANCE_TOL, f"M={M}: covariance defect {defect!r}")


def check_sweep(exit_code, payload, max_m):
    _expect(exit_code == 0, f"fidelity-sweep exited {exit_code}")
    rows = payload["rows"]
    want_ms = list(range(3, max_m + 1, 2))
    _expect(len(rows) == len(want_ms), f"expected {len(want_ms)} rows, got {len(rows)}")
    for row, M in zip(rows, want_ms):
        _expect(row["M"] == M, f"row for M={M} reads M={row['M']}")
        _expect(
            Fraction(row["gamma_exact"]) == optimal_fidelity(M),
            f"M={M}: gamma_exact {row['gamma_exact']} != {optimal_fidelity(M)}",
        )


def check_verify(exit_code):
    _expect(exit_code == 0, f"verify exited {exit_code}")


def check_opa(exit_code, payload):
    _expect(exit_code == 0, f"opa exited {exit_code}")
    a30 = complex(*payload["first_order_amp_30"])
    a12 = complex(*payload["first_order_amp_12"])
    _expect(a12 != 0, "first-order (1,2) amplitude is zero")
    ratio = abs(a30) / abs(a12)
    _expect(abs(ratio - sqrt(3)) <= OPA_TOL, f"|a30/a12| = {ratio!r}, want sqrt(3)")
    fid = payload["reduced_fidelity"]
    _expect(abs(fid - 5 / 6) <= OPA_TOL, f"reduced fidelity {fid!r}, want 5/6")


def photon_target(phase):
    """Single photon in the mode (a_H^dag + e^{i phase} a_V^dag)/sqrt2."""
    return np.array([1, np.exp(1j * phase)]) / sqrt(2)


def check_sector(rho, phase, N):
    """Single-photon fidelity of the normalized N-photon amplifier sector."""
    target = photon_target(phase)
    fid = float(np.vdot(target, rho @ target).real)
    want = float(optimal_fidelity(N))
    _expect(abs(fid - want) <= FIDELITY_TOL, f"N={N}: fidelity off by {abs(fid - want):.3e}")
