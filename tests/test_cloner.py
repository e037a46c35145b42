import random
from fractions import Fraction
from math import comb, log10

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcclone import cloner
from pcclone.angular import b_coef, d_coef, gamma, projection_norm_sq
from pcclone.cloner import (
    CloneReport,
    covariance_defect,
    dicke_rotation,
    dicke_scheme_a,
    dicke_scheme_b,
    pqcm_scheme_a,
    pqcm_scheme_b,
    scheme_equivalence_defect,
    scheme_kernel,
    uqcm,
)
from pcclone.statekit import (
    BellKind,
    Ket,
    PhaseRotation,
    PlaneId,
    apply,
    bell_state,
    equatorial_orthogonal,
    equatorial_state,
    fidelity,
    outer,
    partial_trace,
    phase_rotate,
    pure_trace_distance,
    same_up_to_phase,
    tensor,
    trace_distance,
)
from pcclone.symmetry import (
    DickeLabel,
    VanishingProjectionError,
    dicke_coefficients,
    dicke_state,
    project_and_postselect,
)

PLANES = list(PlaneId)


def plane_basis(plane, theta):
    """2x2 basis matrix with columns |phi>, |phi_perp> for a probe state."""
    phi = equatorial_state(plane, theta).amplitudes
    perp = equatorial_orthogonal(plane, theta).amplitudes
    return np.column_stack([phi, perp])


class TestUqcm:
    @pytest.mark.parametrize("P,clone_fid", [(2, 5 / 6), (3, 7 / 9)])
    def test_clone_fidelity(self, P, clone_fid):
        target = equatorial_state(PlaneId.XZ, 0.4)
        out = uqcm(target, P)
        for q in out.clone_qubits:
            assert abs(fidelity(partial_trace(out.state, [q]), target) - clone_fid) < 1e-10

    def test_anticlone_fidelity(self):
        theta = 1.7
        target = equatorial_state(PlaneId.XY, theta)
        flipped = equatorial_orthogonal(PlaneId.XY, theta)
        for P in (2, 3):
            out = uqcm(target, P)
            for q in out.anticlone_qubits:
                assert abs(fidelity(partial_trace(out.state, [q]), flipped) - 2 / 3) < 1e-10

    def test_works_off_equator(self):
        # universal: fidelity independent of the input state
        amps = np.array([np.cos(0.4), np.exp(0.3j) * np.sin(0.4)])
        from pcclone.statekit import Ket

        target = Ket(1, amps)
        out = uqcm(target, 2)
        for q in out.clone_qubits:
            assert abs(fidelity(partial_trace(out.state, [q]), target) - 5 / 6) < 1e-10

    def test_dicke_expansion_matches_b_coefficients(self):
        P = 2
        theta = 0.9
        plane = PlaneId.XZ
        target = equatorial_state(plane, theta)
        out = uqcm(target, P)
        basis = plane_basis(plane, theta)
        overlaps = []
        for k in range(P):
            clone_part = dicke_state(DickeLabel(P, k), basis)
            anti_part = dicke_state(DickeLabel(P - 1, P - 1 - k), basis)
            overlaps.append(tensor(clone_part, anti_part).overlap(out.state))
        lam = overlaps[0] / b_coef(P, 0).value()
        assert abs(abs(lam) - 1) < 1e-12
        for k in range(P):
            assert abs(overlaps[k] - lam * b_coef(P, k).value()) < 1e-12

    def test_requires_normalized_input(self):
        from pcclone.statekit import Ket

        with pytest.raises(ValueError):
            uqcm(Ket(1, np.array([2.0, 0.0])), 2)


class TestSchemeA:
    def test_1_to_3_anchors(self):
        for theta in np.linspace(0, 2 * np.pi, 7):
            report, _ = pqcm_scheme_a(theta, PlaneId.XZ, 2)
            assert all(abs(f - 5 / 6) < 1e-10 for f in report.per_clone_fidelity)
            assert abs(report.success_prob - 8 / 9) < 1e-10

    def test_1_to_5(self):
        report, _ = pqcm_scheme_a(0.3, PlaneId.XZ, 3)
        assert all(abs(f - 4 / 5) < 1e-10 for f in report.per_clone_fidelity)

    def test_success_matches_exact_norm(self):
        for P in (2, 3):
            report, _ = pqcm_scheme_a(1.1, PlaneId.YZ, P)
            assert abs(report.success_prob - float(projection_norm_sq(P))) < 1e-10

    def test_pre_projection_asymmetric_copies(self):
        theta = 0.6
        plane = PlaneId.XZ
        target = equatorial_state(plane, theta)
        out = uqcm(target, 2)
        state = apply(plane.flip_pauli, [2], out.state)
        fids = [fidelity(partial_trace(state, [q]), target) for q in range(3)]
        assert abs(fids[0] - 5 / 6) < 1e-10
        assert abs(fids[1] - 5 / 6) < 1e-10
        assert abs(fids[2] - 2 / 3) < 1e-10

    def test_projected_state_matches_d_coefficients(self):
        P = 3
        theta = 2.0
        plane = PlaneId.XZ
        target = equatorial_state(plane, theta)
        out = uqcm(target, P)
        state = out.state
        for q in out.anticlone_qubits:
            state = apply(plane.flip_pauli, [q], state)
        unnormalized, _, _ = project_and_postselect(state, list(range(2 * P - 1)))
        basis = plane_basis(plane, theta)
        overlaps = [
            dicke_state(DickeLabel(2 * P - 1, 2 * k), basis).overlap(unnormalized)
            for k in range(P)
        ]
        lam = overlaps[0] / d_coef(P, 0).value()
        assert abs(abs(lam) - 1) < 1e-12
        for k in range(P):
            assert abs(overlaps[k] - lam * d_coef(P, k).value()) < 1e-12


class TestSchemeB:
    def test_equals_scheme_a_state(self):
        _, out_a = pqcm_scheme_a(0.0, PlaneId.XZ, 2)
        _, out_b = pqcm_scheme_b(0.0, PlaneId.XZ, 2)
        assert abs(out_a.overlap(out_b)) ** 2 >= 1 - 1e-12

    @pytest.mark.parametrize("plane", PLANES)
    def test_optimal_on_own_plane(self, plane):
        report, _ = pqcm_scheme_b(0.0, plane, 2)
        assert all(abs(f - 5 / 6) < 1e-10 for f in report.per_clone_fidelity)

    def test_off_plane_input_is_suboptimal(self):
        # XZ-plane machine applied to an XY-plane probe
        from pcclone.statekit import bell_state

        theta = 1.2
        probe = equatorial_state(PlaneId.XY, theta)
        state = tensor(probe, bell_state(PlaneId.XZ.bell_kind))
        _, _, final = project_and_postselect(state, [0, 1, 2])
        fid = fidelity(partial_trace(final, [0]), probe)
        assert fid < 5 / 6 - 1e-3


class TestCloneFidelities:
    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("run", [pqcm_scheme_a, pqcm_scheme_b])
    def test_match_per_qubit_partial_trace(self, plane, run):
        for P in range(2, 8):
            report, final = run(0.4 + P, plane, P)
            target = equatorial_state(plane, 0.4 + P)
            for q, f in enumerate(report.per_clone_fidelity):
                assert abs(f - fidelity(partial_trace(final, [q]), target)) <= 1e-12


class TestCovariance:
    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("scheme", ["A", "B"])
    def test_defect_small(self, plane, scheme):
        defect = covariance_defect(scheme_kernel(scheme, plane, 2), (0.0, 0.9, 1.3, 2.1))
        assert defect <= 1e-10

    def test_zero_angle_exact(self):
        defect = covariance_defect(scheme_kernel("A", PlaneId.XY, 2), (0.7,))
        assert defect <= 1e-13

    def test_success_prob_phase_independent(self):
        probs = [
            pqcm_scheme_b(theta, PlaneId.YZ, 2)[0].success_prob
            for theta in np.linspace(0, 2 * np.pi, 9)
        ]
        assert max(probs) - min(probs) <= 1e-12

    def test_empty_probe_list_rejected(self):
        with pytest.raises(ValueError):
            covariance_defect(scheme_kernel("A", PlaneId.XZ, 2), ())


def random_ket(rng, n):
    return Ket(n, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)).normalized()


class TestPureTraceDistance:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 5))
    def test_matches_dense(self, seed, n):
        rng = np.random.default_rng(seed)
        a, b = random_ket(rng, n), random_ket(rng, n)
        dense = trace_distance(outer(a), outer(b))
        assert abs(pure_trace_distance(a, b) - dense) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 8),
           phase=st.floats(0, 2 * np.pi))
    def test_global_phase_is_no_distance(self, seed, n, phase):
        a = random_ket(np.random.default_rng(seed), n)
        b = Ket(n, np.exp(1j * phase) * a.amplitudes)
        assert pure_trace_distance(a, b) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6), plane=st.sampled_from(PLANES),
           theta_a=st.floats(-2 * np.pi, 2 * np.pi), theta_b=st.floats(-2 * np.pi, 2 * np.pi))
    def test_rotating_each_side_back(self, seed, n, plane, theta_a, theta_b):
        # the identity covariance_defect rests on: R(x) R(y) = R(x + y) and
        # unitary invariance move the relative rotation onto both kets
        rng = np.random.default_rng(seed)
        a, b = random_ket(rng, n), random_ket(rng, n)
        qubits = list(range(n))

        def rotate(angle, ket):
            return phase_rotate(PhaseRotation(plane, angle), ket, qubits)

        relative = pure_trace_distance(b, rotate(theta_b - theta_a, a))
        both_back = pure_trace_distance(rotate(-theta_b, b), rotate(-theta_a, a))
        assert abs(relative - both_back) <= 1e-12

    def test_rejects_unnormalized_and_mismatched(self):
        a = equatorial_state(PlaneId.XY, 0.2)
        with pytest.raises(ValueError):
            pure_trace_distance(a, Ket(1, 2 * a.amplitudes))
        with pytest.raises(ValueError):
            pure_trace_distance(a, tensor(a, a))

    def test_coefficient_vectors(self):
        rng = np.random.default_rng(3)
        a, b = random_ket(rng, 3), random_ket(rng, 3)
        assert pure_trace_distance(a.amplitudes, b.amplitudes) == pure_trace_distance(a, b)
        with pytest.raises(ValueError):
            pure_trace_distance(a.amplitudes, 2 * b.amplitudes)
        with pytest.raises(ValueError):
            pure_trace_distance(a.amplitudes, b.amplitudes[:4] * np.sqrt(2))


def scheme_b_success(P):
    return Fraction(2 ** (P - 1), comb(2 * P - 1, P))


class TestBeyondDenseProjector:
    """Points the dense projector could not reach: at M = 15 it alone is 16 GiB."""

    @pytest.mark.parametrize("M", [15, 17])
    @pytest.mark.parametrize(
        "run,success", [(pqcm_scheme_a, projection_norm_sq), (pqcm_scheme_b, scheme_b_success)]
    )
    def test_fidelity_and_success(self, M, run, success):
        P = (M + 1) // 2
        report, _ = run(0.9, PlaneId.YZ, P)
        opt = (3 * M + 1) / (4 * M)
        assert all(abs(f - opt) <= 1e-10 for f in report.per_clone_fidelity)
        assert abs(report.success_prob - float(success(P))) <= 1e-10


class TestSchemeEquivalence:
    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("P", [2, 3])
    def test_defect(self, plane, P):
        assert scheme_equivalence_defect(plane, P, (0.0, 0.8, 3.1)) <= 1e-12


class TestDickeEngine:
    """The engine against the dense oracle and the closed forms F1 and F2."""

    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("engine,dense", [(dicke_scheme_a, pqcm_scheme_a),
                                              (dicke_scheme_b, pqcm_scheme_b)])
    def test_matches_dense_oracle(self, plane, engine, dense):
        for P in range(2, 8):  # odd M <= 13
            for theta in (0.0, 0.9, 4.1):
                report, out = engine(theta, plane, P)
                ref, ket = dense(theta, plane, P)
                ref_coeffs = dicke_coefficients(ket, plane.basis)
                assert 1 - abs(np.vdot(ref_coeffs, out.coeffs)) <= 1e-12
                assert abs(report.success_prob - ref.success_prob) <= 1e-12
                assert abs(report.success_log10 - ref.success_log10) <= 1e-12
                assert max(abs(f - g) for f, g in
                           zip(report.per_clone_fidelity, ref.per_clone_fidelity)) <= 1e-12
                # F1 on the oracle: its weight off D_{P-1}, D_P is rounding only
                off = np.delete(np.abs(ref_coeffs) ** 2, [P - 1, P]).sum()
                assert off <= 1e-27

    @pytest.mark.parametrize("engine", [dicke_scheme_a, dicke_scheme_b])
    @pytest.mark.parametrize("P", [2, 3, 7, 64, 1001])
    def test_f1_two_coefficients(self, engine, P):
        theta = 0.3 + P
        for plane in PLANES:
            _, out = engine(theta, plane, P)
            weights = np.abs(out.coeffs) ** 2
            assert np.delete(weights, [P - 1, P]).sum() <= 1e-30
            assert max(abs(weights[P - 1] - 0.5), abs(weights[P] - 0.5)) <= 1e-12
            ratio = out.coeffs[P] / out.coeffs[P - 1]
            assert abs(ratio - np.exp(1j * theta)) <= 1e-12

    @pytest.mark.parametrize("P", [*range(2, 13), 301])
    def test_f2_stage_probabilities(self, P):
        def lg(fraction):
            return log10(fraction.numerator) - log10(fraction.denominator)

        total = lg(Fraction(2 ** P, comb(2 * P, P)))
        _, out_a = dicke_scheme_a(1.1, PlaneId.YZ, P)
        report_b, out_b = dicke_scheme_b(1.1, PlaneId.YZ, P)
        assert abs(out_a.stage_log10["uqcm"] / lg(Fraction(P + 1, 2 ** P)) - 1) <= 1e-12
        assert abs(out_a.stage_log10["final"] / lg(projection_norm_sq(P)) - 1) <= 1e-12
        assert abs(sum(out_a.stage_log10.values()) / total - 1) <= 1e-12
        assert abs(out_b.stage_log10["final"] / total - 1) <= 1e-12
        assert abs(report_b.success_log10 / total - 1) <= 1e-12

    @pytest.mark.parametrize("plane", PLANES)
    def test_bell_power_against_convolution(self, plane):
        inv = plane.basis.conj().T
        t = inv @ bell_state(plane.bell_kind).amplitudes.reshape(2, 2) @ inv.T
        bell_poly = [t[0, 0], t[0, 1] + t[1, 0], t[1, 1]]
        for P in range(2, 13):
            theta = 0.7 * P
            poly = inv @ equatorial_state(plane, theta).amplitudes
            for _ in range(P - 1):
                poly = np.convolve(poly, bell_poly)
            M = 2 * P - 1
            coeffs = poly / np.sqrt([comb(M, k) for k in range(M + 1)])
            coeffs /= np.linalg.norm(coeffs)
            _, out = dicke_scheme_b(theta, plane, P)
            assert np.max(np.abs(out.coeffs - coeffs)) <= 1e-12

    def test_fidelity_matches_exact_gamma(self):
        worst = 0.0
        for P in range(2, 1002):  # every odd M <= 2001
            exact = float(gamma(P))
            plane = PLANES[P % 3]
            for engine in (dicke_scheme_a, dicke_scheme_b):
                report, _ = engine(0.1 * P, plane, P)
                worst = max(worst, abs(report.per_clone_fidelity[0] - exact))
        assert worst <= 1e-12

    @pytest.mark.parametrize("plane", PLANES)
    def test_rotation_matches_dense(self, plane):
        rng = np.random.default_rng(2)
        for M in (1, 2, 5):
            coeffs = rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1)
            coeffs /= np.linalg.norm(coeffs)
            ket = Ket(M, sum(c * dicke_state(DickeLabel(M, k), plane.basis).amplitudes
                             for k, c in enumerate(coeffs)))
            for angle in (0.4, -2.3, 7.0):
                turned = phase_rotate(PhaseRotation(plane, angle), ket, list(range(M)))
                want = dicke_coefficients(turned, plane.basis)
                assert np.max(np.abs(dicke_rotation(plane, angle, M) * coeffs - want)) <= 1e-12

    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("scheme", ["A", "B"])
    def test_covariance_at_large_m(self, plane, scheme):
        assert covariance_defect(scheme_kernel(scheme, plane, 1001)) <= 1e-12

    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("scheme,engine", [("A", dicke_scheme_a), ("B", dicke_scheme_b)])
    def test_covariance_against_per_probe_runs(self, plane, scheme, engine):
        # the oracle: one whole scheme run per probe, each output rotated back
        # by its own phase, then the largest distance over the pairs
        rng = random.Random(5)
        seeded = tuple(rng.uniform(0, 2 * np.pi) for _ in range(8))
        for P in (*range(2, 9), 301, 1001):
            M = 2 * P - 1
            for probes in (cloner.DEFAULT_PROBE_PHASES, seeded):
                back = [dicke_rotation(plane, -theta, M) * engine(theta, plane, P)[1].coeffs
                        for theta in probes]
                want = max(pure_trace_distance(b, a)
                           for i, a in enumerate(back) for b in back[i + 1:])
                got = covariance_defect(scheme_kernel(scheme, plane, P), probes)
                assert abs(got - want) <= 1e-15

    @pytest.mark.parametrize("plane", PLANES)
    def test_kernel_a_off_the_equator(self, plane):
        # an input with |a0| != |a1|: an equatorial one weights the |a0|^2 and
        # |a1|^2 terms alike, so it passes a kernel that reads one amplitude for both
        for P in range(2, 7):
            a = np.array([np.sqrt(0.8), np.sqrt(0.2) * np.exp(0.7j)])
            kernel = scheme_kernel("A", plane, P)
            coeffs, ln_total = kernel.output(a)
            stages = kernel.stage_log10(a, ln_total)
            source = uqcm(Ket(1, plane.basis @ a), P)
            assert abs(10 ** stages["uqcm"] - source.success_prob) <= 1e-12
            state = source.state
            for q in source.anticlone_qubits:
                state = apply(plane.flip_pauli, [q], state)
            _, success, final = project_and_postselect(state, list(range(2 * P - 1)))
            assert abs(10 ** stages["final"] - success) <= 1e-12
            assert 1 - abs(np.vdot(dicke_coefficients(final, plane.basis), coeffs)) <= 1e-12

    def test_refuses_non_monomial_ancilla(self, monkeypatch):
        phi_plus = bell_state(BellKind.PhiPlus)  # |00> + |11>: m = +-1, not 0, in the xy basis
        monkeypatch.setattr(cloner.sk, "bell_state", lambda kind: phi_plus)
        for engine in (dicke_scheme_a, dicke_scheme_b):
            with pytest.raises(ValueError, match="monomial"):
                engine(0.0, PlaneId.XY, 3)

    def test_scheme_a_without_the_not_vanishes(self, monkeypatch):
        # without the flip the singlet term (u - s)^(P-1) cancels on every diagonal
        monkeypatch.setattr(cloner, "_flip_signs", lambda plane: np.ones(2))
        with pytest.raises(VanishingProjectionError):
            dicke_scheme_a(0.4, PlaneId.YZ, 3)

    def test_needs_p_at_least_2(self):
        for engine in (dicke_scheme_a, dicke_scheme_b):
            with pytest.raises(ValueError):
                engine(0.0, PlaneId.XZ, 1)


class TestCloneReport:
    def test_roundtrip(self):
        report, _ = pqcm_scheme_a(0.25, PlaneId.YZ, 2)
        assert CloneReport.from_dict(report.to_dict()) == report

    def test_success_log10(self):
        report, _ = dicke_scheme_b(0.0, PlaneId.XY, 2000)
        assert report.success_prob == 0.0  # 2^P/C(2P,P) underflows past P ~ 1030
        assert CloneReport.from_dict(report.to_dict()) == report
        old = {k: v for k, v in pqcm_scheme_b(0.0, PlaneId.XY, 2)[0].to_dict().items()
               if k != "success_log10"}
        assert CloneReport.from_dict(old).success_log10 == log10(old["success_prob"])
        base = dict(M=3, P=2, scheme="B", plane=PlaneId.XY, input_phase=0.0,
                    per_clone_fidelity=[5 / 6] * 3, optimal_fidelity=5 / 6)
        for prob, lg in ((0.0, None), (0.5, -np.inf), (0.5, 0.1), (0.5, np.nan)):
            with pytest.raises(ValueError):
                CloneReport(**base, success_prob=prob, success_log10=lg)

    def test_validation(self):
        good, _ = pqcm_scheme_a(0.0, PlaneId.XZ, 2)
        with pytest.raises(ValueError):
            CloneReport(**{**good.to_dict(), "M": 4, "plane": PlaneId.XZ})
        with pytest.raises(ValueError):
            CloneReport(
                M=3, P=2, scheme="C", plane=PlaneId.XZ, input_phase=0.0,
                per_clone_fidelity=[0.8] * 3, success_prob=0.5, optimal_fidelity=5 / 6,
            )
        with pytest.raises(ValueError):
            CloneReport(
                M=3, P=2, scheme="A", plane=PlaneId.XZ, input_phase=0.0,
                per_clone_fidelity=[1.5] * 3, success_prob=0.5, optimal_fidelity=5 / 6,
            )
