import dataclasses
import random
import tracemalloc
from fractions import Fraction
from math import comb, log10

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcclone import cli, cloner
from pcclone.angular import b_coef, d_coef, gamma, projection_norm_sq
from pcclone.cloner import (
    CloneReport,
    covariance_defect,
    dicke_rotation,
    pqcm_scheme_a,
    pqcm_scheme_b,
    run_kernel,
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
    tensor,
    tensor_all,
    trace_distance,
)
from pcclone.symmetry import (
    DickeLabel,
    VanishingProjectionError,
    dicke_coefficients,
    dicke_state,
    project_and_postselect,
    symmetric_powers,
)

PLANES = list(PlaneId)
# test ids of the engine runs as they read when each scheme had its own
# engine function, so that test reports stay comparable across versions
ENGINE_IDS = ["dicke_scheme_a", "dicke_scheme_b"]
# inputs a0|0> + a1|1> in plane.basis off the equator: |a0| != |a1|, and the two poles
OFF_EQUATOR = (np.array([np.sqrt(0.8), np.sqrt(0.2) * np.exp(0.7j)]), [1, 0], [0, 1])


def plane_basis(plane, theta):
    """2x2 basis matrix with columns |phi>, |phi_perp> for a probe state."""
    phi = equatorial_state(plane, theta).amplitudes
    perp = equatorial_orthogonal(plane, theta).amplitudes
    return np.column_stack([phi, perp])


def plane_dicke_state(label, basis):
    """|D_k> with the basis columns as {|phi>, |phi_perp>}: column k of
    S_n(basis) over the computational Dicke states."""
    s = [*symmetric_powers(basis, label.n)][-1]
    return Ket(label.n, sum(s[j, label.k] * dicke_state(DickeLabel(label.n, j)).amplitudes
                            for j in range(label.n + 1)))


def plane_dicke_coefficients(state, basis):
    """Dicke coefficients of a symmetric ket with the basis columns as
    {|phi>, |phi_perp>}: S_n(basis^dag) on the computational ones."""
    return [*symmetric_powers(basis.conj().T, state.num_qubits)][-1] @ dicke_coefficients(state)


class TestUqcm:
    @pytest.mark.parametrize("P,clone_fid", [(2, 5 / 6), (3, 7 / 9)])
    def test_clone_fidelity(self, P, clone_fid):
        target = equatorial_state(PlaneId.XZ, 0.4)
        state, _ = uqcm(target, P)
        for q in range(P):
            assert abs(fidelity(partial_trace(state, [q]), target) - clone_fid) < 1e-10

    def test_anticlone_fidelity(self):
        theta = 1.7
        target = equatorial_state(PlaneId.XY, theta)
        flipped = equatorial_orthogonal(PlaneId.XY, theta)
        for P in (2, 3):
            state, _ = uqcm(target, P)
            for q in range(P, 2 * P - 1):
                assert abs(fidelity(partial_trace(state, [q]), flipped) - 2 / 3) < 1e-10

    def test_works_off_equator(self):
        # universal: fidelity independent of the input state
        amps = np.array([np.cos(0.4), np.exp(0.3j) * np.sin(0.4)])
        from pcclone.statekit import Ket

        target = Ket(1, amps)
        state, _ = uqcm(target, 2)
        for q in range(2):
            assert abs(fidelity(partial_trace(state, [q]), target) - 5 / 6) < 1e-10

    def test_dicke_expansion_matches_b_coefficients(self):
        P = 2
        theta = 0.9
        plane = PlaneId.XZ
        target = equatorial_state(plane, theta)
        state, _ = uqcm(target, P)
        basis = plane_basis(plane, theta)
        overlaps = []
        for k in range(P):
            clone_part = plane_dicke_state(DickeLabel(P, k), basis)
            anti_part = plane_dicke_state(DickeLabel(P - 1, P - 1 - k), basis)
            overlaps.append(tensor(clone_part, anti_part).overlap(state))
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
        state, _ = uqcm(target, 2)
        state = apply(plane.flip_pauli, [2], state)
        fids = [fidelity(partial_trace(state, [q]), target) for q in range(3)]
        assert abs(fids[0] - 5 / 6) < 1e-10
        assert abs(fids[1] - 5 / 6) < 1e-10
        assert abs(fids[2] - 2 / 3) < 1e-10

    def test_projected_state_matches_d_coefficients(self):
        P = 3
        theta = 2.0
        plane = PlaneId.XZ
        target = equatorial_state(plane, theta)
        state, _ = uqcm(target, P)
        for q in range(P, 2 * P - 1):
            state = apply(plane.flip_pauli, [q], state)
        unnormalized, _, _ = project_and_postselect(state, list(range(2 * P - 1)))
        basis = plane_basis(plane, theta)
        overlaps = [
            plane_dicke_state(DickeLabel(2 * P - 1, 2 * k), basis).overlap(unnormalized)
            for k in range(P)
        ]
        lam = overlaps[0] / d_coef(P, 0).value()
        assert abs(abs(lam) - 1) < 1e-12
        for k in range(P):
            assert abs(overlaps[k] - lam * d_coef(P, k).value()) < 1e-12

    @pytest.mark.parametrize("m", range(1, 7))
    def test_one_pass_not_equals_per_qubit_apply(self, m):
        # the NOT on the trailing m qubits in one signed pass, against its
        # definition: flip_pauli applied qubit by qubit
        rng = np.random.default_rng(100 + m)
        for plane in PLANES:
            for lead in (0, 1, 3):
                n = lead + m
                psi = Ket(n, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n))
                want = psi
                for q in range(lead, n):
                    want = apply(plane.flip_pauli, [q], want)
                got = cloner._flip_trailing(plane.flip_pauli, m, psi)
                assert np.array_equal(got.amplitudes, want.amplitudes)


class TestDenseMemory:
    @pytest.mark.parametrize("scheme, kets", [("A", 4), ("B", 4)])
    def test_dense_run_peak_memory(self, scheme, kets):
        # one dense run at M = 15 holds at most this many full-size kets at
        # once; the allowance of 1/16 ket covers the small arrays, so one more
        # full-size (or half-size real) temporary fails
        M = 15
        run = pqcm_scheme_a if scheme == "A" else pqcm_scheme_b
        run(0.2, PlaneId.XZ, 2)  # builds the cached plane bases first
        tracemalloc.start()
        try:
            run(1.3, PlaneId.XZ, (M + 1) // 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (kets + 1 / 16) * 2 ** M * 16


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
        for theta in (0.0, 0.8, 3.1):
            _, out_a = pqcm_scheme_a(theta, plane, P)
            _, out_b = pqcm_scheme_b(theta, plane, P)
            assert 1 - abs(out_a.overlap(out_b)) ** 2 <= 1e-12


class TestDickeEngine:
    """The engine against the dense oracle and the closed forms F1 and F2."""

    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("scheme,dense", [("A", pqcm_scheme_a), ("B", pqcm_scheme_b)],
                             ids=["dicke_scheme_a-pqcm_scheme_a", "dicke_scheme_b-pqcm_scheme_b"])
    def test_matches_dense_oracle(self, plane, scheme, dense):
        for P in range(2, 8):  # odd M <= 13
            for theta in (0.0, 0.9, 4.1):
                out = run_kernel(scheme_kernel(scheme, plane, P), theta)
                ref, ket = dense(theta, plane, P)
                ref_coeffs = plane_dicke_coefficients(ket, plane.basis)
                assert (out.plane, out.num_qubits, out.offset) == (plane, ket.num_qubits, P - 1)
                assert 1 - abs(np.vdot(ref_coeffs[P - 1:P + 1], out.coeffs)) <= 1e-12
                assert abs(out.success_prob - ref.success_prob) <= 1e-12
                assert abs(out.success_log10 - ref.success_log10) <= 1e-12
                assert max(abs(out.fidelity - f) for f in ref.per_clone_fidelity) <= 1e-12
                # F1 on the oracle: its weight off D_{P-1}, D_P is rounding only
                off = np.delete(np.abs(ref_coeffs) ** 2, [P - 1, P]).sum()
                assert off <= 1e-27

    @pytest.mark.parametrize("scheme", ["A", "B"], ids=ENGINE_IDS)
    @pytest.mark.parametrize("P", [2, 3, 7, 64, 1001])
    def test_f1_two_coefficients(self, scheme, P):
        theta = 0.3 + P
        for plane in PLANES:
            out = run_kernel(scheme_kernel(scheme, plane, P), theta)
            assert (out.num_qubits, out.offset, out.coeffs.shape) == (2 * P - 1, P - 1, (2,))
            weights = np.abs(out.coeffs) ** 2
            assert max(abs(weights[0] - 0.5), abs(weights[1] - 0.5)) <= 1e-12
            ratio = out.coeffs[1] / out.coeffs[0]
            assert abs(ratio - np.exp(1j * theta)) <= 1e-12

    @pytest.mark.parametrize("P", [*range(2, 13), 301])
    def test_f2_stage_probabilities(self, P):
        def lg(fraction):
            return log10(fraction.numerator) - log10(fraction.denominator)

        total = lg(Fraction(2 ** P, comb(2 * P, P)))
        out_a = run_kernel(scheme_kernel("A", PlaneId.YZ, P), 1.1)
        out_b = run_kernel(scheme_kernel("B", PlaneId.YZ, P), 1.1)
        assert abs(out_a.stage_log10["uqcm"] / lg(Fraction(P + 1, 2 ** P)) - 1) <= 1e-12
        assert abs(out_a.stage_log10["final"] / lg(projection_norm_sq(P)) - 1) <= 1e-12
        assert abs(sum(out_a.stage_log10.values()) / total - 1) <= 1e-12
        assert abs(out_b.stage_log10["final"] / total - 1) <= 1e-12
        assert abs(out_a.success_log10 / total - 1) <= 1e-12
        assert abs(out_b.success_log10 / total - 1) <= 1e-12

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
            out = run_kernel(scheme_kernel("B", plane, P), theta)
            assert np.max(np.abs(out.coeffs - coeffs[P - 1:P + 1])) <= 1e-12
            assert np.delete(np.abs(coeffs) ** 2, [P - 1, P]).sum() <= 1e-27

    def test_fidelity_matches_exact_gamma(self):
        worst = 0.0
        for P in range(2, 1002):  # every odd M <= 2001
            exact = float(gamma(P))
            plane = PLANES[P % 3]
            for scheme in ("A", "B"):
                out = run_kernel(scheme_kernel(scheme, plane, P), 0.1 * P)
                worst = max(worst, abs(out.fidelity - exact))
        assert worst <= 1e-12

    @pytest.mark.parametrize("plane", PLANES)
    def test_rotation_matches_dense(self, plane):
        rng = np.random.default_rng(2)
        for M in (1, 2, 5):
            coeffs = rng.normal(size=M + 1) + 1j * rng.normal(size=M + 1)
            coeffs /= np.linalg.norm(coeffs)
            ket = Ket(M, sum(c * plane_dicke_state(DickeLabel(M, k), plane.basis).amplitudes
                             for k, c in enumerate(coeffs)))
            for angle in (0.4, -2.3, 7.0):
                turned = phase_rotate(PhaseRotation(plane, angle), ket, list(range(M)))
                want = plane_dicke_coefficients(turned, plane.basis)
                turn = dicke_rotation(angle, M, np.arange(M + 1))
                assert np.max(np.abs(turn * coeffs - want)) <= 1e-12

    def test_rotation_on_the_window_at_huge_m(self):
        # the exponent M - 2k is the integer 1 at k = P-1 and -1 at k = P;
        # formed in floats past 2^53 it would lose the +-1
        M = 10 ** 17 + 1
        P = (M + 1) // 2
        thetas = np.array([0.3, -2.0, 5.5])
        want = np.exp(np.multiply.outer(thetas, (-0.5j, 0.5j)))
        assert np.max(np.abs(dicke_rotation(thetas, M, (P - 1, P)) - want)) <= 1e-15

    @pytest.mark.parametrize("scheme", ["A", "B"])
    def test_kernel_and_probes_allocate_no_o_m_array(self, scheme, capsys):
        # M = 2^24 - 1, the byte budget's edge: one (M+1)-entry complex
        # vector there is 256 MiB, and a list of M fidelities 134 MB
        peaks = []
        tracemalloc.start()
        try:
            defect = covariance_defect(scheme_kernel(scheme, PlaneId.YZ, 2 ** 23))
            peaks.append(tracemalloc.get_traced_memory()[1])
            for fmt in ("text", "csv"):
                tracemalloc.reset_peak()
                code = cli.main(["simulate", "--M", str(2 ** 24 - 1), "--scheme", scheme, "--format", fmt])
                peaks.append(tracemalloc.get_traced_memory()[1])
                assert code == 0 and "0.75000001" in capsys.readouterr().out
        finally:
            tracemalloc.stop()
        assert max(peaks) < 2 ** 20
        assert defect <= 1e-12

    def test_record_checks(self):
        # the O(1) range checks of the dense report, on the engine's record
        kernel = scheme_kernel("A", PlaneId.XZ, 2)
        out = run_kernel(kernel, 0.3)
        for fid in (-0.1, 1.5, np.nan):
            with pytest.raises(ValueError, match="fidelity"):
                dataclasses.replace(out, fidelity=fid)
        for lg in (0.1, -np.inf, np.nan):
            with pytest.raises(ValueError, match="stage"):
                dataclasses.replace(kernel, stage_log10={**kernel.stage_log10, "final": lg})

    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("scheme", ["A", "B"])
    def test_covariance_at_large_m(self, plane, scheme):
        assert covariance_defect(scheme_kernel(scheme, plane, 1001)) <= 1e-12

    @pytest.mark.parametrize("plane", PLANES)
    @pytest.mark.parametrize("scheme", ["A", "B"], ids=["A-dicke_scheme_a", "B-dicke_scheme_b"])
    def test_covariance_against_per_probe_runs(self, plane, scheme):
        # the oracle: one whole scheme run per probe, each output rotated back
        # by its own phase, then the largest distance over the pairs
        rng = random.Random(5)
        seeded = tuple(rng.uniform(0, 2 * np.pi) for _ in range(8))
        for P in (*range(2, 9), 301, 1001):
            M = 2 * P - 1
            for probes in (cloner.DEFAULT_PROBE_PHASES, seeded):
                back = [dicke_rotation(-theta, M, (P - 1, P))
                        * run_kernel(scheme_kernel(scheme, plane, P), theta).coeffs
                        for theta in probes]
                want = max(pure_trace_distance(b, a)
                           for i, a in enumerate(back) for b in back[i + 1:])
                got = covariance_defect(scheme_kernel(scheme, plane, P), probes)
                assert abs(got - want) <= 1e-15

    @pytest.mark.parametrize("plane", PLANES)
    def test_kernel_a_off_the_equator(self, plane):
        # an input with |a0| != |a1|: an equatorial one weights the |a0|^2 and
        # |a1|^2 terms alike, so it passes a kernel that reads one amplitude for
        # both; the poles zero one amplitude, which has no log and no phase
        for P in range(2, 7):
            kernel = scheme_kernel("A", plane, P)
            for a in OFF_EQUATOR:
                with np.errstate(all="raise"):
                    coeffs = kernel.output(a)
                stages = kernel.stage_log10
                state, source_success = uqcm(Ket(1, plane.basis @ a), P)
                assert abs(10 ** stages["uqcm"] - source_success) <= 1e-12
                assert abs(10 ** stages["uqcm"] - (P + 1) / 2 ** P) <= 1e-12
                for q in range(P, 2 * P - 1):
                    state = apply(plane.flip_pauli, [q], state)
                _, success, final = project_and_postselect(state, list(range(2 * P - 1)))
                assert abs(10 ** stages["final"] - success) <= 1e-12
                ref_coeffs = plane_dicke_coefficients(final, plane.basis)[P - 1:P + 1]
                assert 1 - abs(np.vdot(ref_coeffs, coeffs)) <= 1e-12

    @pytest.mark.parametrize("plane", PLANES)
    def test_kernel_b_off_the_equator(self, plane):
        bell = bell_state(plane.bell_kind)
        for P in range(2, 7):
            kernel = scheme_kernel("B", plane, P)
            for a in OFF_EQUATOR:
                with np.errstate(all="raise"):
                    coeffs = kernel.output(a)
                stages = kernel.stage_log10
                state = tensor_all([Ket(1, plane.basis @ a)] + [bell] * (P - 1))
                _, success, final = project_and_postselect(state, list(range(2 * P - 1)))
                assert abs(10 ** stages["final"] - success) <= 1e-12
                assert abs(10 ** stages["final"] - 2 ** P / comb(2 * P, P)) <= 1e-12
                ref_coeffs = plane_dicke_coefficients(final, plane.basis)[P - 1:P + 1]
                assert 1 - abs(np.vdot(ref_coeffs, coeffs)) <= 1e-12

    def test_refuses_non_monomial_ancilla(self, monkeypatch):
        phi_plus = bell_state(BellKind.PhiPlus)  # |00> + |11>: m = +-1, not 0, in the xy basis
        monkeypatch.setattr(cloner.sk, "bell_state", lambda kind: phi_plus)
        for scheme in ("A", "B"):
            with pytest.raises(ValueError, match="monomial"):
                run_kernel(scheme_kernel(scheme, PlaneId.XY, 3), 0.0)

    def test_scheme_a_refuses_unequal_ancilla_moduli(self, monkeypatch):
        # (2|01> - |10>)/sqrt5 is a monomial in the xy basis, but its
        # universal-cloner stage is not (P+1)/2^P
        skewed = Ket(2, np.array([0, 2, -1, 0]) / np.sqrt(5))
        monkeypatch.setattr(cloner.sk, "bell_state", lambda kind: skewed)
        with pytest.raises(ValueError, match=r"\|t01\| = \|t10\|"):
            scheme_kernel("A", PlaneId.XY, 3)

    def test_scheme_a_without_the_not_vanishes(self, monkeypatch):
        # without the flip the singlet term (u - s)^(P-1) cancels on every diagonal
        monkeypatch.setattr(cloner, "_flip_signs", lambda plane: np.ones(2))
        with pytest.raises(VanishingProjectionError):
            run_kernel(scheme_kernel("A", PlaneId.YZ, 3), 0.4)

    def test_scheme_b_with_singlet_ancillas_vanishes(self, monkeypatch):
        # the singlet's term (u - s)^(P-1) cancels as in scheme A without the NOT
        singlet = bell_state(BellKind.PsiMinus)
        monkeypatch.setattr(cloner.sk, "bell_state", lambda kind: singlet)
        with pytest.raises(VanishingProjectionError):
            run_kernel(scheme_kernel("B", PlaneId.YZ, 3), 0.4)

    def test_needs_p_at_least_2(self):
        for scheme in ("A", "B"):
            with pytest.raises(ValueError):
                run_kernel(scheme_kernel(scheme, PlaneId.XZ, 1), 0.0)

    @pytest.mark.parametrize("scheme", ["a", "C"])
    def test_refuses_unknown_scheme(self, scheme):
        with pytest.raises(ValueError, match="scheme"):
            scheme_kernel(scheme, PlaneId.XZ, 3)


class TestCloneReport:
    def test_success_log10(self):
        out = run_kernel(scheme_kernel("B", PlaneId.XY, 2000), 0.0)
        assert out.success_prob == 0.0  # 2^P/C(2P,P) underflows past P ~ 1030
        assert np.isfinite(out.success_log10)
        for prob, lg in ((0.5, -np.inf), (0.5, 0.1), (0.5, np.nan)):
            with pytest.raises(ValueError):
                CloneReport(scheme="B", per_clone_fidelity=[5 / 6] * 3, success_prob=prob, success_log10=lg)

    def test_validation(self):
        good, _ = pqcm_scheme_a(0.0, PlaneId.XZ, 2)
        for fids in ([5 / 6] * 4, [5 / 6]):  # M = 2P - 1 is odd and at least 3
            with pytest.raises(ValueError):
                dataclasses.replace(good, per_clone_fidelity=fids)
        with pytest.raises(ValueError):
            CloneReport(scheme="C", per_clone_fidelity=[0.8] * 3, success_prob=0.5, success_log10=log10(0.5))
        with pytest.raises(ValueError):
            CloneReport(scheme="A", per_clone_fidelity=[1.5] * 3, success_prob=0.5, success_log10=log10(0.5))
