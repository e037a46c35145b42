import tracemalloc
import warnings

import numpy as np
import pytest

from pcclone import opa
from pcclone.opa import (
    CutoffOverflowError,
    FockVec,
    build_hamiltonian,
    change_mode_basis,
    evolve,
    first_order_output,
    fock_state,
    hamiltonian_in_rotated_modes,
    photon_reduced_density,
)
from pcclone.statekit import CapacityError, PlaneId, equatorial_state, fidelity


def low_sector_state(cutoff, mode_basis, rng):
    """Random normalized state on the sectors N <= cutoff - 2, which H keeps
    under the cutoff."""
    idx = np.arange((cutoff + 1) ** 2)
    low = idx // (cutoff + 1) + idx % (cutoff + 1) <= cutoff - 2
    amps = low * (rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size))
    return FockVec(cutoff, amps / np.linalg.norm(amps), mode_basis)


class TestFockState:
    def test_budget_edge_is_admitted(self, monkeypatch):
        # 4096^2 amplitudes are exactly 2^28 bytes; the stub keeps the test
        # from copying them into a FockVec
        monkeypatch.setattr(opa, "FockVec", lambda cutoff, amps, mode_basis: amps.size)
        assert opa.fock_state(4095, 1, 0) == 4096 ** 2

    def test_over_budget_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"needs {16 * 4097 ** 2} bytes"):
                fock_state(4096, 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("m,n", [(0, 5), (-1, 0), (4, 0), (0, -1), (2, 2)])
    def test_pair_off_the_truncation_refused(self, m, n):
        # the flat index m (c+1) + n would wrap (0, 5) into |1,1> and (-1, 0)
        # into |3,0>, and put (4, 0) past the end
        with pytest.raises(ValueError, match=r"m \+ n <= cutoff: \|"):
            fock_state(3, m, n)

    @pytest.mark.parametrize("m,n", [(0, 5), (-1, 0), (4, 0), (0, 4)])
    def test_amplitude_off_the_grid_refused(self, m, n):
        state = fock_state(3, 1, 1)
        assert state.amplitude(1, 1) == 1 and state.amplitude(3, 3) == 0
        with pytest.raises(ValueError, match="0 <= m, n <= cutoff"):
            state.amplitude(m, n)


class TestHamiltonian:
    def test_hermitian(self):
        h = build_hamiltonian(5)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_pair_creation_element(self):
        h = build_hamiltonian(4)
        dim = 5
        amp = h[1 * dim + 1, 0]  # <1,1|H|0,0>
        assert abs(amp - 1j) < 1e-14

    @pytest.mark.parametrize("phi", [0.0, 0.9, 2.4, 5.0])
    def test_rotated_pair_creation_elements(self, phi):
        h = hamiltonian_in_rotated_modes(4, phi)
        dim = 5
        # <2,0|H|0,0> and <0,2|H|0,0> in the {phi, phi_perp} pair
        assert abs(h[2 * dim + 0, 0] - 1j * np.exp(-1j * phi) / np.sqrt(2)) < 1e-14
        assert abs(h[0 * dim + 2, 0] + 1j * np.exp(1j * phi) / np.sqrt(2)) < 1e-14

    @pytest.mark.parametrize("phi", [0.0, np.pi / 3, np.pi / 2, 1.2])
    def test_rotated_form_invariance(self, phi):
        # H in the {phi, phi_perp} pair, then to HV == to HV, then H in HV
        cutoff = 6
        state = low_sector_state(cutoff, phi, np.random.default_rng(5))
        h_state = FockVec(cutoff, hamiltonian_in_rotated_modes(cutoff, phi) @ state.amplitudes, phi)
        via_hv = build_hamiltonian(cutoff) @ change_mode_basis(state, "HV").amplitudes
        assert np.max(np.abs(change_mode_basis(h_state, "HV").amplitudes - via_hv)) < 1e-12

    def test_cutoff_too_small(self):
        for call in (
            lambda: build_hamiltonian(2),
            lambda: hamiltonian_in_rotated_modes(2, 0.3),
            lambda: evolve(fock_state(2, 1, 0, mode_basis=0.3), 0.1, 2),
            lambda: evolve(fock_state(2, 1, 0), 0.1, 2),
        ):
            with pytest.raises(ValueError):
                call()


class TestEvolve:
    def test_gain_zero_identity(self):
        st = fock_state(5, 1, 0, mode_basis=0.4)
        out, remainder = evolve(st, 0.0, 4)
        np.testing.assert_allclose(out.amplitudes, st.amplitudes)
        assert remainder == 0

    def test_first_order_consistency(self):
        gain = 0.01
        st = fock_state(6, 1, 0, mode_basis=0.8)
        evolved, _ = evolve(st, gain, 1)
        first = first_order_output(0.8)
        recovered = (evolved.amplitudes - st.amplitudes) / gain
        assert np.max(np.abs(recovered - first.amplitudes)) < 1e-14

    def test_norm_restored_at_high_order(self):
        st = fock_state(10, 1, 0, mode_basis=0.0)
        evolved, _ = evolve(st, 0.1, 12)
        assert abs(evolved.norm_sq - 1) < 1e-10

    def test_norm_deficit_shrinks_with_order(self):
        st = fock_state(10, 1, 0, mode_basis=1.3)
        deficits = [abs(1 - evolve(st, 0.1, order)[0].norm_sq) for order in (1, 4, 8, 12)]
        assert deficits[0] > deficits[1] > deficits[2] > deficits[3]
        assert deficits[-1] < 1e-10

    def test_boundary_overflow_raises(self):
        st = fock_state(3, 1, 0, mode_basis=0.0)
        with pytest.raises(CutoffOverflowError):
            evolve(st, 0.45, 10)

    def test_overflow_raises_before_gain_warning(self):
        st = fock_state(3, 1, 0, mode_basis=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CutoffOverflowError):
                evolve(st, 5.0, 10)

    @pytest.mark.xfail(strict=True, reason="the boundary test reads only row and column c; H moves "
                       "photons two at a time in the {phi, phi_perp} pair, so row c-1 leaks off the grid")
    def test_truncation_is_refused_or_exact(self):
        # at cutoff 4 and gain 1e-2, 1.9e-8 of the weight leaves the grid from
        # row 3 unchecked, and the on-grid amplitudes are off by 1.0e-6
        ref, _ = evolve(fock_state(40, 1, 0, mode_basis=0.4), 1e-2, 12)
        try:
            out, _ = evolve(fock_state(4, 1, 0, mode_basis=0.4), 1e-2, 12)
        except CutoffOverflowError:
            return
        on_grid = ref.amplitudes.reshape(41, 41)[:5, :5].ravel()
        assert np.max(np.abs(out.amplitudes - on_grid)) <= 1e-8


class TestFirstOrder:
    def test_phase_zero_amplitudes(self):
        out = first_order_output(0.0)
        lam = out.amplitude(3, 0) / np.sqrt(6)
        assert abs(out.amplitude(3, 0) - lam * np.sqrt(6)) < 1e-12
        assert abs(out.amplitude(1, 2) + lam * np.sqrt(2)) < 1e-12
        assert abs(abs(out.amplitude(3, 0) / out.amplitude(1, 2)) - np.sqrt(3)) < 1e-12

    def test_phase_two_pi_periodicity(self):
        a = first_order_output(0.0)
        b = first_order_output(np.pi)
        # e^{2 i phi} is 2pi-periodic in 2phi: amplitudes agree up to e^{-i phi}
        ratio_a = a.amplitude(1, 2) / a.amplitude(3, 0)
        ratio_b = b.amplitude(1, 2) / b.amplitude(3, 0)
        assert abs(ratio_a - ratio_b) < 1e-12

    @pytest.mark.parametrize("phase", [0.0, 0.9, np.pi / 2, 2.7, 5.1])
    def test_relative_phase(self, phase):
        out = first_order_output(phase)
        ratio = out.amplitude(1, 2) / out.amplitude(3, 0)
        expected = -np.sqrt(1 / 3) * np.exp(2j * phase)
        assert abs(ratio - expected) < 1e-12

    @pytest.mark.parametrize("phase", [0.0, 1.1, 4.4])
    def test_reduced_fidelity(self, phase):
        rho = photon_reduced_density(first_order_output(phase))
        assert abs(fidelity(rho, equatorial_state(PlaneId.XY, phase)) - 5 / 6) < 1e-12


class TestReducedDensity:
    def test_single_photon(self):
        rho = photon_reduced_density(fock_state(4, 1, 0, mode_basis=0.6))
        assert abs(fidelity(rho, equatorial_state(PlaneId.XY, 0.6)) - 1) < 1e-12

    def test_two_orthogonal_photons(self):
        rho = photon_reduced_density(fock_state(4, 0, 2, mode_basis=0.6))
        assert abs(fidelity(rho, equatorial_state(PlaneId.XY, 0.6 + np.pi)) - 1) < 1e-12

    def test_hv_basis(self):
        rho = photon_reduced_density(fock_state(4, 2, 0))
        assert abs(rho.matrix[0, 0] - 1) < 1e-12

    @pytest.mark.parametrize("N", [3, 5, 7])
    def test_weak_sector_of_low_gain_evolution(self, N):
        # the N=5 and N=7 sectors have squared norms 3e-16 and 4e-24
        phase = 0.37
        evolved, _ = evolve(fock_state(8, 1, 0, mode_basis=phase), 1e-4, 3)
        idx = np.arange(81)
        in_sector = idx // 9 + idx % 9 == N
        sector = FockVec(8, evolved.amplitudes * in_sector, phase)
        rho = photon_reduced_density(sector)
        assert abs(fidelity(rho, equatorial_state(PlaneId.XY, phase)) - (3 * N + 1) / (4 * N)) < 1e-10

    @pytest.mark.parametrize("N", range(3, 20, 2))
    def test_sector_of_amplifier_evolution(self, N):
        phase = 0.8
        evolved, _ = evolve(fock_state(20, 1, 0, mode_basis=phase), 0.3, 9)
        idx = np.arange(21 ** 2)
        in_sector = idx // 21 + idx % 21 == N
        rho = photon_reduced_density(FockVec(20, evolved.amplitudes * in_sector, phase))
        assert abs(fidelity(rho, equatorial_state(PlaneId.XY, phase)) - (3 * N + 1) / (4 * N)) < 1e-10

    def test_mixed_sector_rejected(self):
        amps = np.zeros(25, dtype=complex)
        amps[0 * 5 + 1] = 1 / np.sqrt(2)  # |0,1>
        amps[1 * 5 + 1] = 1 / np.sqrt(2)  # |1,1>
        with pytest.raises(ValueError):
            photon_reduced_density(FockVec(4, amps))

    def test_sector_above_cutoff_rejected(self):
        # the grid holds N = 13 only as (n, 13 - n) with both n and 13 - n <= 12,
        # so (13, 0) and (0, 13) are cut off and the sector is not a state
        evolved, _ = evolve(fock_state(12, 1, 0, mode_basis=0.3), 0.05, 6)
        idx = np.arange(13 ** 2)
        sector = FockVec(12, evolved.amplitudes * (idx // 13 + idx % 13 == 13), 0.3)
        with pytest.raises(ValueError, match="cut by the truncation"):
            photon_reduced_density(sector)


    @pytest.mark.parametrize("scale", [1.0, 1e-10])
    @pytest.mark.parametrize("off_weight,accepted", [(1e-12, True), (1e-8, False)])
    def test_off_sector_weight_is_relative(self, scale, off_weight, accepted):
        amps = np.zeros(25, dtype=complex)
        amps[2 * 5 + 1] = scale  # |2,1>, N = 3
        amps[1 * 5 + 1] = scale * np.sqrt(off_weight)  # |1,1>, N = 2
        state = FockVec(4, amps)
        if accepted:
            assert photon_reduced_density(state).matrix.shape == (2, 2)
        else:
            with pytest.raises(ValueError):
                photon_reduced_density(state)


class TestModeBasisChange:
    def test_single_photon_roundtrip(self):
        st = fock_state(6, 1, 0, mode_basis=0.0)
        hv = change_mode_basis(st, "HV")
        np.testing.assert_allclose(
            [hv.amplitude(1, 0), hv.amplitude(0, 1)],
            [1 / np.sqrt(2), 1 / np.sqrt(2)],
            atol=1e-14,
        )
        back = change_mode_basis(hv, 0.0)
        np.testing.assert_allclose(back.amplitudes, st.amplitudes, atol=1e-13)

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        amps = np.zeros(49, dtype=complex)
        # random state on the <= 4 photon sectors
        for m in range(5):
            for n in range(5 - m):
                amps[m * 7 + n] = rng.normal() + 1j * rng.normal()
        st = FockVec(6, amps / np.linalg.norm(amps))
        rotated = change_mode_basis(st, 1.1)
        assert abs(rotated.norm_sq - 1) < 1e-12

    @pytest.mark.parametrize("cutoff,sector", [(171, True), (60, False)], ids=["171-photon sector", "cutoff 60"])
    def test_roundtrip_past_the_binomial_range(self, cutoff, sector):
        # HEAD's binomial re-expansion overflowed from 171 photons and lost
        # digits at cutoff 60; S_N stays unitary to rounding
        rng = np.random.default_rng(8)
        side = cutoff + 1
        photons = np.add.outer(np.arange(side), np.arange(side)).ravel()
        keep = photons == cutoff if sector else photons <= cutoff
        amps = keep * (rng.normal(size=side ** 2) + 1j * rng.normal(size=side ** 2))
        st = FockVec(cutoff, amps / np.linalg.norm(amps), 0.9)
        hv = change_mode_basis(st, "HV")
        assert abs(hv.norm_sq - 1) <= 1e-12
        back = change_mode_basis(hv, 0.9)
        assert np.max(np.abs(back.amplitudes - st.amplitudes)) <= 1e-12

    def test_over_cutoff_amplitude_refused(self):
        amps = np.zeros(25, dtype=complex)
        amps[4 * 5 + 1] = 1.0  # |4,1>: 5 photons at cutoff 4
        with pytest.raises(ValueError, match="cutoff"):
            change_mode_basis(FockVec(4, amps, 0.3), "HV")

    def test_evolution_phase_covariance(self):
        # amplitudes in each injected state's own rotated basis agree up to
        # the anchored e^{2i phi}-type phases
        cutoff = 10
        gain = 0.1
        outs = {}
        for theta in (0.0, 1.7):
            st = fock_state(cutoff, 1, 0, mode_basis=theta)
            outs[theta], _ = evolve(st, gain, 10)
        a, b = outs[0.0], outs[1.7]
        for m in range(cutoff + 1):
            for n in range(cutoff + 1):
                phase = np.exp(-1j * 1.7 * (m - 1 - n) / 2)
                assert abs(b.amplitude(m, n) - phase * a.amplitude(m, n)) < 1e-10
