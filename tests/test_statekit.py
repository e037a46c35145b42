import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcclone.statekit import (
    DENSE_BYTES,
    SIGMA_Y,
    BellKind,
    CapacityError,
    Ket,
    PhaseRotation,
    PlaneId,
    _check_capacity,
    apply,
    bell_state,
    equatorial_state,
    fidelity,
    outer,
    partial_trace,
    permute_qubits,
    phase_rotate,
    tensor,
    tensor_all,
)
from pcclone.symmetry import DickeLabel, concatenation_defect, dicke_state, symmetric_projector

PLANES = list(PlaneId)


def test_equatorial_xy_zero():
    ket = equatorial_state(PlaneId.XY, 0.0)
    np.testing.assert_allclose(ket.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-15)


def test_equatorial_xy_pi():
    ket = equatorial_state(PlaneId.XY, np.pi)
    np.testing.assert_allclose(ket.amplitudes, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15)


def test_equatorial_xz_real_up_to_phase():
    for theta in (0.0, 0.7, 2.4, 4.0):
        ket = equatorial_state(PlaneId.XZ, theta)
        # rotate away the global phase of the first nonzero amplitude
        ref = ket.amplitudes * np.exp(-1j * np.angle(ket.amplitudes[0]))
        assert np.max(np.abs(ref.imag)) < 1e-12


@pytest.mark.parametrize("plane", PLANES)
def test_equatorial_normalized(plane):
    assert abs(equatorial_state(plane, 1.234).norm_sq - 1) < 1e-12


def test_plane_basis_is_one_read_only_array():
    s = 1 / np.sqrt(2)
    expected = {
        PlaneId.XZ: [[s, s], [-1j * s, 1j * s]],
        PlaneId.YZ: [[s, s], [s, -s]],
        PlaneId.XY: [[1, 0], [0, 1]],
    }
    for plane, matrix in expected.items():
        basis = plane.basis
        assert basis is plane.basis
        assert basis.dtype == complex
        np.testing.assert_array_equal(basis, np.array(matrix, dtype=complex))
        with pytest.raises(ValueError):
            basis[0, 0] = 0


def test_bell_phi_plus():
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(bell_state(BellKind.PhiPlus).amplitudes, [s, 0, 0, s])


def test_bell_psi_minus():
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(bell_state(BellKind.PsiMinus).amplitudes, [0, s, -s, 0])


@pytest.mark.parametrize("which", list(BellKind))
@pytest.mark.parametrize("keep", [[0], [1]])
def test_bell_maximally_mixed_marginals(which, keep):
    red = partial_trace(bell_state(which), keep)
    np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-15)


def test_tensor_basis_states():
    ket = tensor(Ket(1, [1, 0]), Ket(1, [0, 1]))
    np.testing.assert_allclose(ket.amplitudes, [0, 1, 0, 0])


def test_tensor_norm_multiplies():
    a = Ket(1, np.array([np.sqrt(0.5), 0]))
    b = Ket(1, np.array([0, np.sqrt(0.5)]))
    assert abs(tensor(a, b).norm_sq - 0.25) < 1e-12


def test_tensor_capacity():
    # 25 qubits are 2^25 amplitudes, 512 MiB: refused before the first outer product
    with pytest.raises(CapacityError):
        tensor_all([Ket(1, [1, 0])] * 25)


def _random_ket(rng, n):
    return Ket(n, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n))


def test_tensor_all_equals_kron_chain():
    # one chain of outer products equals the np.kron chain bit for bit, on
    # mixed one- and two-qubit factors
    rng = np.random.default_rng(11)
    kets = [_random_ket(rng, n) for n in (1, 2, 1, 2, 2, 1)]
    for count in range(1, len(kets) + 1):
        want = kets[0].amplitudes
        for k in kets[1:count]:
            want = np.kron(want, k.amplitudes)
        got = tensor_all(kets[:count])
        assert got.num_qubits == sum(k.num_qubits for k in kets[:count])
        assert np.array_equal(got.amplitudes, want)
    assert np.array_equal(tensor(kets[1], kets[0]).amplitudes, np.kron(kets[1].amplitudes, kets[0].amplitudes))


UNORDERED_TARGETS = [[2, 0], [3, 1, 0], [1], [0, 1, 2, 3]]


@pytest.mark.parametrize("targets", UNORDERED_TARGETS, ids=str)
def test_apply_equals_moveaxis_form(targets):
    rng = np.random.default_rng(12)
    psi = _random_ket(rng, 4)
    k = len(targets)
    op = rng.normal(size=(2 ** k, 2 ** k)) + 1j * rng.normal(size=(2 ** k, 2 ** k))
    axes = np.moveaxis(psi.amplitudes.reshape((2,) * 4), targets, range(k))
    moved = (op @ axes.reshape(2 ** k, -1)).reshape(axes.shape)
    want = np.moveaxis(moved, range(k), targets).reshape(-1)
    assert np.array_equal(apply(op, targets, psi).amplitudes, want)


@pytest.mark.parametrize("targets", UNORDERED_TARGETS, ids=str)
def test_partial_trace_equals_moveaxis_form(targets):
    psi = _random_ket(np.random.default_rng(13), 4)
    k = len(targets)
    m = np.moveaxis(psi.amplitudes.reshape((2,) * 4), targets, range(k)).reshape(2 ** k, -1)
    assert np.array_equal(partial_trace(psi, targets).matrix, m @ m.conj().T)


def test_capacity_is_a_byte_budget():
    # 256 MiB is a 24-qubit ket or a 12-qubit matrix of complex128
    assert DENSE_BYTES == 2 ** 28
    assert _check_capacity(2 ** 24) is None and _check_capacity(4 ** 12) is None
    with pytest.raises(CapacityError, match=f"needs {2 ** 30} bytes, over the budget of {2 ** 28} bytes"):
        symmetric_projector(13)


KET_13 = Ket(13, np.eye(1, 2 ** 13)[0])  # |0...0>


@pytest.mark.parametrize("build", [
    lambda: symmetric_projector(13),          # 4^13 entries, 1 GiB
    lambda: concatenation_defect(13),         # 25-qubit kets, 512 MiB each
    lambda: dicke_state(DickeLabel(25, 0)),   # 2^25 entries, 512 MiB
    lambda: tensor(KET_13, KET_13),           # 2^26 entries
    lambda: outer(KET_13),                    # 4^13 entries
    lambda: partial_trace(KET_13, list(range(13))),
], ids=["symmetric_projector", "concatenation_defect", "dicke_state", "tensor", "outer",
        "partial_trace"])
def test_dense_budget_refuses_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_apply_pauli_y():
    out = apply(SIGMA_Y, [0], Ket(1, [1, 0]))
    np.testing.assert_allclose(out.amplitudes, [0, 1j])


def test_apply_identity_noop():
    state = bell_state(BellKind.PsiPlus)
    out = apply(np.eye(2), [1], state)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes)


def test_apply_errors():
    state = bell_state(BellKind.PhiPlus)
    with pytest.raises(ValueError):
        apply(np.eye(4), [0], state)
    with pytest.raises(IndexError):
        apply(np.eye(2), [5], state)
    with pytest.raises(ValueError):
        apply(np.eye(4), [0, 0], state)


def test_partial_trace_product_state():
    a = equatorial_state(PlaneId.XY, 0.9)
    b = equatorial_state(PlaneId.XZ, 2.1)
    red = partial_trace(tensor(a, b), [0])
    np.testing.assert_allclose(red.matrix, outer(a).matrix, atol=1e-14)
    red_b = partial_trace(tensor(a, b), [1])
    np.testing.assert_allclose(red_b.matrix, outer(b).matrix, atol=1e-14)


def test_partial_trace_errors():
    with pytest.raises(ValueError):
        partial_trace(bell_state(BellKind.PhiPlus), [])
    with pytest.raises(IndexError):
        partial_trace(bell_state(BellKind.PhiPlus), [2])


def test_fidelity_pure_match():
    assert abs(fidelity(outer(Ket(1, [1, 0])), Ket(1, [1, 0])) - 1) < 1e-14


def test_fidelity_maximally_mixed():
    from pcclone.statekit import DensityOp

    rho = DensityOp(1, np.eye(2) / 2)
    assert abs(fidelity(rho, equatorial_state(PlaneId.XY, 1.3)) - 0.5) < 1e-14


def test_fidelity_weighted_mixture():
    from pcclone.statekit import DensityOp

    phi = equatorial_state(PlaneId.XZ, 0.8)
    perp = equatorial_state(PlaneId.XZ, 0.8 + np.pi)
    rho = DensityOp(1, 5 / 6 * outer(phi).matrix + 1 / 6 * outer(perp).matrix)
    assert abs(fidelity(rho, phi) - 5 / 6) < 1e-14


def test_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        fidelity(outer(bell_state(BellKind.PhiPlus)), Ket(1, [1, 0]))


def test_phase_rotate_zero_identity():
    state = bell_state(BellKind.PhiPlus)
    out = phase_rotate(PhaseRotation(PlaneId.XY, 0.0), state, [0, 1])
    np.testing.assert_allclose(out.amplitudes, state.amplitudes)


@pytest.mark.parametrize("plane", PLANES)
def test_phase_rotate_two_pi_spinor_sign(plane):
    state = Ket(1, [1, 0])
    out = phase_rotate(PhaseRotation(plane, 2 * np.pi), state, [0])
    np.testing.assert_allclose(out.amplitudes, -state.amplitudes, atol=1e-12)


@pytest.mark.parametrize("plane", PLANES)
def test_rotation_unitary(plane):
    for angle in (0.3, 1.9, 5.0):
        u = PhaseRotation(plane, angle).matrix
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
        # the one plane convention: the same diagonal in every plane's basis
        in_plane = plane.basis.conj().T @ u @ plane.basis
        assert np.max(np.abs(in_plane - np.diag(np.exp([-0.5j * angle, 0.5j * angle])))) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(0, 2 * np.pi),
    angle=st.floats(0, 2 * np.pi),
    plane=st.sampled_from(PLANES),
)
def test_rotation_advances_equatorial_phase(theta, angle, plane):
    rotated = phase_rotate(PhaseRotation(plane, angle), equatorial_state(plane, theta), [0])
    assert abs(rotated.overlap(equatorial_state(plane, theta + angle))) ** 2 >= 1 - 1e-12


def test_permute_qubits_roundtrip():
    state = tensor(Ket(1, [0, 1]), bell_state(BellKind.PsiPlus))
    swapped = permute_qubits(state, [2, 0, 1])
    back = permute_qubits(swapped, [1, 2, 0])
    np.testing.assert_allclose(back.amplitudes, state.amplitudes)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_trace_out_second_factor(data):
    amps_a = np.array(
        [data.draw(st.complex_numbers(max_magnitude=1, allow_nan=False)) for _ in range(2)]
    )
    amps_b = np.array(
        [data.draw(st.complex_numbers(max_magnitude=1, allow_nan=False)) for _ in range(2)]
    )
    if np.linalg.norm(amps_a) < 1e-3 or np.linalg.norm(amps_b) < 1e-3:
        return
    a = Ket(1, amps_a).normalized()
    b = Ket(1, amps_b).normalized()
    red = partial_trace(tensor(a, b), [0])
    np.testing.assert_allclose(red.matrix, outer(a).matrix, atol=1e-12)
