import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcclone.statekit import BellKind, Ket, PlaneId, apply, bell_state, partial_trace
from pcclone.symmetry import (
    DickeLabel,
    VanishingProjectionError,
    concatenation_defect,
    dicke_reduced_density,
    dicke_state,
    project_and_postselect,
    symmetric_powers,
    symmetric_projector,
    symmetrize,
)
from pcclone.verify import _permutation_mean


def test_dicke_2_1():
    s = 1 / np.sqrt(2)
    np.testing.assert_allclose(dicke_state(DickeLabel(2, 1)).amplitudes, [0, s, s, 0])


def test_dicke_3_2():
    ket = dicke_state(DickeLabel(3, 2))
    expected = np.zeros(8)
    expected[[3, 5, 6]] = 1 / np.sqrt(3)  # |011>, |101>, |110>
    np.testing.assert_allclose(ket.amplitudes, expected)
    # in a plane basis, column k of S_n(basis) over these, against its
    # definition: the basis on every qubit
    for plane in PlaneId:
        for n in range(1, 7):
            s = [*symmetric_powers(plane.basis, n)][-1]
            computational = [dicke_state(DickeLabel(n, j)).amplitudes for j in range(n + 1)]
            for k in range(n + 1):
                ket = dicke_state(DickeLabel(n, k))
                for q in range(n):
                    ket = apply(plane.basis, [q], ket)
                rotated = s[:, k] @ computational
                assert np.max(np.abs(rotated - ket.amplitudes)) <= 1e-14


def test_dicke_3_0():
    ket = dicke_state(DickeLabel(3, 0))
    expected = np.zeros(8)
    expected[0] = 1
    np.testing.assert_allclose(ket.amplitudes, expected)


def test_dicke_label_validation():
    with pytest.raises(ValueError):
        DickeLabel(2, 3)
    with pytest.raises(ValueError):
        DickeLabel(0, 0)


def test_projector_rank_three_qubits():
    proj = symmetric_projector(3)
    rank = int((np.linalg.eigvalsh(proj) > 0.5).sum())
    assert rank == 4


def test_projector_idempotent_hermitian():
    mat = symmetric_projector(3)
    assert np.max(np.abs(mat @ mat - mat)) < 1e-12
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12


def test_projector_annihilates_singlet():
    singlet = bell_state(BellKind.PsiMinus)
    out = symmetric_projector(2) @ singlet.amplitudes
    assert np.max(np.abs(out)) < 1e-14


def test_projector_on_01():
    amps = np.zeros(4)
    amps[1] = 1.0
    out = symmetric_projector(2) @ amps
    np.testing.assert_allclose(out, [0, 0.5, 0.5, 0], atol=1e-14)
    assert abs(np.vdot(out, out).real - 0.5) < 1e-14


def test_postselect_symmetric_input_unchanged():
    sym_in = dicke_state(DickeLabel(3, 1))
    projected, success, normalized = project_and_postselect(sym_in, [0, 1, 2])
    assert abs(success - 1) < 1e-12
    assert abs(normalized.overlap(sym_in)) ** 2 >= 1 - 1e-12


def test_postselect_vanishing_raises():
    with pytest.raises(VanishingProjectionError):
        project_and_postselect(bell_state(BellKind.PsiMinus), [0, 1])


def test_postselect_subset_only():
    # symmetrize first two qubits of |010>: third qubit untouched
    amps = np.zeros(8)
    amps[2] = 1.0  # |010>
    projected, success, _ = project_and_postselect(Ket(3, amps), [0, 1])
    assert abs(success - 0.5) < 1e-12
    expected = np.zeros(8)
    expected[[2, 4]] = 0.5  # (|010> + |100>)/2
    np.testing.assert_allclose(projected.amplitudes, expected, atol=1e-14)


@pytest.mark.parametrize("P,bound", [(1, 1e-15), (2, 1e-12), (3, 1e-12)])
def test_concatenation_property(P, bound):
    assert concatenation_defect(P) <= bound


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_dicke_weights_match_projection_probability(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    psi = Ket(n, amps).normalized()
    try:
        _, success, _ = project_and_postselect(psi, list(range(n)))
    except VanishingProjectionError:
        return
    weight = sum(
        abs(dicke_state(DickeLabel(n, k)).overlap(psi)) ** 2 for k in range(n + 1)
    )
    assert abs(success - weight) < 1e-12


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 6), data=st.data())
def test_symmetrize_matches_dense_projector(seed, n, data):
    subset = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    )
    rng = np.random.default_rng(seed)
    psi = Ket(n, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)).normalized()
    dense = apply(symmetric_projector(len(subset)), subset, psi)
    fast = symmetrize(psi, subset)
    assert np.max(np.abs(fast.amplitudes - dense.amplitudes)) <= 1e-14
    assert np.max(np.abs(fast.amplitudes - _permutation_mean(psi, subset))) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 8), rotated=st.booleans())
def test_dicke_reduced_density_matches_partial_trace(seed, n, rotated):
    rng = np.random.default_rng(seed)
    psi = Ket(n, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n))
    psi = symmetrize(psi, list(range(n))).normalized()
    coeffs = [dicke_state(DickeLabel(n, k)).overlap(psi) for k in range(n + 1)]
    basis = None
    if rotated:
        basis, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        for q in range(n):
            psi = apply(basis, [q], psi)
    rho = dicke_reduced_density(coeffs, basis).matrix
    for q in range(n):
        assert np.max(np.abs(rho - partial_trace(psi, [q]).matrix)) <= 1e-12


@pytest.mark.parametrize("subset", [[2, 0], [3, 1, 0], [1], [0, 1, 2, 3]], ids=str)
def test_symmetrize_equals_moveaxis_form(subset):
    # one transpose and its argsort move the same amplitudes as a moveaxis pair
    n, k = 4, len(subset)
    rng = np.random.default_rng(14)
    psi = Ket(n, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n))
    axes = np.moveaxis(psi.amplitudes.reshape((2,) * n), subset, range(k))
    flat = axes.reshape(2 ** k, -1)
    cols = flat.shape[1]
    weight = np.array([bin(i).count("1") for i in range(2 ** k)])
    counts = np.bincount(weight).astype(float)
    bins = (weight[:, None] * cols + np.arange(cols)).ravel()
    size = (k + 1) * cols
    sums = np.bincount(bins, flat.real.ravel(), size) + 1j * np.bincount(bins, flat.imag.ravel(), size)
    means = sums.reshape(k + 1, cols) / counts[:, None]
    want = np.moveaxis(means[weight].reshape(axes.shape), range(k), subset).reshape(-1)
    assert np.array_equal(symmetrize(psi, subset).amplitudes, want)


def test_symmetrize_rejects_bad_subset():
    psi = dicke_state(DickeLabel(3, 1))
    with pytest.raises(ValueError):
        symmetrize(psi, [0, 0])
    with pytest.raises(IndexError):
        symmetrize(psi, [1, 3])


def test_dicke_reduced_density_on_a_window():
    rng = np.random.default_rng(4)
    n = 9
    for offset, size in ((0, 10), (3, 2), (8, 2), (4, 1), (2, 5)):
        window = rng.normal(size=size) + 1j * rng.normal(size=size)
        full = np.zeros(n + 1, dtype=complex)
        full[offset:offset + size] = window
        got = dicke_reduced_density(window, None, offset, n).matrix
        assert np.max(np.abs(got - dicke_reduced_density(full).matrix)) <= 1e-15
    for offset in (-1, 9):
        with pytest.raises(ValueError, match="window"):
            dicke_reduced_density([1, 1], None, offset, n)
