import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chsh_angle_scan, pauli_expectations, random_density
from swapsim.qstate import (
    EIGENVALUE_FLOOR,
    TRACE_ATOL,
    BellKind,
    DensityMatrix,
    PureState,
    QStateError,
    bell_density,
    bell_state,
    correlation_matrix,
    fidelity_mixed,
    fidelity_pure,
    horodecki_s,
    maximally_mixed,
    partial_trace,
    permute_qubits,
    project_to_physical,
    pure_density,
    tensor,
    validate_density,
    _simplex_projection,
)

S = 1 / math.sqrt(2)


def test_bell_amplitudes():
    np.testing.assert_allclose(bell_state(BellKind.PHI_PLUS).amplitudes, [S, 0, 0, S])
    np.testing.assert_allclose(bell_state(BellKind.PSI_MINUS).amplitudes, [0, S, -S, 0])


def test_bell_basis_orthonormal():
    kets = [bell_state(k).amplitudes for k in BellKind]
    gram = np.array([[abs(np.vdot(a, b)) ** 2 for b in kets] for a in kets])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-15)


def test_pure_state_validation():
    with pytest.raises(QStateError):
        PureState(np.array([1.0, 1.0]))
    with pytest.raises(QStateError):
        PureState(np.array([1.0, 0, 0, 0, 0, 0, 0, 0]))  # 3 qubits unsupported


def test_density_matrix_validation():
    good = bell_density(BellKind.PHI_PLUS)
    assert good.n_qubits == 2
    mat = good.matrix.copy()
    mat[0, 0] += 0.1
    with pytest.raises(QStateError):
        DensityMatrix(mat, ("X", "XX"))
    mat = good.matrix.copy()
    mat[0, 3] += 0.2  # breaks Hermiticity beyond tolerance
    with pytest.raises(QStateError):
        DensityMatrix(mat, ("X", "XX"))
    with pytest.raises(QStateError):
        DensityMatrix(np.diag([1.2, -0.2, 0, 0]).astype(complex), ("X", "XX"))
    with pytest.raises(QStateError):
        DensityMatrix(good.matrix, ("X", "X"))


def test_validate_density_names_the_bad_element():
    rng = np.random.default_rng(9)
    gates = [10.0, 20.0, 30.0, 40.0]
    stack = np.stack([random_density(rng) for _ in gates])
    validate_density(stack)
    non_hermitian, trace_off, negative = stack.copy(), stack.copy(), stack.copy()
    non_hermitian[1, 0, 3] += 0.2
    trace_off[2] *= 1.1
    negative[3] = np.diag([1.2, -0.2, 0.0, 0.0])
    cases = (
        (non_hermitian, "gate 20.0 ps: matrix not Hermitian"),
        (trace_off, "gate 30.0 ps: trace"),
        (negative, "gate 40.0 ps: smallest eigenvalue -2.000e-01"),
    )
    for bad, message in cases:
        with pytest.raises(QStateError, match=f"^{message}"):
            validate_density(bad, lambda k: f"gate {gates[k]} ps")
    # All three in one stack: the first bad element is reported.
    mixed = stack.copy()
    mixed[1:] = non_hermitian[1], trace_off[2], negative[3]
    with pytest.raises(QStateError, match="^element 1: matrix not Hermitian"):
        validate_density(mixed)
    # A single matrix keeps the unprefixed message of DensityMatrix.
    with pytest.raises(QStateError, match="^smallest eigenvalue"):
        validate_density(negative[3])
    with pytest.raises(QStateError, match="^smallest eigenvalue"):
        DensityMatrix(negative[3], ("X", "XX"))


def test_tensor_product_and_trace():
    phi = bell_density(BellKind.PHI_PLUS, ("X1", "XX1"))
    phi2 = bell_density(BellKind.PHI_PLUS, ("X2", "XX2"))
    prod = tensor(phi, phi2)
    assert prod.dim == 16
    assert abs(np.trace(prod.matrix) - 1) < 1e-14
    evals = np.linalg.eigvalsh(prod.matrix)
    assert np.sum(evals > 1e-10) == 1  # rank one

    half = maximally_mixed(("A",))
    quarter = tensor(half, maximally_mixed(("B",)))
    np.testing.assert_allclose(quarter.matrix, np.eye(4) / 4, atol=1e-15)


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(7)
    a = DensityMatrix(random_density(rng, 4), ("A", "B"))
    b = DensityMatrix(random_density(rng, 4), ("C", "D"))
    joint = tensor(a, b)
    assert abs(np.trace(joint.matrix) - np.trace(a.matrix) * np.trace(b.matrix)) < 1e-12


def test_tensor_dimension_overflow():
    four = tensor(
        bell_density(BellKind.PHI_PLUS, ("A", "B")), bell_density(BellKind.PHI_PLUS, ("C", "D"))
    )
    with pytest.raises(QStateError):
        tensor(four, maximally_mixed(("E",)))


def test_partial_trace_bell_marginal():
    rho = bell_density(BellKind.PHI_PLUS, ("X", "XX"))
    red = partial_trace(rho, ("X",))
    np.testing.assert_allclose(red.matrix, np.eye(2) / 2, atol=1e-15)
    assert red.labels == ("X",)


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(11)
    a = DensityMatrix(random_density(rng, 4), ("A", "B"))
    b = DensityMatrix(random_density(rng, 4), ("C", "D"))
    joint = tensor(a, b)
    back = partial_trace(joint, ("A", "B"))
    np.testing.assert_allclose(back.matrix, a.matrix, atol=1e-12)
    # entangled states are not products of their marginals
    phi = bell_density(BellKind.PHI_PLUS, ("X", "XX"))
    marg = tensor(partial_trace(phi, ("X",)), partial_trace(phi, ("XX",)))
    assert np.max(np.abs(marg.matrix - phi.matrix)) > 0.2


def test_partial_trace_four_photon_control():
    phi1 = bell_density(BellKind.PHI_PLUS, ("X1", "XX1"))
    phi2 = bell_density(BellKind.PHI_PLUS, ("X2", "XX2"))
    joint = tensor(phi1, phi2)
    red = partial_trace(joint, ("X1", "X2"))
    # independent elementwise oracle: direct sum over traced indices
    t = joint.matrix.reshape((2,) * 8)
    expect = np.zeros((2, 2, 2, 2), dtype=complex)
    for x1 in range(2):
        for x2 in range(2):
            for y1 in range(2):
                for y2 in range(2):
                    acc = 0.0 + 0j
                    for a in range(2):
                        for b in range(2):
                            acc += t[x1, a, x2, b, y1, a, y2, b]
                    expect[x1, x2, y1, y2] = acc
    np.testing.assert_allclose(red.matrix, expect.reshape(4, 4), atol=1e-14)
    np.testing.assert_allclose(red.matrix, np.eye(4) / 4, atol=1e-14)


def test_partial_trace_unknown_label():
    rho = bell_density(BellKind.PHI_PLUS, ("X", "XX"))
    with pytest.raises(QStateError):
        partial_trace(rho, ("nope",))
    with pytest.raises(QStateError):
        partial_trace(rho, ())


def test_permute_qubits_round_trip():
    rng = np.random.default_rng(3)
    rho = DensityMatrix(random_density(rng, 4), ("A", "B"))
    flipped = permute_qubits(rho, ("B", "A"))
    assert flipped.labels == ("B", "A")
    back = permute_qubits(flipped, ("A", "B"))
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)
    # reduction commutes with reordering
    np.testing.assert_allclose(
        partial_trace(flipped, ("A",)).matrix, partial_trace(rho, ("A",)).matrix, atol=1e-14
    )


def test_fidelity_pure_examples():
    psi = bell_state(BellKind.PSI_PLUS)
    assert fidelity_pure(bell_density(BellKind.PSI_PLUS), psi) == pytest.approx(1.0, abs=1e-14)
    assert fidelity_pure(maximally_mixed(("A", "B")), psi) == pytest.approx(0.25, abs=1e-14)
    classical = DensityMatrix(np.diag([0, 0.5, 0.5, 0]).astype(complex), ("A", "B"))
    assert fidelity_pure(classical, psi) == pytest.approx(0.5, abs=1e-14)
    with pytest.raises(QStateError):
        fidelity_pure(maximally_mixed(("A",)), psi)


def test_fidelity_mixed():
    rng = np.random.default_rng(5)
    rho = DensityMatrix(random_density(rng, 4), ("A", "B"))
    assert fidelity_mixed(rho, rho) == pytest.approx(1.0, abs=1e-10)
    quarter = maximally_mixed(("A", "B"))
    assert fidelity_mixed(quarter, quarter) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_mixed(
        bell_density(BellKind.PHI_PLUS), bell_density(BellKind.PSI_PLUS)
    ) == pytest.approx(0.0, abs=1e-12)
    # agrees with the pure-target formula when one argument is pure
    target = bell_state(BellKind.PHI_PLUS)
    assert fidelity_mixed(rho, bell_density(BellKind.PHI_PLUS, ("A", "B"))) == pytest.approx(
        fidelity_pure(rho, target), abs=1e-10
    )
    # symmetry
    sigma = DensityMatrix(random_density(rng, 4), ("A", "B"))
    assert fidelity_mixed(rho, sigma) == pytest.approx(fidelity_mixed(sigma, rho), abs=1e-10)


def test_horodecki_known_values():
    assert horodecki_s(bell_density(BellKind.PSI_PLUS)) == pytest.approx(
        2 * math.sqrt(2), abs=1e-12
    )
    assert horodecki_s(maximally_mixed(("A", "B"))) == pytest.approx(0.0, abs=1e-12)
    u = 0.569
    mat = np.zeros((4, 4), dtype=complex)
    mat[1, 1] = mat[2, 2] = 0.5
    mat[1, 2] = mat[2, 1] = u / 2
    rho = DensityMatrix(mat, ("A", "B"))
    assert horodecki_s(rho) == pytest.approx(2 * math.sqrt(1 + u * u), abs=1e-12)


def test_horodecki_agrees_with_angle_scan():
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in range(100):
        rho = random_density(rng, 4)
        s_formula = horodecki_s(DensityMatrix(rho, ("A", "B")))
        s_scan = chsh_angle_scan(rho, seed=k)
        worst = max(worst, abs(s_formula - s_scan))
    assert worst < 1e-3


def test_correlation_and_chsh_of_a_stack():
    rng = np.random.default_rng(7)
    mats = [random_density(rng, 4) for _ in range(50)]
    mats += [bell_density(BellKind.PSI_PLUS).matrix, maximally_mixed(("A", "B")).matrix]
    stack = np.stack(mats)
    t, s = correlation_matrix(stack), horodecki_s(stack)
    assert t.shape == (52, 3, 3) and s.shape == (52,)
    for k, mat in enumerate(mats):
        rho = DensityMatrix(mat, ("A", "B"))
        np.testing.assert_allclose(t[k], pauli_expectations(mat), rtol=0, atol=1e-12)
        assert np.array_equal(t[k], correlation_matrix(rho))
        assert abs(s[k] - horodecki_s(rho)) <= 1e-12
    assert isinstance(horodecki_s(DensityMatrix(mats[0], ("A", "B"))), float)
    for bad in (mats[0], np.zeros((3, 2, 2))):
        with pytest.raises(QStateError):
            correlation_matrix(bad)


def test_project_to_physical():
    rho = bell_density(BellKind.PHI_PLUS)
    fixed = project_to_physical(rho.matrix, ("X", "XX"))
    np.testing.assert_allclose(fixed.matrix, rho.matrix, atol=1e-12)

    projected = project_to_physical(np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex))
    np.testing.assert_allclose(projected.matrix, np.diag([1, 0, 0, 0]), atol=1e-12)

    rng = np.random.default_rng(9)
    h = rng.normal(size=(4, 4))
    h = (h + h.T) / 2
    out = project_to_physical(h.astype(complex))
    evals = np.linalg.eigvalsh(out.matrix)
    assert evals.min() >= -1e-14
    assert abs(np.trace(out.matrix) - 1) < 1e-12

    # a stack is projected element by element
    stack = np.stack([rho.matrix, np.diag([1.1, -0.1, 0.0, 0.0]), h]).astype(complex)
    for single, projected in zip(stack, project_to_physical(stack)):
        np.testing.assert_allclose(projected, project_to_physical(single).matrix, atol=1e-14)

    with pytest.raises(QStateError):
        project_to_physical(np.zeros((4, 4), dtype=complex))
    with pytest.raises(QStateError):
        project_to_physical(np.array([[0, 1], [0, 0]], dtype=complex))


@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.sampled_from([2, 4]),
    batch=st.integers(0, 4),
    scale=st.sampled_from([1e-6, 1e-2, 1.0, 1e3]),
    shift=st.floats(-2.0, 2.0),
)
@settings(max_examples=200)
def test_projection_is_a_state_and_fixes_states(seed, dim, batch, scale, shift):
    # A random Hermitian matrix, or a stack of `batch` of them, projects to
    # unit-trace PSD matrices that a second projection leaves in place; a
    # valid state (full rank or pure) projects to itself.
    rng = np.random.default_rng(seed)
    shape = (batch, dim, dim) if batch else (dim, dim)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h = scale * (a + a.conj().swapaxes(-1, -2)) / 2.0 + shift * np.eye(dim)
    out = project_to_physical(h)
    out = out if batch else out.matrix
    assert np.array_equal(_simplex_projection(h), out)  # the unchecked core the MLE calls
    assert np.all(np.abs(np.trace(out, axis1=-2, axis2=-1) - 1.0) <= TRACE_ATOL)
    assert np.linalg.eigvalsh(out).min() >= EIGENVALUE_FLOOR
    again = project_to_physical(out)
    assert np.max(np.abs((again if batch else again.matrix) - out)) <= 1e-12
    ket = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for rho in (random_density(rng, dim), np.outer(ket, ket.conj()) / np.vdot(ket, ket).real):
        assert np.max(np.abs(project_to_physical(rho).matrix - rho)) <= 1e-12


def test_project_is_nearest_on_eigenvalues():
    # projection must beat naive clip-and-renormalize in Frobenius distance
    h = np.diag([0.9, 0.4, -0.2, -0.1]).astype(complex)
    proj = project_to_physical(h).matrix
    clipped = np.diag(np.clip(np.diag(h).real, 0, None))
    clipped = clipped / np.trace(clipped)
    assert np.linalg.norm(proj - h) <= np.linalg.norm(clipped - h) + 1e-12


def test_pure_density_and_labels():
    rho = pure_density(bell_state(BellKind.PSI_MINUS), ("a", "b"))
    assert rho.labels == ("a", "b")
    assert fidelity_pure(rho, bell_state(BellKind.PSI_MINUS)) == pytest.approx(1.0, abs=1e-14)
