"""Polarization-qubit state algebra.

Kets, the Bell basis, density matrices with labelled qubits, composition and
reduction, fidelities, the correlation-matrix CHSH maximum, and
``density_payload``, the one JSON form of a state.

Basis convention: tensor powers of {H, V} with H before V, so two-qubit
vectors and matrices are ordered |HH>, |HV>, |VH>, |VV>.
"""
from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-8
NORM_ATOL = 1e-12

_ALLOWED_QUBIT_COUNTS = (1, 2, 4)
_SQRT_HALF = 1.0 / np.sqrt(2.0)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

# Single-qubit polarization kets used throughout (analyzers, tomography).
POLARIZATION_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex),
    "A": np.array([_SQRT_HALF, -_SQRT_HALF], dtype=complex),
    "R": np.array([_SQRT_HALF, 1j * _SQRT_HALF], dtype=complex),
    "L": np.array([_SQRT_HALF, -1j * _SQRT_HALF], dtype=complex),
}


class QStateError(ValueError):
    """Invalid state data or an operation on mismatched systems."""


class BellKind(Enum):
    """The four maximally entangled two-qubit states, in serialization order."""

    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"


_BELL_AMPLITUDES = {
    BellKind.PHI_PLUS: (_SQRT_HALF, 0.0, 0.0, _SQRT_HALF),
    BellKind.PHI_MINUS: (_SQRT_HALF, 0.0, 0.0, -_SQRT_HALF),
    BellKind.PSI_PLUS: (0.0, _SQRT_HALF, _SQRT_HALF, 0.0),
    BellKind.PSI_MINUS: (0.0, _SQRT_HALF, -_SQRT_HALF, 0.0),
}


def _qubit_count(dim: int) -> int:
    n = int(round(np.log2(dim))) if dim > 0 else 0
    if dim <= 0 or 2**n != dim or n not in _ALLOWED_QUBIT_COUNTS:
        raise QStateError(f"dimension {dim} is not 2^n for n in {_ALLOWED_QUBIT_COUNTS}")
    return n


@dataclass(frozen=True)
class PureState:
    """Normalized ket on 1, 2 or 4 polarization qubits."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        _qubit_count(amps.size)
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > NORM_ATOL:
            raise QStateError(f"ket squared norm {norm!r} deviates from 1 beyond {NORM_ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return _qubit_count(self.amplitudes.size)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def validate_density(mat: np.ndarray, element: Callable[[int], str] = "element {}".format) -> None:
    """Check that ``mat``, one (d, d) matrix or a (B, d, d) stack, holds density matrices.

    Each must be Hermitian, of unit trace and with no eigenvalue below
    EIGENVALUE_FLOOR. The QStateError names the first failing element of a
    stack by ``element(index)``.
    """
    stack = mat.reshape(-1, *mat.shape[-2:])
    adjoint = stack.conj().swapaxes(-1, -2)
    herm_err = np.abs(stack - adjoint).max(axis=(1, 2), initial=0.0)
    tr = stack.trace(axis1=1, axis2=2)
    lo = np.linalg.eigvalsh((stack + adjoint) / 2.0)[:, 0]
    bad = (herm_err > HERMITICITY_ATOL) | (np.abs(tr - 1.0) > TRACE_ATOL) | (lo < EIGENVALUE_FLOOR)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    prefix = f"{element(k)}: " if mat.ndim == 3 else ""
    if herm_err[k] > HERMITICITY_ATOL:
        raise QStateError(f"{prefix}matrix not Hermitian (max deviation {herm_err[k]:.3e})")
    if abs(tr[k] - 1.0) > TRACE_ATOL:
        raise QStateError(f"{prefix}trace {complex(tr[k])!r} deviates from 1 beyond {TRACE_ATOL}")
    raise QStateError(f"{prefix}smallest eigenvalue {lo[k]:.3e} below floor {EIGENVALUE_FLOOR}")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD operator on labelled polarization qubits."""

    matrix: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise QStateError(f"density matrix must be square, got shape {mat.shape}")
        n = _qubit_count(mat.shape[0])
        labels = tuple(str(l) for l in self.labels)
        if len(labels) != n:
            raise QStateError(f"{n} qubits need {n} labels, got {labels}")
        if len(set(labels)) != n:
            raise QStateError(f"duplicate qubit labels {labels}")
        validate_density(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "labels", labels)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def bell_state(kind: BellKind) -> PureState:
    """Normalized two-qubit Bell ket for the given kind."""
    return PureState(np.array(_BELL_AMPLITUDES[kind], dtype=complex))


def pure_density(state: PureState, labels: Sequence[str]) -> DensityMatrix:
    """Rank-one density matrix |psi><psi| with the given qubit labels."""
    v = state.amplitudes
    return DensityMatrix(np.outer(v, v.conj()), tuple(labels))


def bell_density(kind: BellKind, labels: Sequence[str] = ("X", "XX")) -> DensityMatrix:
    return pure_density(bell_state(kind), labels)


def maximally_mixed(labels: Sequence[str]) -> DensityMatrix:
    d = 2 ** len(tuple(labels))
    return DensityMatrix(np.eye(d, dtype=complex) / d, tuple(labels))


def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; labels concatenate in order (a then b)."""
    n = a.n_qubits + b.n_qubits
    if n not in _ALLOWED_QUBIT_COUNTS:
        raise QStateError(f"combined qubit count {n} exceeds the supported sizes")
    return DensityMatrix(np.kron(a.matrix, b.matrix), a.labels + b.labels)


def _as_tensor(rho: DensityMatrix) -> np.ndarray:
    n = rho.n_qubits
    return rho.matrix.reshape((2,) * (2 * n))


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduced state on the kept qubits, in their original label order."""
    keep_set = set(keep)
    unknown = keep_set - set(rho.labels)
    if unknown:
        raise QStateError(f"unknown labels {sorted(unknown)}; state has {rho.labels}")
    if not keep_set:
        raise QStateError("must keep at least one qubit")
    n = rho.n_qubits
    keep_idx = [i for i, l in enumerate(rho.labels) if l in keep_set]
    drop_idx = [i for i in range(n) if i not in keep_idx]
    ket = list(string.ascii_lowercase[:n])
    bra = list(string.ascii_lowercase[n : 2 * n])
    for i in drop_idx:
        bra[i] = ket[i]
    out = "".join(ket[i] for i in keep_idx) + "".join(bra[i] for i in keep_idx)
    sub = "".join(ket) + "".join(bra) + "->" + out
    k = len(keep_idx)
    reduced = np.einsum(sub, _as_tensor(rho)).reshape(2**k, 2**k)
    reduced = (reduced + reduced.conj().T) / 2.0
    return DensityMatrix(reduced, tuple(rho.labels[i] for i in keep_idx))


def permute_qubits(rho: DensityMatrix, new_order: Sequence[str]) -> DensityMatrix:
    """Reorder the tensor factors so labels appear in ``new_order``."""
    order = tuple(new_order)
    if sorted(order) != sorted(rho.labels):
        raise QStateError(f"{order} is not a permutation of {rho.labels}")
    n = rho.n_qubits
    perm = [rho.labels.index(l) for l in order]
    axes = perm + [p + n for p in perm]
    mat = _as_tensor(rho).transpose(axes).reshape(rho.dim, rho.dim)
    return DensityMatrix(mat, order)


def relabel(rho: DensityMatrix, labels: Sequence[str]) -> DensityMatrix:
    return DensityMatrix(rho.matrix.copy(), tuple(labels))


def fidelity_pure(rho: DensityMatrix, target: PureState) -> float:
    """Overlap <target|rho|target>, clamped to [0, 1]."""
    if rho.dim != target.dim:
        raise QStateError(f"dimension mismatch: state {rho.dim}, target {target.dim}")
    v = target.amplitudes
    f = float(np.real(v.conj() @ rho.matrix @ v))
    return min(max(f, 0.0), 1.0)


def _sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh(mat)
    root = np.sqrt(np.clip(evals, 0.0, None))
    return (vecs * root) @ vecs.conj().T


def fidelity_mixed(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, symmetric."""
    if rho.dim != sigma.dim:
        raise QStateError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    a = _sqrtm_psd(rho.matrix)
    inner = a @ sigma.matrix @ a
    inner = (inner + inner.conj().T) / 2.0
    evals = np.linalg.eigvalsh(inner)
    # Round-off leaves eigenvalues of order eps whose square roots would
    # otherwise dominate the error; they carry no weight.
    evals[evals < np.max(np.abs(evals)) * 1e-13] = 0.0
    f = float(np.sum(np.sqrt(np.clip(evals, 0.0, None))) ** 2)
    return min(max(f, 0.0), 1.0)


# Two-qubit Pauli products sigma_i x sigma_j, indexed [i, j].
_PAULI_PRODUCTS = np.array([[np.kron(si, sj) for sj in PAULIS] for si in PAULIS])


def correlation_matrix(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    """3x3 Pauli correlation matrix T_ij = Tr[rho sigma_i x sigma_j].

    A stack ``(B, 4, 4)`` of two-qubit matrices gives a ``(B, 3, 3)`` stack.
    """
    if isinstance(rho, DensityMatrix):
        if rho.n_qubits != 2:
            raise QStateError("correlation matrix is defined for two-qubit states")
        mat = rho.matrix
    else:
        mat = np.asarray(rho, dtype=complex)
        if mat.ndim != 3 or mat.shape[1:] != (4, 4):
            raise QStateError(f"expected a stack of 4x4 matrices, got shape {mat.shape}")
    # Each Pauli product has one nonzero per row, so the diagonal terms of
    # rho @ P are exact; they are summed in the pairing np.trace uses.
    diag = np.einsum("...ab,ijba->...ija", mat, _PAULI_PRODUCTS).real
    return (diag[..., 0] + diag[..., 1]) + (diag[..., 2] + diag[..., 3])


def horodecki_s(rho: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """Maximal CHSH value 2*sqrt(m1+m2) from the two largest eigenvalues of T^T T.

    A float for one state, an array of shape ``(B,)`` for a stack ``(B, 4, 4)``.
    """
    t = correlation_matrix(rho)
    m = np.sort(np.linalg.eigvalsh(np.swapaxes(t, -1, -2) @ t), axis=-1)
    s = np.minimum(2.0 * np.sqrt(np.maximum(m[..., -1] + m[..., -2], 0.0)), 2.0 * np.sqrt(2.0))
    return s if s.ndim else float(s)


def project_to_physical(matrix: np.ndarray, labels: Sequence[str] | None = None):
    """Nearest (Frobenius) unit-trace PSD matrix to a Hermitian input.

    Eigenvalues are projected onto the probability simplex: clip below a
    common water level chosen so the surviving values sum to one. A single
    ``(d, d)`` matrix gives a DensityMatrix; a stack ``(B, d, d)`` is
    projected element by element and returned as an array of that shape
    (``labels`` is then unused).
    """
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2]:
        raise QStateError(f"expected a square matrix or a stack of them, got shape {mat.shape}")
    adjoint = mat.conj().swapaxes(-1, -2)
    herm_err = float(np.max(np.abs(mat - adjoint), initial=0.0))
    if herm_err > 1e-8:
        raise QStateError(f"input not Hermitian (max deviation {herm_err:.3e})")
    if np.any(np.max(np.abs(mat), axis=(-2, -1)) == 0.0):
        raise QStateError("cannot project the zero matrix onto the state space")
    if mat.ndim == 3:
        return _simplex_projection(mat)
    labels = tuple(f"Q{i}" for i in range(_qubit_count(mat.shape[-1]))) if labels is None else labels
    return DensityMatrix(_simplex_projection(mat), tuple(labels))


def _simplex_projection(mat: np.ndarray) -> np.ndarray:
    """``project_to_physical`` of a complex Hermitian nonzero matrix or stack, unchecked, as an array."""
    mat = (mat + mat.conj().swapaxes(-1, -2)) / 2.0
    d = mat.shape[-1]
    evals, vecs = np.linalg.eigh(mat)
    mu = evals[..., ::-1]  # eigh sorts ascending
    water = (np.cumsum(mu, axis=-1) - 1.0) / np.arange(1, d + 1)
    # Last index whose eigenvalue stays above its water level.
    k = d - 1 - np.argmax((mu - water > 0)[..., ::-1], axis=-1)
    lam = np.clip(evals - np.take_along_axis(water, k[..., None], axis=-1), 0.0, None)
    lam = lam / np.sum(lam, axis=-1, keepdims=True)
    out = (vecs * lam[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    return (out + out.conj().swapaxes(-1, -2)) / 2.0


def density_payload(matrix: np.ndarray, labels: Sequence[str]) -> dict:
    """JSON-ready dict of one density matrix: row-major real/imaginary parts."""
    flat = matrix.reshape(-1)
    return {
        "dim": matrix.shape[0],
        "labels": list(labels),
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }

