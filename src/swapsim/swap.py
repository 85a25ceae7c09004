"""Entanglement-swapping pipeline.

Compose two emitted pairs into the four-photon state, apply the heralding
coincidence POVM, and report the heralded two-photon state together with its
fidelity, CHSH value and heralding probability. Gate-width prediction curves
combine this with the gate response of the heralding-measurement settings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from typing import ClassVar

import numpy as np

from .interference import (
    BsmPovm,
    BsmSettings,
    InterferenceError,
    bsm_povm,
    convention_bell_state,
    gate_response,
)
from .qstate import (
    DensityMatrix,
    QStateError,
    fidelity_pure,
    horodecki_s,
    partial_trace,
    permute_qubits,
    tensor,
    validate_density,
)
from .source import SourceParams, emit_pair

SWAP_LABELS = ("X1", "X2", "XX1", "XX2")


class SwapError(ValueError):
    """Invalid swap-pipeline input or a vanishing heralding probability."""


def _range_error(fidelity: float, s_value: float, herald_prob: float) -> str | None:
    """What lies outside its range, if anything: fidelity in [0, 1], CHSH value
    in [0, 2 sqrt2], heralding probability in [0, 1/2]."""
    if not 0.0 <= fidelity <= 1.0:
        return f"fidelity {fidelity} outside [0, 1]"
    if not 0.0 <= s_value <= 2.0 * math.sqrt(2.0) + 1e-12:
        return f"CHSH value {s_value} outside [0, 2*sqrt(2)]"
    if not 0.0 <= herald_prob <= 0.5:
        return f"heralding probability {herald_prob} outside [0, 1/2]"
    return None


@dataclass(frozen=True)
class SwapResult:
    """Heralded state and derived scalars for one gate configuration."""

    rho_ab: DensityMatrix
    fidelity: float
    s_value: float
    herald_prob: float
    gate_ps: float = math.inf
    i_eff: float = 1.0
    rate_factor: float = 1.0

    def __post_init__(self):
        error = _range_error(self.fidelity, self.s_value, self.herald_prob)
        if error:
            raise SwapError(error)


@dataclass(frozen=True, eq=False)
class SwapCurve(Sequence):
    """Swap outcome at each gate width, one entry per gate in every column.

    ``rho`` is the (G, 4, 4) stack of heralded states on (X1, X2), which
    ``predict`` validates in one call; indexing builds one gate's SwapResult.
    """

    labels: ClassVar[tuple[str, str]] = ("X1", "X2")
    gate_ps: tuple[float, ...]
    rho: np.ndarray
    i_eff: np.ndarray
    fidelity: np.ndarray
    s_value: np.ndarray
    herald_prob: np.ndarray
    rate_factor: np.ndarray

    def __len__(self) -> int:
        return len(self.gate_ps)

    def __getitem__(self, k: int) -> SwapResult:
        return SwapResult(
            DensityMatrix(self.rho[k], self.labels),
            float(self.fidelity[k]),
            float(self.s_value[k]),
            float(self.herald_prob[k]),
            self.gate_ps[k],
            float(self.i_eff[k]),
            float(self.rate_factor[k]),
        )


def compose(rho1: DensityMatrix, rho2: DensityMatrix) -> DensityMatrix:
    """Product of the two pair states, reordered to (X1, X2, XX1, XX2)."""
    if rho1.n_qubits != 2 or rho2.n_qubits != 2:
        raise SwapError("compose expects two two-qubit pair states")
    joint = tensor(rho1, rho2)
    order = (rho1.labels[0], rho2.labels[0], rho1.labels[1], rho2.labels[1])
    return permute_qubits(joint, order)


def herald(rho4: DensityMatrix, povm: BsmPovm) -> SwapResult:
    """Condition the four-photon state on a heralding coincidence.

    p = Tr[(1 x E) rho4]; the heralded state is the partial trace over the
    interfering photons of (1 x E) rho4, renormalized by p.
    """
    if rho4.n_qubits != 4:
        raise SwapError("herald expects a four-qubit state")
    if rho4.labels != SWAP_LABELS:
        raise SwapError(f"state must carry labels {SWAP_LABELS} in order, got {rho4.labels}")
    op = np.kron(np.eye(4, dtype=complex), povm.matrix)
    weighted = op @ rho4.matrix
    p = float(np.real(np.trace(weighted)))
    if p < 1e-12:
        raise SwapError(f"heralding probability {p:.3e} vanishes")
    # Partial trace over (XX1, XX2); cyclic invariance inside the traced
    # factor makes this Hermitian up to round-off.
    t = weighted.reshape((2,) * 8)
    reduced = np.einsum("abcdefcd->abef", t).reshape(4, 4)
    reduced = (reduced + reduced.conj().T) / 2.0 / p
    rho_ab = DensityMatrix(reduced, ("X1", "X2"))
    target = convention_bell_state(povm.convention)
    return SwapResult(
        rho_ab=rho_ab,
        fidelity=fidelity_pure(rho_ab, target),
        s_value=horodecki_s(rho_ab),
        herald_prob=p,
        i_eff=povm.indistinguishability,
    )


def control_no_heralding(rho4: DensityMatrix) -> DensityMatrix:
    """Two-photon state shared without conditioning on the heralding signal."""
    if rho4.n_qubits != 4:
        raise SwapError("control expects a four-qubit state")
    return partial_trace(rho4, ("X1", "X2"))


def predict(
    params: SourceParams, bsm: BsmSettings, gates_ps: Sequence[float], offsets_ps: float | Sequence[float] = 0.0
) -> SwapCurve:
    """Swap outcome versus detection gate width and BSM delay offset (one
    offset, or one per gate).

    For each gate the effective indistinguishability I (with ``bsm``'s
    intrinsic limit) feeds the heralding POVM of ``bsm``'s convention, and the
    heralding probability is scaled by the surviving-coincidence fraction of
    that gate; ``bsm``'s own gate is ignored. The heralded state is affine in
    I: with n0, n1 and p0, p1 the unnormalised states and probabilities
    heralded at I = 0 and 1, it is ((1 - I) n0 + I n1) / p(I),
    p(I) = (1 - I) p0 + I p1.
    """
    gates = tuple(gates_ps)
    i_eff, factor = gate_response(bsm, gates, offsets_ps)
    if not np.all((i_eff >= 0.0) & (i_eff <= 1.0)):
        raise InterferenceError(f"indistinguishability {i_eff.min()}..{i_eff.max()} outside [0, 1]")
    rho4 = compose(emit_pair(params, 1), emit_pair(params, 2))
    ends = [herald(rho4, bsm_povm(i, bsm.convention)) for i in (0.0, 1.0)]
    p = (1.0 - i_eff) * ends[0].herald_prob + i_eff * ends[1].herald_prob
    if np.any(p < 1e-12):
        raise SwapError(f"heralding probability {p.min():.3e} vanishes")
    w = i_eff[:, None, None]
    n0, n1 = (r.herald_prob * r.rho_ab.matrix for r in ends)
    rho = ((1.0 - w) * n0 + w * n1) / p[:, None, None]
    target = convention_bell_state(bsm.convention).amplitudes
    fidelity = np.clip(np.einsum("i,gij,j->g", target.conj(), rho, target).real, 0.0, 1.0)
    s_value, prob = horodecki_s(rho), p * factor
    validate_density(rho, lambda k: f"gate {gates[k]} ps")
    for gate, *values in zip(gates, fidelity.tolist(), s_value.tolist(), prob.tolist()):
        error = _range_error(*values)
        if error:
            raise SwapError(f"gate {gate} ps: {error}")
    return SwapCurve(gates, rho, i_eff, fidelity, s_value, prob, factor)


@dataclass(frozen=True)
class BoundCheck:
    """Entanglement witness and Bell-violation verdict with margins."""

    witness_passed: bool
    witness_margin: float
    bell_violated: bool
    bell_margin: float


def classical_bound_check(result: SwapResult) -> BoundCheck:
    """Flag fidelity above the classical 0.5 bound and CHSH above 2."""
    return BoundCheck(
        witness_passed=result.fidelity > 0.5,
        witness_margin=result.fidelity - 0.5,
        bell_violated=result.s_value > 2.0,
        bell_margin=result.s_value - 2.0,
    )
