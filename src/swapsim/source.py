"""Quantum-dot cascade source model.

Each emitted pair starts as an ideal Phi+ state on (X, XX) and is degraded by
a configurable noise channel whose strength can be calibrated against a target
pair fidelity.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qstate import BellKind, DensityMatrix, QStateError, bell_density, relabel

# Reduced Planck constant in ueV * ns.
HBAR_UEV_NS = 0.6582119


class SourceError(ValueError):
    """Invalid source parameters or an unreachable calibration target."""


class NoiseKind(Enum):
    DEPHASING = "dephasing"
    DEPOLARIZING = "depolarizing"
    FSS_PHASE_DIFFUSION = "fss"


@dataclass(frozen=True)
class NoiseModel:
    """One noise channel acting on an emitted pair.

    ``strength`` is used by the dephasing and depolarizing kinds;
    ``fss_uev`` and ``t1_x_ns`` parameterize the phase-diffusion kind.
    """

    kind: NoiseKind
    strength: float = 0.0
    fss_uev: float = 0.0
    t1_x_ns: float = 0.25

    def __post_init__(self):
        if self.kind in (NoiseKind.DEPHASING, NoiseKind.DEPOLARIZING):
            if not 0.0 <= self.strength <= 1.0:
                raise SourceError(f"noise strength {self.strength} outside [0, 1]")
        if not self.fss_uev >= 0.0:
            raise SourceError(f"fine-structure splitting {self.fss_uev} must be >= 0")
        if not 0.0 < self.t1_x_ns < math.inf:  # NaN fails it too
            raise SourceError(f"exciton lifetime {self.t1_x_ns} must be positive and finite")


def dephasing(strength: float) -> NoiseModel:
    return NoiseModel(NoiseKind.DEPHASING, strength=strength)


def depolarizing(strength: float) -> NoiseModel:
    return NoiseModel(NoiseKind.DEPOLARIZING, strength=strength)


def fss_phase_diffusion(fss_uev: float, t1_x_ns: float) -> NoiseModel:
    return NoiseModel(NoiseKind.FSS_PHASE_DIFFUSION, fss_uev=fss_uev, t1_x_ns=t1_x_ns)


@dataclass(frozen=True)
class SourceParams:
    """Per-emission pair fidelities, the channel kind and the exciton lifetime.

    The channel strength is not a parameter: ``emit_pair`` calibrates it from
    the kind and the fidelity target.
    """

    f1: float = 0.9369
    f2: float = 0.9267
    model: NoiseKind = NoiseKind.DEPHASING
    t1_x_ns: float = 0.25

    def __post_init__(self):
        for f in (self.f1, self.f2):
            if not 0.25 <= f <= 1.0:
                raise SourceError(f"target fidelity {f} outside [0.25, 1]")
        if not 0.0 < self.t1_x_ns < math.inf:  # NaN fails it too
            raise SourceError(f"exciton lifetime {self.t1_x_ns} must be positive and finite")


def ideal_pair() -> DensityMatrix:
    """Perfect Phi+ pair on labels (X, XX)."""
    return bell_density(BellKind.PHI_PLUS, ("X", "XX"))


def fss_coherence_factor(fss_uev: float, t1_x_ns: float) -> float:
    """|<exp(i S t / hbar)>| for an exponential emission-time distribution."""
    x = fss_uev * t1_x_ns / HBAR_UEV_NS
    return 1.0 / np.sqrt(1.0 + x * x)


def _scale_cross_coherence(mat: np.ndarray, factor: float) -> np.ndarray:
    # Phase randomization between the H and V sectors of the first qubit:
    # coherences crossing the block boundary (including HH<->VV) shrink,
    # diagonals stay put. Completely positive for factor in [0, 1].
    out = mat.copy()
    out[:2, 2:] *= factor
    out[2:, :2] *= factor
    return out


def apply_noise(rho: DensityMatrix, model: NoiseModel) -> DensityMatrix:
    """Apply one noise channel to a two-qubit pair state."""
    if rho.n_qubits != 2:
        raise QStateError("noise channels act on two-qubit pair states")
    if model.kind is NoiseKind.DEPHASING:
        mat = _scale_cross_coherence(rho.matrix, 1.0 - model.strength)
    elif model.kind is NoiseKind.DEPOLARIZING:
        lam = model.strength
        mat = (1.0 - lam) * rho.matrix + lam * np.eye(4, dtype=complex) / 4.0
    elif model.kind is NoiseKind.FSS_PHASE_DIFFUSION:
        mat = _scale_cross_coherence(
            rho.matrix, fss_coherence_factor(model.fss_uev, model.t1_x_ns)
        )
    else:  # pragma: no cover
        raise SourceError(f"unhandled noise kind {model.kind}")
    return DensityMatrix(mat, rho.labels)


def calibrate(target_fidelity: float, kind: NoiseKind, t1_x_ns: float = 0.25) -> NoiseModel:
    """Return a channel whose output pair has the requested Phi+ fidelity.

    Closed forms for every kind. Phase diffusion gives f = (1 + c)/2 with
    coherence c = 1/sqrt(1 + x^2), x = S t1/hbar, so the splitting is
    S = hbar/t1 sqrt((1 - c)(1 + c))/c.
    """
    f = float(target_fidelity)
    if not 0.25 < f <= 1.0:
        raise SourceError(f"target fidelity {f} outside the invertible range (0.25, 1]")
    if kind is NoiseKind.DEPHASING:
        if f < 0.5:
            raise SourceError(f"dephasing cannot reach fidelity {f} below 0.5")
        return dephasing(2.0 * (1.0 - f))
    if kind is NoiseKind.DEPOLARIZING:
        return depolarizing(4.0 * (1.0 - f) / 3.0)
    if kind is NoiseKind.FSS_PHASE_DIFFUSION:
        if f <= 0.5:
            raise SourceError(f"phase diffusion cannot reach fidelity {f} at or below 0.5")
        c = 2.0 * f - 1.0
        return fss_phase_diffusion(HBAR_UEV_NS / t1_x_ns * math.sqrt((1.0 - c) * (1.0 + c)) / c, t1_x_ns)
    raise SourceError(f"unhandled noise kind {kind}")  # pragma: no cover


def emit_pair(params: SourceParams, which: int) -> DensityMatrix:
    """Calibrated noisy pair for emission 1 or 2, labelled (X1, XX1) or (X2, XX2)."""
    if which not in (1, 2):
        raise SourceError(f"emission index must be 1 or 2, got {which}")
    target = params.f1 if which == 1 else params.f2
    model = calibrate(target, params.model, t1_x_ns=params.t1_x_ns)
    noisy = apply_noise(ideal_pair(), model)
    return relabel(noisy, (f"X{which}", f"XX{which}"))
