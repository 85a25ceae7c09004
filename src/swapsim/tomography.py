"""Two-qubit polarization state tomography.

Projector settings, Born-rule count simulation, least-squares linear
inversion, maximum-likelihood reconstruction, and parametric bootstrap error
bars. The MLE is one batched accelerated projected-gradient solver on
stacks of density matrices; a bootstrap solves all its resamples at once.
"""
from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .qstate import (
    BellKind,
    DensityMatrix,
    QStateError,
    bell_state,
    horodecki_s,
    POLARIZATION_KETS,
    _simplex_projection,
)

SETTING_NAMES_16 = ("H", "V", "D", "R")
SETTING_NAMES_36 = ("H", "V", "D", "A", "R", "L")
_PROJECTORS = {name: np.outer(ket, ket.conj()) for name, ket in POLARIZATION_KETS.items()}


class TomographyError(ValueError):
    """Invalid tomography data or configuration."""


class MleConvergenceError(RuntimeError):
    """Maximum-likelihood ascent failed to reach the gradient tolerance."""


@dataclass(frozen=True)
class MeasurementSetting:
    """Pair of single-qubit polarization projectors."""

    projector_a: str
    projector_b: str

    def __post_init__(self):
        for name in (self.projector_a, self.projector_b):
            if name not in POLARIZATION_KETS:
                raise TomographyError(f"unknown projector {name!r}")

    def operator(self) -> np.ndarray:
        return np.kron(_PROJECTORS[self.projector_a], _PROJECTORS[self.projector_b])


@dataclass(frozen=True)
class TomographyRun:
    """Settings with measured (or simulated) counts and acquisition weights.

    Counts may be fractional to support exact-probability studies; measured
    data carries integers.
    """

    settings: tuple[MeasurementSetting, ...]
    counts: np.ndarray
    exposures: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=float).reshape(-1)
        if counts.size != len(self.settings):
            raise TomographyError(f"{counts.size} counts for {len(self.settings)} settings")
        exposures = np.ones(counts.size) if self.exposures is None else self.exposures
        exposures = np.asarray(exposures, dtype=float).reshape(-1)
        if exposures.size != counts.size:
            raise TomographyError("exposures length must match settings")
        _check_counts(counts, exposures)
        counts.setflags(write=False)
        exposures.setflags(write=False)
        object.__setattr__(self, "settings", tuple(self.settings))
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "exposures", exposures)


def _check_counts(counts: np.ndarray | float, exposures: np.ndarray | float) -> None:
    # Written so that a NaN fails each test.
    if not np.all(np.isfinite(counts) & (counts >= 0)):
        raise TomographyError("counts must be finite and non-negative")
    if not np.all(np.isfinite(exposures) & (exposures > 0)):
        raise TomographyError("exposures must be finite and positive")


def standard_settings(kind: int) -> list[MeasurementSetting]:
    """The 16-setting {H,V,D,R}^2 grid or the overcomplete 36-setting grid."""
    names = {16: SETTING_NAMES_16, 36: SETTING_NAMES_36}.get(kind)
    if names is None:
        raise TomographyError(f"setting count must be 16 or 36, got {kind}")
    return [MeasurementSetting(a, b) for a in names for b in names]


def _operators(settings: Sequence[MeasurementSetting]) -> np.ndarray:
    """Every setting's ``operator()``, the Kronecker product taken by broadcasting."""
    a = np.stack([_PROJECTORS[s.projector_a] for s in settings])
    b = np.stack([_PROJECTORS[s.projector_b] for s in settings])
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(len(settings), 4, 4)


def born_probabilities(rho: DensityMatrix, settings: Sequence[MeasurementSetting]) -> np.ndarray:
    if rho.n_qubits != 2:
        raise QStateError("tomography operates on two-qubit states")
    return np.real(np.einsum("sij,ji->s", _operators(settings), rho.matrix))


def simulate_counts(
    rho: DensityMatrix,
    settings: Sequence[MeasurementSetting],
    total_per_setting: float,
    rng_seed: int,
    exposures: Sequence[float] | None = None,
) -> TomographyRun:
    """Poisson counts with mean N * exposure * <P_a x P_b>, seed-deterministic."""
    if total_per_setting <= 0:
        raise TomographyError("total_per_setting must be positive")
    probs = np.clip(born_probabilities(rho, settings), 0.0, None)
    expo = np.ones(len(settings)) if exposures is None else np.asarray(exposures, float)
    rng = np.random.default_rng(rng_seed)
    counts = rng.poisson(total_per_setting * expo * probs)
    return TomographyRun(tuple(settings), counts.astype(float), expo)


def _born_map(settings: Sequence[MeasurementSetting]) -> tuple[np.ndarray, np.ndarray]:
    """Projectors as real ``(S, 32)`` rows and the pseudo-inverse of the rank-checked Born matrix.

    A row interleaves the real and imaginary parts of vec O_s, so with rho
    viewed the same way p_s = ops[s] . rho.
    """
    ops = _operators(settings).reshape(len(settings), 16)
    rank = np.linalg.matrix_rank(ops)
    if rank < 16:
        raise TomographyError(f"settings span only a rank-{rank} operator subspace")
    return ops.view(float), np.linalg.pinv(ops.conj())


# Stacks are contracted with einsum, not BLAS matmul, whose summation order
# depends on the batch size: element i of a batched solve then repeats the
# solo solve of the same counts exactly.


def _invert(pinv: np.ndarray, counts: np.ndarray, exposures: np.ndarray):
    """Unit-trace least-squares inversions of the rows of a ``(B, S)`` count stack.

    Only rows with a positive inverted trace are returned, with their mask.
    """
    mat = np.einsum("bs,ks->bk", counts / exposures, pinv).reshape(-1, 4, 4)
    mat = (mat + mat.conj().swapaxes(1, 2)) / 2.0
    trace = np.real(np.trace(mat, axis1=1, axis2=2))
    return mat[trace > 0] / trace[trace > 0, None, None], trace > 0


def linear_inversion(run: TomographyRun) -> np.ndarray:
    """Least-squares inversion of the Born map; Hermitian, unit trace, maybe non-PSD.

    The per-setting flux is absorbed by solving against raw rates and
    normalizing the trace afterwards, so exact probabilities are recovered
    exactly.
    """
    mat, usable = _invert(_born_map(run.settings)[1], run.counts[None], run.exposures)
    if not usable[0]:
        raise TomographyError("inverted matrix has non-positive trace")
    return mat[0]


def _profile_loglike(rho: np.ndarray, ops, counts, exposures, gradient=True):
    """Per-count Poisson log-likelihood with the overall flux profiled out, plus its gradient.

    Works on stacks: ``rho`` is ``(B, 4, 4)`` and ``counts`` is ``(B, S)``.
    The third result flags the elements whose likelihood is finite, i.e.
    every setting with counts has a positive probability. Without
    ``gradient`` the log-likelihood alone is computed and returned.
    """
    raw = np.einsum("bk,sk->bs", np.ascontiguousarray(rho).reshape(len(rho), 16).view(float), ops)
    p = np.clip(raw, 1e-300, None)
    total = np.sum(counts, axis=1)
    phi = total / np.sum(exposures * p, axis=1)
    ll = np.sum(counts * np.log(phi[:, None] * exposures * p), axis=1) / total - 1.0
    if not gradient:
        return ll
    finite = np.all((raw > 0) | (counts == 0), axis=1)
    grad = np.einsum("bs,sk->bk", (counts / p - phi[:, None] * exposures) / total[:, None], ops)
    return ll, grad.view(complex).reshape(-1, 4, 4), finite


# An element whose likelihood gain stays below rounding for _FLAT_ITERATES
# iterates has converged: at rank-deficient optima the gradient-mapping norm
# floors at a few 1e-8 from rounding and can miss a 1e-8 tolerance forever.
_FLAT_ITERATES, _ROUNDING = 3, 16 * np.finfo(float).eps
_MAX_HALVINGS, _STEP_GROWTH = 60, 1.2
_MAX_ITER, _GRAD_TOL = 10000, 1e-8
MIN_BOOTSTRAP_RESAMPLES = 100  # the fewest bootstrap_errors and [tomography] bootstrap_resamples take


def _solve(ops, counts, exposures, rho, max_iter, grad_tol, history=None):
    """Batched accelerated projected-gradient ascent of the profile likelihood.

    The start stack ``rho`` (``(B, 4, 4)``, unit-trace Hermitian, e.g. linear
    inversions) is projected and mixed with 1e-6 of the identity so every
    likelihood is finite. Each element then takes projected gradient steps
    from its momentum point, the step length backtracked per element until
    the quadratic lower model holds. A candidate that lowers the likelihood
    is rejected and restarts the element's momentum, so accepted iterates
    are monotone (``history`` gets element 0's log-likelihoods). An element
    that meets the stopping rule is frozen and dropped from the active set.
    Returns the states, the converged mask and the last per-count
    gradient-mapping norms.
    """
    n, rho = len(rho), (_simplex_projection(rho) + 1e-6 * np.eye(4)) / (1.0 + 4e-6)
    out, done, gnorm = rho.copy(), np.zeros(n, bool), np.full(n, np.inf)
    idx, x, y = np.arange(n), rho, rho
    k, step, flat = np.zeros(n, int), np.ones(n), np.zeros(n, int)  # k: steps since restart
    ll_x, grad_y, _ = _profile_loglike(rho, ops, counts, exposures)
    ll_y, scale = ll_x, float(np.sum(counts[:1]))
    if history is not None:
        history.append(float(ll_x[0]) * scale)
    for _ in range(max_iter):
        # The trials need no gradient; each halving narrows them to the elements still backtracking.
        t, cand, ll_c = step.copy(), y.copy(), np.full(len(y), -np.inf)
        todo, yt, gt, lt, ct, tt = np.arange(len(y)), y, grad_y, ll_y, counts, step
        for _ in range(_MAX_HALVINGS):
            c = _simplex_projection(yt + tt[:, None, None] * gt)
            ll = _profile_loglike(c, ops, ct, exposures, gradient=False)
            d = c - yt
            model = lt + np.real(np.sum(gt.conj() * d, axis=(1, 2)))
            model -= np.sum(np.abs(d) ** 2, axis=(1, 2)) / (2.0 * tt)
            ok = ll >= model - _ROUNDING * np.abs(ll)
            cand[todo[ok]], ll_c[todo[ok]], t[todo[ok]] = c[ok], ll[ok], tt[ok]
            todo, yt, gt, lt, ct, tt = (a[~ok] for a in (todo, yt, gt, lt, ct, tt))
            if not todo.size:
                break
            tt = tt / 2.0
        t[todo] = tt
        g_map = np.linalg.norm(cand - y, axis=(1, 2)) / t
        g_map[todo] = np.inf
        gnorm[idx] = g_map
        accept, plain = ll_c >= ll_x, k <= 1  # plain: y was x, no momentum
        flat = np.where((accept | plain) & (ll_c - ll_x <= _ROUNDING * np.abs(ll_x)), flat + 1, 0)
        stop = ((accept | plain) & (g_map < grad_tol)) | (flat >= _FLAT_ITERATES)
        if history is not None and accept[0]:
            history.append(float(ll_c[0]) * scale)
        # Nesterov momentum after an acceptance, a restart from x after a rejection.
        k = np.where(accept, k + 1, 0)
        x_new = np.where(accept[:, None, None], cand, x)
        y = x_new + (np.maximum(k - 1, 0) / (k + 2))[:, None, None] * (x_new - x)
        x, ll_x, step = x_new, np.maximum(ll_c, ll_x), t * _STEP_GROWTH
        out[idx[stop]], done[idx[stop]] = x[stop], True
        idx, x, y, ll_x, k, step, flat, counts = (
            a[~stop] for a in (idx, x, y, ll_x, k, step, flat, counts)
        )
        if not idx.size:
            break
        ll_y, grad_y, finite = _profile_loglike(y, ops, counts, exposures)
        if not finite.all():  # extrapolated out of the likelihood's domain: restart
            lost = ~finite
            y[lost], k[lost] = x[lost], 0
            ll_y[lost], grad_y[lost], _ = _profile_loglike(x[lost], ops, counts[lost], exposures)
    out[idx] = x
    return out, done, gnorm


def mle_reconstruct(
    run: TomographyRun,
    max_iter: int = _MAX_ITER,
    grad_tol: float = _GRAD_TOL,
    strict: bool = False,
    history: list | None = None,
) -> DensityMatrix:
    """Maximum-likelihood state by accelerated projected-gradient ascent on density matrices.

    Starts from the physically projected linear inversion and climbs the concave profile
    Poisson likelihood with momentum, projecting each step onto unit-trace PSD matrices
    (eigenvalue-simplex projection); this is the one-element case of the batched solver
    ``_solve``. Accepted iterates are monotone in likelihood (append them via ``history``
    to inspect). Convergence means the per-count gradient-mapping norm fell below
    ``grad_tol`` or the likelihood stayed flat to machine precision for a few iterates;
    anything else within ``max_iter`` iterations warns, or raises when ``strict``.
    """
    return _reconstruct(run, True, 0, 0, max_iter, grad_tol, strict, history)[0]


@dataclass(frozen=True)
class BootstrapErrors:
    """Standard errors of tomography scalars from a parametric bootstrap."""

    fidelity_phi_plus_std: float
    fidelity_psi_plus_std: float
    s_value_std: float
    resamples: int
    failures: int


def bootstrap_errors(run: TomographyRun, resamples: int, rng_seed: int = 0) -> BootstrapErrors:
    """Poisson-resample the observed counts and re-reconstruct.

    Per-resample seeds are spawned deterministically so results do not depend on
    execution order. All resamples are reconstructed in one batched solve, held to the
    same convergence test as a strict ``mle_reconstruct``; a resample with no usable
    linear inversion or that does not converge counts as a failure.
    """
    if resamples < MIN_BOOTSTRAP_RESAMPLES:
        raise TomographyError(f"use at least {MIN_BOOTSTRAP_RESAMPLES} bootstrap resamples")
    return _reconstruct(run, False, resamples, rng_seed, _MAX_ITER, _GRAD_TOL)[1]


def reconstruct_with_errors(
    run: TomographyRun, resamples: int, rng_seed: int = 0
) -> tuple[DensityMatrix, BootstrapErrors]:
    """``mle_reconstruct(run, strict=True)`` and ``bootstrap_errors(run, resamples, rng_seed)``
    from one solve whose element 0 is the observed counts, bit for bit and with the same errors."""
    few = resamples < MIN_BOOTSTRAP_RESAMPLES
    rho, errors = _reconstruct(run, True, 0 if few else resamples, rng_seed, _MAX_ITER, _GRAD_TOL)
    if few:  # after the point estimate's own errors, as the two calls raise them
        raise TomographyError(f"use at least {MIN_BOOTSTRAP_RESAMPLES} bootstrap resamples")
    return rho, errors


def _reconstruct(run, point, resamples, rng_seed, max_iter, grad_tol, strict=True, history=None):
    """Point estimate (if ``point``, else None) and the ``BootstrapErrors`` of ``resamples``
    Poisson resamples (None for 0) from one batched solve, the observed counts as element 0."""
    if point and float(np.sum(run.counts)) <= 0:
        raise TomographyError("run contains no counts")
    ops, pinv = _born_map(run.settings)
    children = np.random.SeedSequence(rng_seed).spawn(resamples)
    rows = ([run.counts] if point else []) + [np.random.default_rng(c).poisson(run.counts) for c in children]
    counts = np.stack(rows, dtype=float)
    start, usable = _invert(pinv, counts, run.exposures)
    if point and not usable[0]:
        raise TomographyError("inverted matrix has non-positive trace")
    rhos, done, gnorm = _solve(ops, counts[usable], run.exposures, start, max_iter, grad_tol, history)
    if point and not done[0]:
        msg = f"MLE stopped after {max_iter} iterations with per-count gradient-mapping norm {gnorm[0]:.3e}"
        msg += f" (requested {grad_tol:.1e})"
        if strict:
            raise MleConvergenceError(msg)
        warnings.warn(msg, RuntimeWarning, stacklevel=3)  # at mle_reconstruct's caller
    rho = DensityMatrix(rhos[0], ("A", "B")) if point else None
    rhos, done = rhos[int(point):], done[int(point):]
    if not resamples:
        return rho, None
    if np.sum(done) < 2:
        raise TomographyError("too few successful bootstrap reconstructions")
    rhos = rhos[done]
    bells = np.stack([bell_state(k).amplitudes for k in (BellKind.PHI_PLUS, BellKind.PSI_PLUS)])
    fidelities = np.clip(np.einsum("ki,bij,kj->bk", bells.conj(), rhos, bells).real, 0.0, 1.0)
    stds = np.std(np.column_stack([fidelities, horodecki_s(rhos)]), axis=0, ddof=1)
    return rho, BootstrapErrors(*(float(v) for v in stds), resamples, resamples - len(rhos))


def run_to_csv(run: TomographyRun) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["setting_a", "setting_b", "counts", "exposure"])
    for setting, count, expo in zip(run.settings, run.counts, run.exposures):
        count_repr = int(count) if float(count).is_integer() else float(count)
        writer.writerow([setting.projector_a, setting.projector_b, count_repr, expo])
    return buf.getvalue()


def run_from_csv(text: str) -> TomographyRun:
    """Parse a run CSV; a row that is not one valid setting, count and exposure
    raises ``TomographyError`` naming its line."""
    reader = csv.DictReader(io.StringIO(text))
    required = {"setting_a", "setting_b", "counts", "exposure"}
    if reader.fieldnames is None or not required.issubset(reader.fieldnames):
        raise TomographyError(f"run CSV must have columns {sorted(required)}")
    settings, counts, exposures = [], [], []
    for row in reader:
        try:
            if None in row or None in row.values():  # a long row's extra cells, a short row's missing ones
                raise TomographyError("the row does not have one cell per column")
            settings.append(MeasurementSetting(row["setting_a"].strip(), row["setting_b"].strip()))
            counts.append(float(row["counts"]))
            exposures.append(float(row["exposure"]))
            _check_counts(counts[-1], exposures[-1])
        except ValueError as exc:  # float()'s error, or a TomographyError
            raise TomographyError(f"run CSV line {reader.line_num}: {exc}") from exc
    if not settings:
        raise TomographyError("run CSV contains no rows")
    return TomographyRun(tuple(settings), np.array(counts), np.array(exposures))
