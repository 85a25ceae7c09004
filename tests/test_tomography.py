import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import lbfgs_mle, profile_loglike, random_density
from swapsim import tomography
from swapsim.qstate import (
    POLARIZATION_KETS,
    BellKind,
    DensityMatrix,
    bell_density,
    bell_state,
    fidelity_pure,
    horodecki_s,
    maximally_mixed,
    relabel,
)
from swapsim.source import SourceParams, emit_pair
from swapsim.tomography import (
    SETTING_NAMES_36,
    MeasurementSetting,
    MleConvergenceError,
    TomographyError,
    TomographyRun,
    bootstrap_errors,
    born_probabilities,
    linear_inversion,
    mle_reconstruct,
    reconstruct_with_errors,
    run_from_csv,
    run_to_csv,
    simulate_counts,
    standard_settings,
)

PHI = bell_state(BellKind.PHI_PLUS)


def _phi_ab():
    return bell_density(BellKind.PHI_PLUS, ("A", "B"))


def test_standard_settings():
    s16 = standard_settings(16)
    assert len(s16) == 16
    assert (s16[0].projector_a, s16[0].projector_b) == ("H", "H")
    s36 = standard_settings(36)
    assert len(s36) == 36
    ops = [s.operator() for s in s36]
    for op in ops:
        np.testing.assert_allclose(op @ op, op, atol=1e-14)  # projectors idempotent
    # informationally complete: spans the full operator space
    a = np.stack([op.reshape(-1) for op in ops])
    assert np.linalg.matrix_rank(a) == 16
    with pytest.raises(TomographyError):
        standard_settings(9)
    with pytest.raises(TomographyError):
        MeasurementSetting("H", "Q")


def test_simulate_counts_means():
    hh = DensityMatrix(np.diag([1, 0, 0, 0]).astype(complex), ("A", "B"))
    settings = [MeasurementSetting("H", "H"), MeasurementSetting("V", "V")]
    run = simulate_counts(hh, settings, 1000, rng_seed=5)
    assert abs(run.counts[0] - 1000) < 150
    assert run.counts[1] == 0

    # Born-rule oracle for the diagonal-basis pair probability
    d = np.array([1, 1], dtype=complex) / np.sqrt(2)
    dd = np.kron(d, d)
    expected = abs(np.vdot(dd, PHI.amplitudes)) ** 2
    assert expected == pytest.approx(0.5, abs=1e-12)
    run = simulate_counts(_phi_ab(), [MeasurementSetting("D", "D")], 100000, rng_seed=6)
    assert abs(run.counts[0] - 50000) < 1500

    # seed determinism
    again = simulate_counts(_phi_ab(), [MeasurementSetting("D", "D")], 100000, rng_seed=6)
    assert np.array_equal(run.counts, again.counts)


def test_run_validation():
    settings = standard_settings(16)
    with pytest.raises(TomographyError):
        TomographyRun(tuple(settings), np.ones(4))
    with pytest.raises(TomographyError):
        TomographyRun(tuple(settings), -np.ones(16))
    with pytest.raises(TomographyError):
        TomographyRun(tuple(settings), np.ones(16), np.zeros(16))
    for bad in (np.nan, np.inf):
        with pytest.raises(TomographyError, match="counts must be finite and non-negative"):
            TomographyRun(tuple(settings), np.full(16, bad))
        with pytest.raises(TomographyError, match="exposures must be finite and positive"):
            TomographyRun(tuple(settings), np.ones(16), np.full(16, bad))


def test_linear_inversion_exact_recovery():
    settings = standard_settings(36)
    rng = np.random.default_rng(17)
    for _ in range(5):
        rho = DensityMatrix(random_density(rng, 4), ("A", "B"))
        probs = born_probabilities(rho, settings)
        run = TomographyRun(tuple(settings), probs)
        rec = linear_inversion(run)
        assert np.max(np.abs(rec - rho.matrix)) < 1e-12
    quarter = maximally_mixed(("A", "B"))
    run = TomographyRun(tuple(settings), born_probabilities(quarter, settings))
    assert np.max(np.abs(linear_inversion(run) - np.eye(4) / 4)) < 1e-12
    # per-setting exposures are divided out
    run = TomographyRun(
        tuple(settings), 3.0 * born_probabilities(quarter, settings), 3.0 * np.ones(36)
    )
    assert np.max(np.abs(linear_inversion(run) - np.eye(4) / 4)) < 1e-12


def test_linear_inversion_finite_counts_contract():
    run = simulate_counts(_phi_ab(), standard_settings(16), 200, rng_seed=3)
    rec = linear_inversion(run)
    assert np.max(np.abs(rec - rec.conj().T)) < 1e-12
    assert np.trace(rec).real == pytest.approx(1.0, abs=1e-12)


def test_linear_inversion_rank_deficient():
    settings = [MeasurementSetting("H", "H")] * 16
    run = TomographyRun(tuple(settings), np.ones(16))
    with pytest.raises(TomographyError):
        linear_inversion(run)


def test_mle_bell_state():
    run = simulate_counts(_phi_ab(), standard_settings(36), 10000, rng_seed=7)
    est = mle_reconstruct(run)
    assert fidelity_pure(est, PHI) >= 0.99


def test_mle_recovers_source_fidelity():
    src = relabel(emit_pair(SourceParams(), 1), ("A", "B"))
    run = simulate_counts(src, standard_settings(36), 1_000_000, rng_seed=11)
    est = mle_reconstruct(run)
    assert fidelity_pure(est, PHI) == pytest.approx(0.9369, abs=0.005)


def test_mle_matches_linear_inversion_on_exact_input():
    settings = standard_settings(36)
    probs = born_probabilities(_phi_ab(), settings)
    run = TomographyRun(tuple(settings), probs * 1e5)
    est = mle_reconstruct(run)
    assert np.max(np.abs(est.matrix - linear_inversion(run))) < 1e-6


def test_mle_pathological_counts():
    counts = simulate_counts(_phi_ab(), standard_settings(16), 100, rng_seed=1).counts.copy()
    counts[:5] = 0.0
    est = mle_reconstruct(TomographyRun(tuple(standard_settings(16)), counts))
    evals = np.linalg.eigvalsh(est.matrix)
    assert evals.min() >= -1e-8
    assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-10)


def test_mle_likelihood_monotone():
    run = simulate_counts(_phi_ab(), standard_settings(16), 500, rng_seed=23)
    history = []
    mle_reconstruct(run, history=history)
    diffs = np.diff(np.array(history))
    assert len(history) > 2
    assert diffs.min() >= -1e-9 * max(1.0, abs(history[0]))


def test_mle_gradient_matches_finite_differences():
    from swapsim.tomography import _born_map, _profile_loglike

    rng = np.random.default_rng(2)
    settings = standard_settings(16)
    ops = _born_map(settings)[0]
    run = simulate_counts(_phi_ab(), settings, 300, rng_seed=8)
    counts, total = run.counts[None], float(np.sum(run.counts))
    rho = random_density(rng, 4)

    def loglike(mat):  # total, not per-count, log-likelihood
        return _profile_loglike(mat[None], ops, counts, run.exposures)[0][0] * total

    _, grad, _ = _profile_loglike(rho[None], ops, counts, run.exposures)
    eps = 1e-6
    for _ in range(16):
        # random Hermitian traceless direction
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        direction = a + a.conj().T
        direction -= np.trace(direction) / 4 * np.eye(4)
        numeric = (loglike(rho + eps * direction) - loglike(rho - eps * direction)) / (2 * eps)
        analytic = np.real(np.sum(grad[0].conj() * direction)) * total
        assert numeric == pytest.approx(analytic, rel=2e-4, abs=2e-4)


def test_mle_matches_lbfgs_oracle():
    src = relabel(emit_pair(SourceParams(), 1), ("A", "B"))
    for kind, shots in ((16, 30), (16, 1000), (36, 10000)):
        settings = standard_settings(kind)
        ops = np.stack([s.operator() for s in settings])
        for seed in range(3):
            run = simulate_counts(src, settings, shots, rng_seed=seed)
            oracle = lbfgs_mle(run)
            est = mle_reconstruct(run, strict=True).matrix
            ll_oracle = profile_loglike(oracle, ops, run.counts, run.exposures)[0]
            ll_est = profile_loglike(est, ops, run.counts, run.exposures)[0]
            assert ll_est >= ll_oracle - 1e-9 * abs(ll_oracle)
            f_oracle = fidelity_pure(DensityMatrix(oracle, ("A", "B")), PHI)
            assert fidelity_pure(DensityMatrix(est, ("A", "B")), PHI) == pytest.approx(f_oracle, abs=1e-6)


def test_mle_strict_and_warn_when_not_converged():
    run = simulate_counts(_phi_ab(), standard_settings(16), 500, rng_seed=23)
    with pytest.raises(MleConvergenceError, match=r"^MLE stopped after 2 iterations with per-count "
                       r"gradient-mapping norm \d\.\d{3}e[+-]\d\d \(requested 1\.0e-08\)$"):
        mle_reconstruct(run, max_iter=2, strict=True)
    with pytest.warns(RuntimeWarning, match="gradient-mapping norm"):
        est = mle_reconstruct(run, max_iter=2)
    assert np.linalg.eigvalsh(est.matrix).min() >= -1e-10
    assert np.trace(est.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_bootstrap_counts_unconverged_resamples_as_failures(monkeypatch):
    # A resample fails exactly when a strict solo reconstruction of its counts
    # fails; the error bars come from the other resamples.
    src = relabel(emit_pair(SourceParams(), 1), ("A", "B"))
    run = simulate_counts(src, standard_settings(16), 200, rng_seed=13)
    monkeypatch.setattr(tomography, "_MAX_ITER", 40)
    errors = bootstrap_errors(run, resamples=100, rng_seed=4)
    values, failures = [], 0
    for child in np.random.SeedSequence(4).spawn(100):
        counts = np.random.default_rng(child).poisson(run.counts).astype(float)
        try:
            est = mle_reconstruct(TomographyRun(run.settings, counts), max_iter=40, strict=True)
        except MleConvergenceError:
            failures += 1
            continue
        values.append((fidelity_pure(est, PHI), fidelity_pure(est, bell_state(BellKind.PSI_PLUS)), horodecki_s(est)))
    assert 10 < failures < 90
    assert errors.failures == failures
    stds = np.std(values, axis=0, ddof=1)
    assert errors.fidelity_phi_plus_std == pytest.approx(stds[0], rel=1e-12)
    assert errors.fidelity_psi_plus_std == pytest.approx(stds[1], rel=1e-12)
    assert errors.s_value_std == pytest.approx(stds[2], rel=1e-12)


@given(
    kind=st.sampled_from([16, 36]),
    rows=st.lists(st.lists(st.integers(0, 400) | st.just(0), min_size=36, max_size=36), min_size=1, max_size=4),
)
@settings(max_examples=40)
def test_mle_outputs_physical_and_batch_invariant(kind, rows):
    from swapsim.tomography import _born_map, _invert, _solve

    settings_ = standard_settings(kind)
    counts = np.array(rows, dtype=float)[:, :kind]
    exposures = np.ones(kind)
    ops, pinv = _born_map(settings_)
    start, usable = _invert(pinv, counts, exposures)
    batch, done, _ = _solve(ops, counts[usable], exposures, start, 10000, 1e-8)
    assert done.all()
    for rho, row in zip(batch, counts[usable]):
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        solo = mle_reconstruct(TomographyRun(tuple(settings_), row), strict=True)
        assert np.array_equal(solo.matrix, rho)
    for row in counts[~usable]:
        with pytest.raises(TomographyError):
            mle_reconstruct(TomographyRun(tuple(settings_), row))


def test_mle_fidelity_bias_on_bell_states():
    settings = standard_settings(16)
    fids = []
    for k in range(200):
        run = simulate_counts(_phi_ab(), settings, 1000, rng_seed=1000 + k)
        fids.append(fidelity_pure(mle_reconstruct(run), PHI))
    assert abs(1.0 - float(np.mean(fids))) < 0.01


def test_bootstrap_errors():
    src = relabel(emit_pair(SourceParams(), 1), ("A", "B"))
    run = simulate_counts(src, standard_settings(16), 10000, rng_seed=13)
    a = bootstrap_errors(run, resamples=100, rng_seed=21)
    b = bootstrap_errors(run, resamples=100, rng_seed=21)
    assert a == b  # per-resample substreams are seed-deterministic
    small = simulate_counts(src, standard_settings(16), 100, rng_seed=13)
    wide = bootstrap_errors(small, resamples=100, rng_seed=21)
    assert wide.fidelity_phi_plus_std > a.fidelity_phi_plus_std
    with pytest.raises(TomographyError):
        bootstrap_errors(run, resamples=10, rng_seed=1)


def test_bootstrap_error_magnitude_at_high_counts():
    # at a million shots per setting the fidelity error lands at the few-1e-4
    # scale characteristic of the reported pair-fidelity uncertainties
    src = relabel(emit_pair(SourceParams(), 1), ("A", "B"))
    run = simulate_counts(src, standard_settings(16), 1_000_000, rng_seed=37)
    errors = bootstrap_errors(run, resamples=100, rng_seed=9)
    assert 1e-4 < errors.fidelity_phi_plus_std < 2e-3


def test_bootstrap_resample_count_stability():
    src = relabel(emit_pair(SourceParams(), 1), ("A", "B"))
    run = simulate_counts(src, standard_settings(16), 1000, rng_seed=29)
    e100 = bootstrap_errors(run, resamples=100, rng_seed=5)
    e1000 = bootstrap_errors(run, resamples=1000, rng_seed=5)
    ratio = e100.fidelity_phi_plus_std / e1000.fidelity_phi_plus_std
    assert 0.7 < ratio < 1.3


def test_run_csv_round_trip():
    src = relabel(emit_pair(SourceParams(), 2), ("A", "B"))
    run = simulate_counts(src, standard_settings(16), 500, rng_seed=31)
    text = run_to_csv(run)
    back = run_from_csv(text)
    assert back.settings == run.settings
    assert np.array_equal(back.counts, run.counts)
    assert np.array_equal(back.exposures, run.exposures)
    with pytest.raises(TomographyError):
        run_from_csv("setting_a,setting_b\nH,H\n")


SETTING_PAIRS = st.tuples(st.sampled_from(SETTING_NAMES_36), st.sampled_from(SETTING_NAMES_36))


@given(pairs=st.lists(SETTING_PAIRS, min_size=1, max_size=40))
@example(pairs=[("H", "V"), ("R", "L"), ("H", "V"), ("R", "L"), ("H", "V")])
def test_broadcast_operators_equal_the_kronecker_products(pairs):
    from swapsim.tomography import _operators

    def kron(a, b):
        ka, kb = POLARIZATION_KETS[a], POLARIZATION_KETS[b]
        return np.kron(np.outer(ka, ka.conj()), np.outer(kb, kb.conj()))

    for settings_ in (standard_settings(16), standard_settings(36), [MeasurementSetting(*p) for p in pairs]):
        reference = np.stack([s.operator() for s in settings_])
        assert np.array_equal(_operators(settings_), reference)
        assert np.array_equal(reference, np.stack([kron(s.projector_a, s.projector_b) for s in settings_]))


@pytest.mark.parametrize("kind", [16, 36])
def test_likelihood_only_value_equals_the_profile_likelihood(kind):
    # The line search reads the likelihood without the gradient; it must be
    # the same number the gradient path gives, with and without floored
    # probabilities (the Bell state gives some settings probability 0).
    from swapsim.tomography import _born_map, _profile_loglike

    rng = np.random.default_rng(kind)
    ops = _born_map(standard_settings(kind))[0]
    rho = np.stack([random_density(rng, 4) for _ in range(6)] + [_phi_ab().matrix])
    counts = rng.poisson(50.0, size=(len(rho), kind)).astype(float)
    counts[rng.random(counts.shape) < 0.3] = 0.0
    exposures = rng.uniform(0.5, 2.0, kind)
    full = _profile_loglike(rho, ops, counts, exposures)
    assert len(full) == 3
    assert np.array_equal(_profile_loglike(rho, ops, counts, exposures, gradient=False), full[0])


def _pair_run(kind, shots, seed, zeros=False):
    src = relabel(emit_pair(SourceParams(), 1), ("A", "B"))
    run = simulate_counts(src, standard_settings(kind), shots, rng_seed=seed)
    if zeros:  # every third setting records nothing
        return TomographyRun(run.settings, np.where(np.arange(kind) % 3 == 0, 0.0, run.counts))
    return run


@pytest.mark.parametrize(
    "kind, shots, zeros", [(36, 10000, False), (16, 2000, False), (16, 300, True), (36, 300, True)]
)
def test_one_batch_equals_the_point_estimate_and_bootstrap_calls(kind, shots, zeros):
    # `tomo reconstruct` solves the observed counts as element 0 of the
    # bootstrap's batch; each element is solved on its own, so the result
    # repeats the two separate calls bit for bit.
    run = _pair_run(kind, shots, kind + shots, zeros)
    rho, errors = reconstruct_with_errors(run, 100, rng_seed=6)
    assert np.array_equal(rho.matrix, mle_reconstruct(run, strict=True).matrix)
    assert errors == bootstrap_errors(run, 100, rng_seed=6)


def test_one_batch_counts_unconverged_resamples_as_the_bootstrap_does(monkeypatch):
    run = _pair_run(16, 200, 13)
    monkeypatch.setattr(tomography, "_MAX_ITER", 40)
    rho, errors = reconstruct_with_errors(run, 100, rng_seed=4)
    assert 10 < errors.failures < 90
    assert errors == bootstrap_errors(run, 100, rng_seed=4)
    assert np.array_equal(rho.matrix, mle_reconstruct(run, max_iter=40, strict=True).matrix)


def test_one_batch_raises_the_point_estimate_errors_first(monkeypatch):
    # The order the two calls gave: the point estimate's errors, then the
    # resample count.
    settings_ = tuple(standard_settings(16))
    with pytest.raises(TomographyError, match="^run contains no counts$"):
        reconstruct_with_errors(TomographyRun(settings_, np.zeros(16)), 99)
    unbalanced = np.array([0.0 if {s.projector_a, s.projector_b} <= {"H", "V"} else 10.0 for s in settings_])
    with pytest.raises(TomographyError, match="^inverted matrix has non-positive trace$"):
        reconstruct_with_errors(TomographyRun(settings_, unbalanced), 99)
    run = simulate_counts(_phi_ab(), list(settings_), 500, rng_seed=23)
    with monkeypatch.context() as patch:
        patch.setattr(tomography, "_MAX_ITER", 2)
        with pytest.raises(MleConvergenceError, match="^MLE stopped after 2 iterations"):
            reconstruct_with_errors(run, 99)
    with pytest.raises(TomographyError, match="^use at least 100 bootstrap resamples$"):
        reconstruct_with_errors(run, 99)
