import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from conftest import (
    beamsplitter_coincidence,
    gate_acceptance,
    hand_built_patterns,
    povm_from_mode_calculus,
    quadrature_gated_integrals,
)
from swapsim.interference import (
    PATTERNS,
    CALIBRATED_INTRINSIC_LIMIT,
    CALIBRATED_T2_XX_NS,
    BsmConvention,
    BsmSettings,
    InterferenceError,
    _erfcx,
    _gated_integrals,
    bsm_povm,
    calibrate_temporal,
    effective_indistinguishability,
    gate_response,
    pattern_operators,
)
from swapsim.qstate import BellKind, PureState, bell_state

Z1 = np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)
KET_HH, KET_HV, KET_VH = np.eye(4)[:3]
# One photon in each output port, any polarizations.
CROSS_PORT = [k for k, (first, second) in enumerate(PATTERNS) if first[0] != second[0]]


def test_mode_calculus_examples():
    psi_plus = bell_state(BellKind.PSI_PLUS)
    psi_minus = bell_state(BellKind.PSI_MINUS)
    assert beamsplitter_coincidence(psi_plus, "H", "V", 1.0) == pytest.approx(0.0, abs=1e-14)
    assert beamsplitter_coincidence(psi_minus, "H", "V", 1.0) == pytest.approx(0.5, abs=1e-14)
    hv = PureState(np.array([0, 1, 0, 0], dtype=complex))
    assert beamsplitter_coincidence(hv, "H", "V", 0.0) == pytest.approx(0.25, abs=1e-14)


def test_mode_calculus_input_validation():
    with pytest.raises(InterferenceError):
        pattern_operators(1.5)
    with pytest.raises(InterferenceError):
        pattern_operators(-0.1, BsmConvention.PSI_MINUS)


@pytest.mark.parametrize("convention", list(BsmConvention))
def test_pattern_operators_match_hand_built(convention):
    ops = pattern_operators(1.0, convention)
    flip = Z1 if convention is BsmConvention.PSI_PLUS else np.eye(4)
    for occupation, oracle in hand_built_patterns():
        assert np.max(np.abs(ops[PATTERNS.index(occupation)] - flip @ oracle @ flip)) < 1e-15


@settings(max_examples=200)
@given(st.floats(0.0, 1.0), st.sampled_from(list(BsmConvention)))
@example(1.0, BsmConvention.PSI_PLUS)
@example(1.0, BsmConvention.PSI_MINUS)
@example(0.569, BsmConvention.PSI_PLUS)
@example(0.25, BsmConvention.PSI_MINUS)
def test_pattern_operators_invariants(overlap, convention):
    ops = pattern_operators(overlap, convention)
    assert ops.shape == (len(PATTERNS), 4, 4)
    assert np.array_equal(ops, ops.conj().transpose(0, 2, 1))
    assert np.all(np.linalg.eigvalsh(ops) >= -1e-15)
    assert np.max(np.abs(ops.sum(axis=0) - np.eye(4))) <= 1e-15
    sign = 1.0 if convention is BsmConvention.PSI_PLUS else -1.0
    hv, vh = np.outer(KET_HV, KET_HV), np.outer(KET_VH, KET_VH)
    swap = np.outer(KET_HV, KET_VH) + np.outer(KET_VH, KET_HV)
    herald = 0.25 * (hv + vh + sign * overlap * swap)
    assert np.array_equal(ops[PATTERNS.index(((3, 0), (4, 1)))], herald)
    assert np.array_equal(bsm_povm(overlap, convention).matrix, herald)
    if overlap == 1.0:  # Hong-Ou-Mandel: co-polarized photons never leave by different ports
        assert not ops[PATTERNS.index(((3, 0), (4, 0)))].any()
        assert not ops[PATTERNS.index(((3, 1), (4, 1)))].any()


def test_povm_limits():
    perfect = bsm_povm(1.0, BsmConvention.PSI_PLUS)
    psi = bell_state(BellKind.PSI_PLUS).amplitudes
    np.testing.assert_allclose(perfect.matrix, 0.5 * np.outer(psi, psi.conj()), atol=1e-15)
    distinguishable = bsm_povm(0.0)
    np.testing.assert_allclose(
        distinguishable.matrix, np.diag([0, 0.25, 0.25, 0]).astype(complex), atol=1e-15
    )
    with pytest.raises(InterferenceError):
        bsm_povm(1.2)


def test_povm_trace_and_bounds():
    for i in np.linspace(0, 1, 9):
        e = bsm_povm(float(i)).matrix
        assert np.trace(e).real == pytest.approx(0.5, abs=1e-15)
        evals = np.linalg.eigvalsh(e)
        assert evals.min() >= -1e-15 and evals.max() <= 1 + 1e-15


@pytest.mark.parametrize("overlap", [0.0, 0.25, 0.569, 1.0])
def test_povm_matches_mode_calculus(overlap):
    oracle = povm_from_mode_calculus(overlap)
    minus = bsm_povm(overlap, BsmConvention.PSI_MINUS).matrix
    assert np.max(np.abs(oracle - minus)) < 1e-12
    # the compensated convention is the same measurement after a fixed local
    # phase flip on one input
    oracle_flipped = povm_from_mode_calculus(overlap, premultiply=Z1)
    plus = bsm_povm(overlap, BsmConvention.PSI_PLUS).matrix
    assert np.max(np.abs(oracle_flipped - plus)) < 1e-12


def coincidence(overlap: float, ket: np.ndarray, convention=BsmConvention.PSI_PLUS) -> float:
    """Zero-delay HOM coincidence: the cross-port sum of the pattern operators."""
    cross = pattern_operators(overlap, convention)[CROSS_PORT].sum(axis=0)
    return float(np.real(ket.conj() @ cross @ ket))


def test_hom_values():
    # (1 - I)/2 co-polarized, 1/2 crossed
    assert coincidence(0.569, KET_HH) == pytest.approx(0.2155, abs=1e-12)
    assert coincidence(1.0, KET_HH) == pytest.approx(0.0, abs=1e-15)
    assert coincidence(0.0, KET_HH) == pytest.approx(0.5, abs=1e-15)
    assert coincidence(0.3, KET_HV) == pytest.approx(0.5, abs=1e-15)
    for i in np.linspace(0, 1, 7):
        visibility = 1.0 - coincidence(float(i), KET_HH) / coincidence(float(i), KET_HV)
        assert visibility == pytest.approx(float(i), abs=1e-12)


def test_hom_against_mode_calculus():
    # Every cross-port element against the oracle's polarizer-resolved
    # coincidences; the bare mode calculus is the PSI_MINUS convention.
    hh, hv = PureState(KET_HH.astype(complex)), PureState(KET_HV.astype(complex))
    for i in (0.0, 0.4, 1.0):
        ops = pattern_operators(i, BsmConvention.PSI_MINUS)
        for k in CROSS_PORT:
            (_, pol3), (_, pol4) = PATTERNS[k]
            oracle = povm_from_mode_calculus(i, pols=("HV"[pol3], "HV"[pol4]))
            assert np.max(np.abs(ops[k] - oracle)) < 1e-12
        # co-polarized pair |HH>, no output polarization discrimination: the
        # H/H polarizer combination carries the whole coincidence probability
        co = beamsplitter_coincidence(hh, "H", "H", i)
        assert co == pytest.approx(coincidence(i, KET_HH), abs=1e-12)
        cross = beamsplitter_coincidence(hv, "H", "V", i) + beamsplitter_coincidence(hv, "V", "H", i)
        assert cross == pytest.approx(coincidence(i, KET_HV), abs=1e-12)


@pytest.mark.parametrize(
    "changes",
    [
        {"t1_xx_ns": 0.0},
        {"t1_xx_ns": math.nan},
        {"t1_xx_ns": math.inf, "t2_xx_ns": 0.2},
        {"t2_xx_ns": 0.0},
        {"t2_xx_ns": 0.3},  # t2 > 2 t1
        {"t2_xx_ns": math.nan},
        {"jitter_ps": -1.0},
        {"jitter_ps": math.nan},
        {"jitter_ps": math.inf},
        {"gate_ps": 0.0},
        {"gate_ps": math.nan},
        {"intrinsic_limit": 1.5},
        {"intrinsic_limit": math.nan},
    ],
)
def test_bsm_settings_validation(changes):
    with pytest.raises(InterferenceError):
        BsmSettings(**changes)


def test_bsm_settings_limits_and_derived_values():
    assert BsmSettings(t2_xx_ns=0.24).dephasing_rate == 0.0  # t2 = 2 t1 is allowed
    bsm = BsmSettings(t1_xx_ns=0.12, t2_xx_ns=0.2, jitter_ps=50.0)
    assert bsm.dephasing_rate == 1.0 / 0.2 - 1.0 / 0.24
    assert bsm.jitter_sigma_ns == pytest.approx(0.05 / (2.0 * math.sqrt(2.0 * math.log(2.0))), rel=1e-15)
    assert bsm.diff_jitter_sigma_ns == pytest.approx(math.sqrt(2.0) * bsm.jitter_sigma_ns, rel=1e-15)
    assert bsm.with_gate(47.0) == BsmSettings(t1_xx_ns=0.12, t2_xx_ns=0.2, jitter_ps=50.0, gate_ps=47.0)


def test_effective_indistinguishability_rejects_a_differing_limit():
    # The settings own the limit; the argument may only repeat it.
    bsm = BsmSettings(gate_ps=47.0)
    assert effective_indistinguishability(bsm, bsm.intrinsic_limit) == gate_response(bsm, [47.0])[0][0]
    for other in (0.9, 1.0, 1.5, math.nan):
        with pytest.raises(InterferenceError, match="differs"):
            effective_indistinguishability(bsm, other)


def test_gated_indistinguishability_limits():
    t1, t2 = 0.12, 0.17
    model = BsmSettings(t1_xx_ns=t1, t2_xx_ns=t2, jitter_ps=0.0, intrinsic_limit=0.9)
    assert gate_response(model, [model.gate_ps])[0][0] == pytest.approx(0.9 * t2 / (2 * t1), rel=1e-8)
    assert gate_response(model, [1e-3])[0][0] == pytest.approx(0.9, rel=1e-6)
    no_dephasing = BsmSettings(t1_xx_ns=t1, t2_xx_ns=2 * t1, jitter_ps=0.0, intrinsic_limit=0.77)
    for gate in (10.0, 120.0, math.inf):
        assert gate_response(no_dephasing, [gate])[0][0] == pytest.approx(0.77, rel=1e-12)


def test_gated_indistinguishability_at_gate_equal_lifetime():
    # jitterless gate = t1: analytic piecewise integral of the kernel
    t1, t2 = 0.12, 0.17
    gamma = 1 / t2 - 1 / (2 * t1)
    g = t1  # ns
    model = BsmSettings(t1_xx_ns=t1, t2_xx_ns=t2, jitter_ps=0.0, gate_ps=g * 1e3, intrinsic_limit=1.0)
    a = 1 / t1 + 2 * gamma
    num = (1 - math.exp(-a * g / 2)) / (a * t1)
    den = 1 - math.exp(-g / (2 * t1))
    i_eff, rate = gate_response(model, [model.gate_ps])
    assert i_eff[0] == pytest.approx(num / den, rel=1e-8)
    assert rate[0] == pytest.approx(den, rel=1e-8)


def test_gated_indistinguishability_monotone():
    base = BsmSettings(t1_xx_ns=0.12, t2_xx_ns=0.15, jitter_ps=50.0, intrinsic_limit=0.94)
    gates = [20.0, 47.0, 100.0, 200.0, 500.0, 2000.0, math.inf]
    values = [gate_response(base, [g])[0][0] for g in gates]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    rates = [gate_response(base, [g])[1][0] for g in gates]
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
    # non-decreasing in coherence time
    for gate in (47.0, 500.0):
        vals_t2 = [
            gate_response(BsmSettings(t1_xx_ns=0.12, t2_xx_ns=t2, jitter_ps=50.0, intrinsic_limit=0.94), [gate])[0][0]
            for t2 in (0.05, 0.1, 0.15, 0.2, 0.24)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(vals_t2, vals_t2[1:]))


def test_rate_factor_limits():
    model = BsmSettings(t1_xx_ns=0.12, t2_xx_ns=0.2, jitter_ps=50.0)
    assert gate_response(model, [model.gate_ps])[1][0] == 1.0
    assert gate_response(model, [1e-3])[1][0] < 1e-4
    # jitter spreads the acceptance: with a wide-open gate, still 1
    assert gate_acceptance(0.0, model) == 1.0


def test_gated_integrals_resolve_a_sharp_gate_edge():
    # 5 ps jitter against a 1 ns lifetime: the gate edge is a few ps wide, so
    # an adaptive rule over long segments can step over it.
    model = BsmSettings(t1_xx_ns=1.0, t2_xx_ns=0.3, jitter_ps=5.0, gate_ps=1000.0, intrinsic_limit=1.0)
    assert abs(gate_response(model, [model.gate_ps])[1][0] - (1.0 - math.exp(-0.5))) < 1e-5
    gated = model.with_gate(47.0)
    num, den = quadrature_gated_integrals(gated)
    assert gate_response(model, [47.0])[0][0] == pytest.approx(num / den, rel=1e-9)


LIFETIMES = st.floats(0.05, 2.0)
T2_FRACTIONS = st.one_of(st.just(1.0), st.floats(1e-3, 1.0))  # t2 / (2 t1)
JITTERS = st.one_of(st.sampled_from([0.0, 1e-3]), st.floats(-3.0, 2.5).map(lambda e: 10.0**e))
GATES = st.one_of(st.just(math.inf), st.floats(-3.0, 5.0).map(lambda e: 10.0**e))
OFFSETS = st.one_of(st.just(0.0), st.floats(-2000.0, 2000.0))  # BSM delay offsets in ps


@settings(max_examples=300)
@given(LIFETIMES, T2_FRACTIONS, JITTERS, GATES, OFFSETS)
@example(t1=0.05, t2_fraction=1.0, jitter=0.0, gate=1e-3, offset=-600.0)  # far past a tiny gate
@example(t1=2.0, t2_fraction=1.0, jitter=1e-3, gate=1e-3, offset=2000.0)
def test_gated_integrals_match_quadrature(t1, t2_fraction, jitter, gate, offset):
    model = BsmSettings(t1_xx_ns=t1, t2_xx_ns=2.0 * t1 * t2_fraction, jitter_ps=jitter, gate_ps=gate)
    num, den = _gated_integrals(model, np.array([gate]), offset)
    oracle_num, oracle_den = quadrature_gated_integrals(model, offset)
    # abs=0: far past a narrow gate both integrals are far below approx's default 1e-12.
    assert num[0] == pytest.approx(oracle_num, rel=1e-9, abs=0.0)
    assert den[0] == pytest.approx(oracle_den, rel=1e-9, abs=0.0)


def test_offset_response_is_symmetric_and_costs_coherence():
    model = BsmSettings()
    gates = [47.0, 200.0, 2000.0, math.inf]
    at_zero = gate_response(model, gates)
    assert all(np.array_equal(a, b) for a, b in zip(gate_response(model, gates, 0.0), at_zero))
    for offset in (50.0, 400.0):
        plus, minus = gate_response(model, gates, offset), gate_response(model, gates, -offset)
        assert all(np.array_equal(a, b) for a, b in zip(plus, minus))
        assert np.all(plus[0] < at_zero[0])
    # 100 ps ungated: the coherent share falls from 0.569 to 0.247.
    assert gate_response(model, [math.inf], 100.0)[0][0] == pytest.approx(0.2473, abs=1e-4)
    for bad in (math.nan, math.inf):
        with pytest.raises(InterferenceError, match="offset must be finite"):
            gate_response(model, gates, bad)


@settings(max_examples=200)
@given(LIFETIMES, T2_FRACTIONS, JITTERS.filter(lambda j: j > 0.0), st.floats(0.0, 1.0))
def test_gate_response_monotone_across_branch_switches(t1, t2_fraction, jitter, intrinsic):
    model = BsmSettings(t1_xx_ns=t1, t2_xx_ns=2.0 * t1 * t2_fraction, jitter_ps=jitter, intrinsic_limit=intrinsic)
    # The closed form hands over to the quadrature rule at a = h/z = 4 and
    # switches erfcx branch at b = a, that is h = kappa z^2 / 2.
    z = math.sqrt(2.0) * model.diff_jitter_sigma_ns
    kappas = (1.0 / t1, 1.0 / t1 + 2.0 * model.dephasing_rate)
    switches_ps = [8e3 * z] + [1e3 * k * z * z for k in kappas]
    near = [s * f for s in switches_ps for f in (0.9, 1 - 1e-6, 1 + 1e-6, 1.1)]
    gates = np.sort(np.concatenate([np.geomspace(1e-3, 1e5, 41), near, [math.inf]]))
    i_eff, rate = gate_response(model, gates)
    assert np.all(np.diff(i_eff) <= 1e-12)
    assert np.all(np.diff(rate) >= -1e-12)
    assert np.all((rate >= 0.0) & (rate <= 1.0)) and rate[-1] == 1.0


def test_erfcx_matches_scipy():
    # Dense over [-26, 30], both signs of tiny |x|, Cody's range edges and
    # their neighbours, and log-spaced up to 1e300.
    edges = np.array([0.46875, 4.0])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    tiny = np.geomspace(1e-300, 1.0, 2001)
    x = np.concatenate([np.linspace(-26.0, 30.0, 560001), np.geomspace(30.0, 1e300, 20001),
                        tiny, -tiny, edges, -edges])
    rel = np.abs(_erfcx(x) / erfcx(x) - 1.0)
    # Below -4 the reflection's 2 exp(x^2) dominates, and scipy's own error
    # grows with x^2 there (5.7e-14 at x = -23.6 against 30-digit values).
    assert rel[x >= -4.0].max() <= 2e-15
    assert rel[x < -4.0].max() <= 1e-13
    assert _erfcx(np.array([0.0, math.inf])).tolist() == [1.0, 0.0]


@pytest.mark.parametrize("jitter", [0.0, 1e-3, 300.0])
@pytest.mark.parametrize("t1, t2", [(0.12, 0.14545), (0.05, 1e-4), (2.0, 4.0), (2.0, 2.0)])
def test_gate_response_is_warning_free_at_extreme_gates(jitter, t1, t2):
    model = BsmSettings(t1_xx_ns=t1, t2_xx_ns=t2, jitter_ps=jitter, intrinsic_limit=0.94)
    gates = np.concatenate([np.geomspace(1e-3, 1e300, 604), [math.inf]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i_eff, rate = gate_response(model, gates)
    assert np.all((i_eff >= 0.0) & (i_eff <= 0.94)) and np.all((rate >= 0.0) & (rate <= 1.0))
    assert rate[-1] == 1.0


def test_calibrate_temporal_round_trip():
    bsm = calibrate_temporal(0.569, 0.8314, 47.0)
    # Lifetime, jitter, gate and convention come from the default settings.
    assert bsm == BsmSettings(t2_xx_ns=bsm.t2_xx_ns, intrinsic_limit=bsm.intrinsic_limit)
    # The calibrated [bsm] defaults are this solution to their six printed digits.
    assert (round(bsm.t2_xx_ns, 6), round(bsm.intrinsic_limit, 6)) == (
        CALIBRATED_T2_XX_NS, CALIBRATED_INTRINSIC_LIMIT,
    )
    assert gate_response(bsm, [bsm.gate_ps])[0][0] == pytest.approx(0.569, abs=1e-9)
    assert gate_response(bsm, [47.0])[0][0] == pytest.approx(0.8314, abs=1e-9)
    psi_minus = BsmSettings(BsmConvention.PSI_MINUS, t1_xx_ns=0.2, jitter_ps=20.0, t2_xx_ns=0.3)
    other = calibrate_temporal(0.569, 0.8314, 47.0, psi_minus)
    assert (other.convention, other.t1_xx_ns, other.jitter_ps) == (BsmConvention.PSI_MINUS, 0.2, 20.0)
    assert gate_response(other, [47.0])[0][0] == pytest.approx(0.8314, abs=1e-9)
    with pytest.raises(InterferenceError):
        calibrate_temporal(0.8, 0.5, 47.0)
    # An ungated/gated ratio below what any t2 in the bracket gives: an InterferenceError, not a bare ValueError.
    with pytest.raises(InterferenceError, match="unreachable"):
        calibrate_temporal(0.01, 0.9, 47.0)
