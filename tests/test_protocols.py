"""Tests for the concentration-round engine and schedule runner."""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from noonecp import (
    PHASE_CLASS_TOLERANCE,
    BeamSplitterSpec,
    HomodyneOutcome,
    ProtocolConfig,
    PureState,
    RoundOutcome,
    apply_loss_model,
    basis_state,
    beam_splitter,
    cross_kerr_tag,
    detect_photon,
    fidelity_up_to_global_phase,
    homodyne_partition,
    maximally_entangled_noon,
    negate_occupied,
    norm_sq,
    prepare_aux_ecp1,
    prepare_aux_ecp2,
    prepare_less_entangled_noon,
    protocols,
    run_round,
    run_schedule,
    run_schedules,
    superpose,
    tensor,
    vbs_transmission,
)

ALPHA_GRID = (0.1, 0.25, 0.5, 0.8, 0.9)


def _config(protocol="ecp1", alpha_sq=0.8, n=2, **kw):
    return ProtocolConfig(protocol=protocol, alpha=math.sqrt(alpha_sq), n_photons=n, **kw)


def _chain_unconditional(alpha_sq, k_max):
    """Independent recurrence for the per-round unconditional probabilities."""
    x, y = alpha_sq, 1.0 - alpha_sq
    probs = []
    survival = 1.0
    for _ in range(k_max):
        total = x + y
        p_cond = 2.0 * x * y / (total * total)
        probs.append(p_cond * survival)
        survival *= 1.0 - p_cond
        x, y = x * x, y * y
        scale = x + y
        x, y = x / scale, y / scale
    return probs


def test_prepare_less_entangled_amplitudes():
    st = prepare_less_entangled_noon(math.sqrt(0.8), 2)
    assert st.register == ("a1", "b1")
    assert st.amplitude((2, 0)) == pytest.approx(math.sqrt(0.8), abs=1e-12)
    assert st.amplitude((0, 2)) == pytest.approx(math.sqrt(0.2), abs=1e-12)
    assert norm_sq(st) == pytest.approx(1.0, abs=1e-12)


def test_prepare_balanced_equals_target():
    for n in (1, 2, 3, 5):
        st = prepare_less_entangled_noon(1 / math.sqrt(2), n)
        target = maximally_entangled_noon(n)
        assert fidelity_up_to_global_phase(st, target) == pytest.approx(1.0, abs=1e-12)


def test_prepare_custom_modes():
    st = prepare_less_entangled_noon(0.6, 3, modes=("u", "v"))
    assert st.register == ("u", "v")
    assert st.amplitude((3, 0)) == pytest.approx(0.6, abs=1e-12)


def test_prepare_validates_alpha():
    for bad in (0.0, 1.0, -0.3, 1.2):
        with pytest.raises(ValueError):
            prepare_less_entangled_noon(bad, 2)
    with pytest.raises(ValueError):
        prepare_less_entangled_noon(0.6, 0)


def test_prepare_aux_ecp1_mirrors_signal_coefficients():
    st = prepare_aux_ecp1(math.sqrt(0.8))
    assert st.register == ("a2", "b2")
    assert st.amplitude((1, 0)) == pytest.approx(math.sqrt(0.8), abs=1e-12)
    assert st.amplitude((0, 1)) == pytest.approx(math.sqrt(0.2), abs=1e-12)


def test_prepare_aux_ecp2_general_transmission():
    for t in (0.2, 0.5, 0.8):
        st = prepare_aux_ecp2(t)
        assert st.register == ("c1", "c2")
        assert st.amplitude((1, 0)) == pytest.approx(math.sqrt(1 - t), abs=1e-12)
        assert st.amplitude((0, 1)) == pytest.approx(math.sqrt(t), abs=1e-12)


def test_prepare_aux_ecp2_extreme_transmissions():
    passthru = prepare_aux_ecp2(0.0)
    assert passthru.amplitude((1, 0)) == pytest.approx(1.0, abs=1e-12)
    full = prepare_aux_ecp2(1.0)
    assert full.amplitude((0, 1)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        prepare_aux_ecp2(-0.1)
    with pytest.raises(ValueError):
        prepare_aux_ecp2(1.1)


def test_vbs_transmission_first_round_is_alpha_sq():
    for alpha_sq in ALPHA_GRID:
        assert vbs_transmission(math.sqrt(alpha_sq), 1) == pytest.approx(
            alpha_sq, abs=1e-12
        )


def test_vbs_transmission_balanced_stays_half():
    # float alpha = 1/sqrt(2) squares one ulp off 0.5, so the drift from
    # exact 0.5 compounds with depth but stays negligible at useful depths
    for k in range(1, 21):
        assert vbs_transmission(1 / math.sqrt(2), k) == pytest.approx(0.5, abs=1e-9)


def test_vbs_transmission_complementary_alphas_sum_to_one():
    for alpha_sq in (0.2, 0.35, 0.8):
        for k in (1, 2, 4):
            t_lo = vbs_transmission(math.sqrt(alpha_sq), k)
            t_hi = vbs_transmission(math.sqrt(1 - alpha_sq), k)
            assert t_lo + t_hi == pytest.approx(1.0, abs=1e-12)


def test_vbs_transmission_round_two():
    # x=0.8: t2 = x^2/(x^2+y^2) = 0.64/0.68
    assert vbs_transmission(math.sqrt(0.8), 2) == pytest.approx(0.64 / 0.68, abs=1e-12)
    assert vbs_transmission(math.sqrt(0.2), 2) == pytest.approx(0.04 / 0.68, abs=1e-12)


def test_vbs_transmission_deep_round_stays_finite():
    t = vbs_transmission(math.sqrt(0.3), 40)
    assert 0.0 <= t <= 1.0
    assert t == pytest.approx(0.0, abs=1e-12)
    t_hi = vbs_transmission(math.sqrt(0.7), 40)
    assert t_hi == pytest.approx(1.0, abs=1e-12)


def test_vbs_transmission_beyond_float_exponent_is_exact_limit():
    # 2^(k-1) stops converting to float at k = 1025; the ratio power is 0
    for k in (1024, 1025, 1026, 5000):
        assert vbs_transmission(math.sqrt(0.3), k) == 0.0
        assert vbs_transmission(math.sqrt(0.7), k) == 1.0
        assert vbs_transmission(1 / math.sqrt(2), k) in (0.0, 1.0)


def test_vbs_transmission_validates_inputs():
    with pytest.raises(ValueError):
        vbs_transmission(0.0, 1)
    with pytest.raises(ValueError):
        vbs_transmission(1.0, 1)
    with pytest.raises(ValueError):
        vbs_transmission(0.6, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        _config(protocol="ecp3")
    with pytest.raises(ValueError):
        _config(alpha_sq=1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(protocol="ecp1", alpha=0.0)
    with pytest.raises(ValueError):
        _config(n=0)
    with pytest.raises(ValueError):
        _config(max_rounds=0)
    # bool is an int subclass; True must not pass as N = 1 or K = 1
    with pytest.raises(ValueError):
        ProtocolConfig("ecp2", 0.5, n_photons=True)
    with pytest.raises(ValueError):
        ProtocolConfig("ecp2", 0.5, max_rounds=True)
    with pytest.raises(ValueError):
        _config(theta=0.0)
    with pytest.raises(ValueError):
        _config(theta=1e-10)
    for theta in (2 * math.pi, -4 * math.pi, 2 * math.pi + 1e-12):
        with pytest.raises(ValueError):
            _config(theta=theta)
    # N tags of -theta/N must cancel theta in doubles
    for n, theta in ((11, 1e8), (19, 1e7)):
        with pytest.raises(ValueError, match="cancel"):
            _config(n=n, theta=theta)
    with pytest.raises(ValueError):
        _config(loss_eta=-0.1)
    with pytest.raises(ValueError):
        _config(loss_eta=1.1)
    # bool must not pass as theta = 1 rad or as eta = 1 / 0 either
    with pytest.raises(ValueError):
        ProtocolConfig("ecp1", 0.5, theta=True)
    for eta in (True, False):
        with pytest.raises(ValueError):
            ProtocolConfig("ecp1", 0.5, loss_eta=eta)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_config_rejects_exactly_the_thetas_the_engine_cannot_read(protocol):
    """ProtocolConfig refuses a (theta, N) exactly where run_round would raise."""
    for n in (1, 2, 3, 5, 11, 19, 100):
        for theta in (0.1, 1.0, -0.2, math.pi, 1e7, 1e8):
            try:
                _config(protocol, n=n, theta=theta)
                refused = False
            except ValueError:
                refused = True
            # force the setting past validation and ask the engine
            config = _config(protocol, n=n, max_rounds=1)
            object.__setattr__(config, "theta", theta)
            try:
                run_schedule(config)
                unreadable = False
            except ValueError as exc:
                assert "unexpected probe phase class" in str(exc)
                unreadable = True
            assert refused == unreadable, (n, theta)
            residual = (0.0 + n * (-theta / n)) + theta
            assert refused == (abs(residual) >= 1e-9), (n, theta)


def test_config_accepts_readable_phases():
    for theta in (math.pi, -0.2):
        assert _config(theta=theta).theta == theta


def test_config_beta_property():
    cfg = _config(alpha_sq=0.8)
    assert cfg.beta == pytest.approx(math.sqrt(0.2), abs=1e-15)
    assert cfg.alpha**2 + cfg.beta**2 == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_round_one_success_probability(protocol):
    for alpha_sq in ALPHA_GRID:
        cfg = _config(protocol=protocol, alpha_sq=alpha_sq)
        out = run_round(prepare_less_entangled_noon(cfg.alpha, 2), cfg, 1)
        assert out.round_index == 1
        expected = 2.0 * alpha_sq * (1.0 - alpha_sq)
        assert out.success_prob == pytest.approx(expected, abs=1e-12)
        assert out.failure_prob == pytest.approx(1.0 - expected, abs=1e-12)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_round_one_success_state_is_target(protocol):
    cfg = _config(protocol=protocol, alpha_sq=0.8, n=3)
    out = run_round(prepare_less_entangled_noon(cfg.alpha, 3), cfg, 1)
    target = maximally_entangled_noon(3)
    assert fidelity_up_to_global_phase(out.success_state, target) == pytest.approx(
        1.0, abs=1e-10
    )


def test_round_one_failure_state_coefficients():
    cfg = _config(protocol="ecp1", alpha_sq=0.8)
    out = run_round(prepare_less_entangled_noon(cfg.alpha, 2), cfg, 1)
    # failure branch carries squared coefficients, renormalized
    norm = math.sqrt(0.68)
    assert abs(out.failure_state.amplitude((2, 0))) == pytest.approx(
        0.8 / norm, abs=1e-10
    )
    assert abs(out.failure_state.amplitude((0, 2))) == pytest.approx(
        0.2 / norm, abs=1e-10
    )


def test_round_records_vbs_transmission_only_for_ecp2():
    cfg1 = _config(protocol="ecp1", alpha_sq=0.8)
    out1 = run_round(prepare_less_entangled_noon(cfg1.alpha, 2), cfg1, 1)
    assert out1.vbs_transmission_used is None
    cfg2 = _config(protocol="ecp2", alpha_sq=0.8)
    out2 = run_round(prepare_less_entangled_noon(cfg2.alpha, 2), cfg2, 1)
    assert out2.vbs_transmission_used == pytest.approx(0.8, abs=1e-12)


def test_round_and_reading_records_have_fixed_fields_and_are_immutable():
    cfg = _config(protocol="ecp2", alpha_sq=0.8)
    state = prepare_less_entangled_noon(cfg.alpha, 2)
    outcome = run_round(state, cfg, 1)
    assert RoundOutcome._fields == (
        "round_index", "success_state", "success_prob",
        "failure_state", "failure_prob", "vbs_transmission_used",
    )
    assert tuple(outcome) == tuple(getattr(outcome, f) for f in RoundOutcome._fields)
    aux = PureState(("c1", "c2"), {(1, 0): 0.6, (0, 1): 0.8})
    readings = homodyne_partition(cross_kerr_tag(tensor(state, aux), "c1", 0.1))
    assert HomodyneOutcome._fields == ("phase_class", "branch", "probability")
    assert [type(r) for r in readings] == [HomodyneOutcome] * 2
    for record, field in ((outcome, "success_prob"), (readings[0], "probability")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_round_two_on_recycled_state(protocol):
    cfg = _config(protocol=protocol, alpha_sq=0.8)
    first = run_round(prepare_less_entangled_noon(cfg.alpha, 2), cfg, 1)
    second = run_round(first.failure_state, cfg, 2)
    # conditional success of round 2 given round-1 failure
    x2, y2 = 0.64 / 0.68, 0.04 / 0.68
    assert second.success_prob == pytest.approx(2 * x2 * y2, abs=1e-12)
    # chained with the 0.68 failure weight this is the familiar round-2 yield
    assert first.failure_prob * second.success_prob == pytest.approx(
        2 * 0.64 * 0.04 / 0.68, abs=1e-12
    )
    target = maximally_entangled_noon(2)
    assert fidelity_up_to_global_phase(second.success_state, target) == pytest.approx(
        1.0, abs=1e-10
    )


def test_round_failure_squares_coefficients_twice():
    cfg = _config(protocol="ecp2", alpha_sq=0.8)
    first = run_round(prepare_less_entangled_noon(cfg.alpha, 2), cfg, 1)
    second = run_round(first.failure_state, cfg, 2)
    # after two failures the coefficient ratio is (x/y)^4
    x, y = 0.8, 0.2
    norm = math.hypot(x * x, y * y)
    expected = superpose(
        [
            (x * x / norm, basis_state(("a1", "b1"), (2, 0))),
            (y * y / norm, basis_state(("a1", "b1"), (0, 2))),
        ]
    )
    assert fidelity_up_to_global_phase(second.failure_state, expected) == pytest.approx(
        1.0, abs=1e-10
    )


def test_round_balanced_input_yields_half(protocol_pair=("ecp1", "ecp2")):
    for protocol in protocol_pair:
        cfg = _config(protocol=protocol, alpha_sq=0.5)
        out = run_round(prepare_less_entangled_noon(cfg.alpha, 2), cfg, 1)
        assert out.success_prob == pytest.approx(0.5, abs=1e-12)


def test_round_negative_theta_works():
    cfg = _config(protocol="ecp1", alpha_sq=0.8, theta=-0.2)
    out = run_round(prepare_less_entangled_noon(cfg.alpha, 2), cfg, 1)
    assert out.success_prob == pytest.approx(0.32, abs=1e-12)


def test_round_rejects_wrong_photon_number():
    cfg = _config(protocol="ecp1", alpha_sq=0.8, n=3)
    with pytest.raises(ValueError):
        run_round(prepare_less_entangled_noon(cfg.alpha, 2), cfg, 1)


def test_round_rejects_non_noon_input():
    cfg = _config(protocol="ecp1", alpha_sq=0.8)
    bad = basis_state(("a1", "b1"), (1, 1))
    with pytest.raises(ValueError):
        run_round(bad, cfg, 1)
    # a tiny negative or imaginary coefficient is a phase, not a zero
    for small in (-1e-12, 1e-12j):
        with pytest.raises(ValueError):
            run_round(PureState(("a1", "b1"), {(2, 0): 1.0, (0, 2): small}), cfg, 1)


_AUX_LABEL = {"ecp1": "a2", "ecp2": "c1"}
_DETECTOR_LABEL = {"ecp1": "d1", "ecp2": "e2"}
_A, _B = math.sqrt(0.8), math.sqrt(0.2)
_SIG = ("a1", "b1")
# case -> (input state for a protocol, refused before the optics start)
_REJECTED_INPUTS = {
    "three-mode register": (
        lambda p: PureState(("a1", "b1", "x1"), {(2, 0, 0): _A, (0, 2, 0): _B}),
        True,
    ),
    "empty state": (lambda p: PureState(_SIG, {}), True),
    "ket (1,1)": (lambda p: basis_state(_SIG, (1, 1)), True),
    "mixed N": (lambda p: PureState(_SIG, {(2, 0): _A, (0, 3): _B}), True),
    "wrong N": (lambda p: prepare_less_entangled_noon(_A, 3), True),
    "vacuum ket": (lambda p: PureState(_SIG, {(2, 0): _A, (0, 0): _B}), True),
    "negative coefficient": (lambda p: PureState(_SIG, {(2, 0): 1.0, (0, 2): -1e-12}), True),
    "imaginary coefficient": (lambda p: PureState(_SIG, {(2, 0): 1.0, (0, 2): 1e-12j}), True),
    # tensor refuses an auxiliary label, beam_splitter a detector label
    "aux label first": (
        lambda p: prepare_less_entangled_noon(_A, 2, (_AUX_LABEL[p], "b1")), False
    ),
    "aux label second": (
        lambda p: prepare_less_entangled_noon(_A, 2, ("a1", _AUX_LABEL[p])), False
    ),
    "detector label first": (
        lambda p: prepare_less_entangled_noon(_A, 2, (_DETECTOR_LABEL[p], "b1")), False
    ),
    "detector label second": (
        lambda p: prepare_less_entangled_noon(_A, 2, ("a1", _DETECTOR_LABEL[p])), False
    ),
}


def _optics_reached(*args):
    raise AssertionError("a malformed input reached the optics")


@pytest.mark.parametrize("case", sorted(_REJECTED_INPUTS))
@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_round_rejects_every_input_outside_its_noon_form(protocol, case, monkeypatch):
    # an N=2 config takes only c_a|2,0> + c_b|0,2> with exactly real c >= 0 on
    # two signal modes that are none of the scheme's auxiliary or detector labels
    build, at_boundary = _REJECTED_INPUTS[case]
    state = build(protocol)
    if at_boundary:
        monkeypatch.setattr(protocols, "tensor", _optics_reached)
    with pytest.raises(ValueError):
        run_round(state, _config(protocol=protocol, alpha_sq=0.8, n=2), 1)


def test_round_rejects_bad_round_index():
    cfg = _config(protocol="ecp1", alpha_sq=0.8)
    st = prepare_less_entangled_noon(cfg.alpha, 2)
    with pytest.raises(ValueError):
        run_round(st, cfg, 0)


def test_round_degenerate_recycled_input():
    # once deep recycling at extreme imbalance squares one coefficient to an
    # exact zero, the input is a single basis ket; the auxiliary photon built
    # from it is unentangled, so the round only returns the recyclable branch
    cfg = _config(protocol="ecp2", alpha_sq=0.1)
    collapsed = basis_state(("a1", "b1"), (0, 2))
    out = run_round(collapsed, cfg, 6)
    assert out.success_state is None
    assert out.success_prob == 0.0
    assert out.failure_prob == pytest.approx(1.0, abs=1e-12)
    assert out.failure_state.amplitude((0, 2)) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_round_refuses_detector_branches_that_disagree(protocol, monkeypatch):
    # without the sign correction a second-detector click leaves the relative
    # minus sign in place, so the two branches cannot be folded into one
    monkeypatch.setattr(protocols, "negate_occupied", lambda state, mode: state)
    cfg = _config(protocol=protocol, alpha_sq=0.8)
    with pytest.raises(ValueError, match="detector branches disagree"):
        run_round(prepare_less_entangled_noon(cfg.alpha, 2), cfg, 1)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_round_refuses_a_readout_without_the_failure_reading(protocol, monkeypatch):
    def success_reading_only(tagged):
        readings = homodyne_partition(tagged)
        return [r for r in readings if r.phase_class >= PHASE_CLASS_TOLERANCE]

    monkeypatch.setattr(protocols, "homodyne_partition", success_reading_only)
    cfg = _config(protocol=protocol, alpha_sq=0.8)
    with pytest.raises(ValueError, match="no recyclable branch"):
        run_round(prepare_less_entangled_noon(cfg.alpha, 2), cfg, 1)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_schedule_unconditional_chain(protocol):
    for alpha_sq in (0.25, 0.8):
        cfg = _config(protocol=protocol, alpha_sq=alpha_sq, max_rounds=6)
        schedule = run_schedule(cfg)
        expected = _chain_unconditional(alpha_sq, 6)
        assert len(schedule.per_round) == 6
        for stats, want in zip(schedule.per_round, expected):
            assert stats.p_unconditional == pytest.approx(want, abs=1e-12)
        assert schedule.p_total == pytest.approx(sum(expected), abs=1e-12)


def test_schedule_balanced_point_saturates():
    cfg = _config(protocol="ecp2", alpha_sq=0.5, max_rounds=10)
    schedule = run_schedule(cfg)
    assert schedule.p_total == pytest.approx(1.0 - 2.0**-10, abs=1e-12)
    for k, stats in enumerate(schedule.per_round, start=1):
        assert stats.p_unconditional == pytest.approx(2.0**-k, abs=1e-12)
        assert stats.p_conditional == pytest.approx(0.5, abs=1e-12)


def test_schedule_single_round():
    cfg = _config(protocol="ecp1", alpha_sq=0.8, max_rounds=1)
    schedule = run_schedule(cfg)
    assert schedule.p_total == pytest.approx(0.32, abs=1e-12)
    assert schedule.protocol == "ecp1"
    assert schedule.n_photons == 2


def test_schedule_total_monotone_in_rounds():
    prev = 0.0
    for k_max in range(1, 8):
        cfg = _config(protocol="ecp2", alpha_sq=0.4, max_rounds=k_max)
        total = run_schedule(cfg).p_total
        assert total > prev
        assert total <= 1.0 + 1e-12
        prev = total


def test_schedule_success_fidelity_is_unity():
    cfg = _config(protocol="ecp1", alpha_sq=0.8, n=3, max_rounds=4)
    schedule = run_schedule(cfg)
    for stats in schedule.per_round:
        assert stats.success_fidelity == pytest.approx(1.0, abs=1e-10)


def test_schedule_deep_rounds_handle_pruned_tail(reference_rounds):
    # the recycled small amplitude at round 8 is ~1e-61: it is kept, and the
    # round still heralds the balanced target with the reference yield
    cfg = _config(protocol="ecp2", alpha_sq=0.1, max_rounds=8)
    schedule = run_schedule(cfg)
    assert len(schedule.per_round) == 8
    tail = schedule.per_round[-1]
    ref = reference_rounds(cfg.alpha, 8)[-1]
    assert abs(tail.p_unconditional - ref) <= 1e-9 * ref
    assert tail.success_fidelity == pytest.approx(1.0, abs=1e-9)


# Each recycle squares the coefficients, so the relative error of their
# ratio doubles every round: at round k a double-precision engine is about
# 2^k ulp off. Within 1e-14 of alpha^2 = 1/2 the yields stay above 1e-300
# far beyond round 30, where that error passes 1e-9, so the grid keeps
# |x - y| >= 1e-3. This is a precision limit of doubles, not a tolerance.
_REFERENCE_ALPHA_SQ = (
    1e-3, 0.1, 0.25, 0.4, 0.49, 0.499, 0.501, 0.51, 0.6, 0.8, 0.9, 0.999
)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_engine_matches_mpmath_reference(protocol, reference_rounds):
    checked = 0
    for n in (1, 2, 3, 5):
        for alpha_sq in _REFERENCE_ALPHA_SQ:
            cfg = _config(protocol=protocol, alpha_sq=alpha_sq, n=n, max_rounds=40)
            rows = run_schedule(cfg).per_round
            for row, ref in zip(rows, reference_rounds(cfg.alpha, 40)):
                if ref < 1e-300:
                    continue
                assert abs(row.p_unconditional - ref) <= 1e-9 * ref, (
                    n, alpha_sq, row.round_index, row.p_unconditional, float(ref)
                )
                assert row.success_fidelity == pytest.approx(1.0, abs=1e-9)
                checked += 1
    assert checked == 556


_STRESS_ALPHA_SQ = (
    [10.0**e for e in np.linspace(-300, -1, 30)]
    + [0.25, 0.4, 0.49, 0.4999, 0.5, 0.5001, 0.51, 0.6, 0.75]
    + [1.0 - 10.0**e for e in np.linspace(-16, -1, 16)]
)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_engine_stress_from_underflow_to_one(protocol):
    # nothing raises, and every round that can succeed heralds the target
    for n in (1, 2, 3, 100):
        for alpha_sq in _STRESS_ALPHA_SQ:
            cfg = _config(protocol=protocol, alpha_sq=alpha_sq, n=n, max_rounds=60)
            for row in run_schedule(cfg).per_round:
                if row.p_conditional > 0.0:
                    assert abs(row.success_fidelity - 1.0) <= 1e-9, (
                        n, alpha_sq, row.round_index, row.success_fidelity
                    )


def test_loss_model_identity_cases():
    cfg = _config(protocol="ecp2", alpha_sq=0.8, max_rounds=3, loss_eta=0.7)
    schedule = run_schedule(cfg)
    assert apply_loss_model(schedule, cfg) is schedule
    cfg1 = _config(protocol="ecp1", alpha_sq=0.8, max_rounds=3, loss_eta=1.0)
    schedule1 = run_schedule(cfg1)
    assert apply_loss_model(schedule1, cfg1) is schedule1


def test_loss_model_scales_ecp1_by_eta_squared():
    cfg = _config(protocol="ecp1", alpha_sq=0.5, max_rounds=1, loss_eta=0.9)
    schedule = run_schedule(cfg)
    lossy = apply_loss_model(schedule, cfg)
    assert lossy.p_total == pytest.approx(0.405, abs=1e-12)
    for stats, lossy_stats in zip(schedule.per_round, lossy.per_round):
        assert lossy_stats.p_conditional == pytest.approx(
            0.81 * stats.p_conditional, abs=1e-12
        )
        assert lossy_stats.p_unconditional == pytest.approx(
            0.81 * stats.p_unconditional, abs=1e-12
        )


def test_loss_model_zero_eta_kills_ecp1():
    cfg = _config(protocol="ecp1", alpha_sq=0.8, max_rounds=4, loss_eta=0.0)
    lossy = apply_loss_model(run_schedule(cfg), cfg)
    assert lossy.p_total == 0.0


def test_loss_model_rejects_mismatched_config():
    cfg1 = _config(protocol="ecp1", alpha_sq=0.8, loss_eta=0.9)
    cfg2 = _config(protocol="ecp2", alpha_sq=0.8, loss_eta=0.9)
    schedule = run_schedule(cfg1)
    with pytest.raises(ValueError):
        apply_loss_model(schedule, cfg2)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_protocols_agree_for_all_photon_numbers(n):
    for alpha_sq in (0.25, 0.8):
        cfg1 = _config(protocol="ecp1", alpha_sq=alpha_sq, n=n, max_rounds=4)
        cfg2 = _config(protocol="ecp2", alpha_sq=alpha_sq, n=n, max_rounds=4)
        s1 = run_schedule(cfg1)
        s2 = run_schedule(cfg2)
        assert s1.p_total == pytest.approx(s2.p_total, abs=1e-12)
        for a, b in zip(s1.per_round, s2.per_round):
            assert a.p_unconditional == pytest.approx(b.p_unconditional, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 100])
@pytest.mark.parametrize("k_max", [10, 60])
def test_protocols_give_bit_identical_lossless_yields(n, k_max):
    # ecp2 is ecp1 with the auxiliary photon kept local: the same yields, bit for bit
    grid = [*_BATCH_ALPHA_SQ, *np.linspace(0.01, 0.99, 41)]
    ecp1, ecp2 = (
        run_schedules(_config(protocol, n=n, max_rounds=k_max), [math.sqrt(x) for x in grid])
        for protocol in ("ecp1", "ecp2")
    )
    for a, b in zip(ecp1, ecp2):
        assert _same_bits(a.p_total, b.p_total), a.alpha
        for row_a, row_b in zip(a.per_round, b.per_round):
            for field in ("p_conditional", "p_unconditional"):
                assert _same_bits(getattr(row_a, field), getattr(row_b, field)), (
                    a.alpha, row_a.round_index, field
                )


# Each scheme in the paper's own labels: auxiliary modes, the coefficient
# order of its photon, the mode its probe tags, and its mixer onto the detectors.
_PAPER_SCHEMES = {
    "ecp1": (("a2", "b2"), False, "b2", BeamSplitterSpec("a2", "b2", "d1", "d2", 0.5, "ecp1")),
    "ecp2": (("c1", "c2"), True, "c1", BeamSplitterSpec("c1", "c2", "e1", "e2", 0.5, "ecp2")),
}


def _paper_round(state, protocol, n, theta):
    """One round rebuilt from public primitives: (p_success, success, p_fail, failure)."""
    aux_modes, swapped, tag_mode, mixer = _PAPER_SCHEMES[protocol]
    ca, cb = state.amplitude((n, 0)).real, state.amplitude((0, n)).real
    photon = dict(zip([(1, 0), (0, 1)], (cb, ca) if swapped else (ca, cb)))
    tagged = cross_kerr_tag(tensor(state, PureState(aux_modes, photon)), "b1", -theta / n)
    # sorted by phase class: the 0 (failure) reading, then the |theta| one
    failure, success = homodyne_partition(cross_kerr_tag(tagged, tag_mode, theta))
    detectors = [mixer.mode_out_1, mixer.mode_out_2]
    folded = []
    for reading in (success, failure):
        branches = detect_photon(beam_splitter(reading.branch, mixer), detectors)
        fired, branch, _ = branches[0]
        assert fired == detectors[0]
        for _, other, _ in branches[1:]:
            other = negate_occupied(other, "b1")
            assert fidelity_up_to_global_phase(branch, other) == pytest.approx(1.0)
        folded += [reading.probability, branch]
    return tuple(folded)


def _hex_real_amplitudes(state):
    assert all(amp.imag == 0.0 for amp in state.terms.values())
    return state.register, {ket: amp.real.hex() for ket, amp in state.terms.items()}


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("alpha_sq", [0.2, 0.5 + 5.2e-15, 0.734521, 0.8])
def test_round_matches_the_paper_circuit_rebuilt_from_primitives(protocol, n, alpha_sq):
    config = _config(protocol, alpha_sq, n, theta=0.1)
    engine = rebuilt = prepare_less_entangled_noon(config.alpha, n)
    for k in (1, 2, 3):
        outcome = run_round(engine, config, k)
        p_success, success, p_failure, rebuilt = _paper_round(rebuilt, protocol, n, 0.1)
        assert outcome.success_prob.hex() == p_success.hex()
        assert outcome.failure_prob.hex() == p_failure.hex()
        assert _hex_real_amplitudes(outcome.success_state) == _hex_real_amplitudes(success)
        assert _hex_real_amplitudes(outcome.failure_state) == _hex_real_amplitudes(rebuilt)
        engine = outcome.failure_state


# alpha^2 = 1e-4 and 0.9999 lose their smaller coefficient to underflow
# mid-run while the other elements keep both; 10^-2.5 and 1e-78 pass through
# a subnormal branch norm; the rest sit near balance, repeat a value, or are
# generic.
_BATCH_ALPHA_SQ = (
    1e-4, 0.9999, 0.5 + 1e-15, 0.5 - 1e-15, 0.5 + 1e-9, 0.5000001,
    0.3, 0.3, 0.8, 1e-300, 1 - 1e-16, 0.12345, 10**-2.5, 1e-78, 1e-4,
)


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and struct.pack("<d", a) == struct.pack("<d", b)


def _assert_batch_matches_scalar_runs(settings, alphas):
    # settings' own alpha is not in the batch, so the batch cannot be using it
    assert settings.alpha not in alphas
    batch = run_schedules(settings, alphas)
    assert len(batch) == len(alphas)
    for alpha, got in zip(alphas, batch):
        config = replace(settings, alpha=alpha)
        want = run_schedule(config)
        assert (got.protocol, got.alpha, got.n_photons) == (
            config.protocol, config.alpha, config.n_photons
        )
        assert _same_bits(got.p_total, want.p_total)
        assert len(got.per_round) == len(want.per_round) == config.max_rounds
        for got_row, want_row in zip(got.per_round, want.per_round):
            assert got_row.round_index == want_row.round_index
            # a success reading is absent exactly where its probability is 0
            for row in (got_row, want_row):
                assert math.isnan(row.success_fidelity) == (row.p_conditional <= 0.0), (
                    config.alpha, row
                )
            for field in ("vbs_transmission", "p_conditional", "p_unconditional",
                          "success_fidelity"):
                assert _same_bits(getattr(got_row, field), getattr(want_row, field)), (
                    config.alpha, got_row.round_index, field
                )
    return batch


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 2, 3, 100])
@pytest.mark.parametrize("k_max", [1, 10, 60])
def test_run_schedules_equals_scalar_runs_bit_for_bit(protocol, n, k_max):
    settings = _config(protocol, 0.77, n, max_rounds=k_max)
    batch = _assert_batch_matches_scalar_runs(settings, [math.sqrt(x) for x in _BATCH_ALPHA_SQ])
    # the grid really mixes present and absent success readings in one round
    absent = [{math.isnan(s.per_round[k].success_fidelity) for s in batch} for k in range(k_max)]
    assert ({True, False} in absent) == (k_max > 1)


def test_run_schedules_equals_scalar_runs_on_a_dense_grid():
    # a last-bit slip in one element-wise operation (say x * x for abs(x) ** 2)
    # changes about one round yield in a thousand, so this grid is dense
    grid = np.random.default_rng(6).uniform(0.01, 0.99, 600)
    settings = _config("ecp2", 0.77, 1, max_rounds=10)
    _assert_batch_matches_scalar_runs(settings, [math.sqrt(x) for x in grid])


def test_run_schedules_of_nothing_is_empty():
    assert run_schedules(_config(), []) == []
    assert run_schedules(_config(), iter(())) == []


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, math.nan, math.inf, True, "0.5", 10**400])
def test_run_schedules_rejects_an_alpha_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match="alpha must lie strictly inside"):
        run_schedules(_config(), [0.6, bad])
