"""Tests for the concentration-round engine and schedule runner."""

import math

import numpy as np
import pytest

from noonecp import (
    ProtocolConfig,
    PureState,
    apply_loss_model,
    basis_state,
    fidelity_up_to_global_phase,
    maximally_entangled_noon,
    norm_sq,
    prepare_aux_ecp1,
    prepare_aux_ecp2,
    prepare_less_entangled_noon,
    run_round,
    run_schedule,
    superpose,
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


def test_round_corrections_note_second_detector():
    cfg = _config(protocol="ecp1", alpha_sq=0.5)
    out = run_round(prepare_less_entangled_noon(cfg.alpha, 2), cfg, 1)
    assert any("d2" in note and "negate(b1)" in note for note in out.corrections_applied)
    cfg2 = _config(protocol="ecp2", alpha_sq=0.5)
    out2 = run_round(prepare_less_entangled_noon(cfg2.alpha, 2), cfg2, 1)
    assert any("e2" in note for note in out2.corrections_applied)


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
