"""Tests for the concentration-round engine and schedule runner."""

import gc
import inspect
import math
import random
import re
import struct
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from noonecp import (
    NORM_TOLERANCE,
    PHASE_CLASS_TOLERANCE,
    BeamSplitterSpec,
    HomodyneOutcome,
    ProtocolConfig,
    PureState,
    RoundOutcome,
    analytics,
    apply_loss_model,
    basis_state,
    beam_splitter,
    cross_kerr_tag,
    detect_photon,
    fidelity_up_to_global_phase,
    fock,
    homodyne_partition,
    maximally_entangled_noon,
    negate_occupied,
    norm_sq,
    normalized,
    optics,
    prepare_aux_ecp1,
    prepare_aux_ecp2,
    prepare_less_entangled_noon,
    protocols,
    run_round,
    run_schedule,
    superpose,
    tensor,
    vbs_transmission,
)
from noonecp.fock import _per_element

ALPHA_GRID = (0.1, 0.25, 0.5, 0.8, 0.9)


def _config(protocol="ecp1", alpha_sq=0.8, n=2, **kw):
    return ProtocolConfig(protocol=protocol, alpha=math.sqrt(alpha_sq), n_photons=n, **kw)


def _settings(protocol="ecp1", n=2, **kw):
    """A config of settings alone, as a grid takes it: its alpha is None."""
    return ProtocolConfig(protocol=protocol, n_photons=n, **kw)


def _schedules(settings, alphas):
    """One ``run_schedule`` per alpha, in order: the scalar runs that the
    batched engine stream is checked against."""
    return [run_schedule(replace(settings, alpha=alpha)) for alpha in alphas]


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
        # theta at exactly the tolerance from 0 reads apart from it, as the readout splits
        for theta in (0.1, 1.0, -0.2, math.pi, 1e7, 1e8, PHASE_CLASS_TOLERANCE,
                      -PHASE_CLASS_TOLERANCE):
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


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_every_theta_the_config_accepts_near_a_multiple_of_2pi_runs(protocol):
    # Just past a multiple of 2*pi, theta itself reads apart from 0, but for
    # some N the success ket's N tags of -theta/N fold to within the tolerance
    # of 0 (theta = 2*pi + 1e-9 at N = 19). The config must refuse exactly
    # those, and every (theta, N) it accepts must run.
    refused_any = False
    for theta in [2 * math.pi * k + s * 1e-9 for k in (-1, 1, 2) for s in (-1, 1)]:
        for n in range(1, 101):
            try:
                _config(protocol, n=n, theta=theta, max_rounds=4)
                refused = False
            except ValueError as exc:
                assert f"theta={theta!r}" in str(exc) and f"into {n} " in str(exc)
                refused = refused_any = True
            config = _config(protocol, n=n, max_rounds=4)
            object.__setattr__(config, "theta", theta)
            try:
                run_schedule(config)
                unreadable = False
            except ValueError:
                unreadable = True
            assert refused == unreadable, (theta, n)
    assert refused_any


# (what the refusal names, a call passing the value to one boundary that rests
# on fock._finite_real)
_NUMBER_BOUNDARIES = {
    "alpha": ("alpha must lie strictly inside", lambda value: ProtocolConfig("ecp2", value)),
    "loss_eta": ("loss_eta", lambda value: ProtocolConfig("ecp1", 0.6, loss_eta=value)),
    "theta": ("theta", lambda value: ProtocolConfig("ecp1", 0.6, theta=value)),
    "transmissivity": (
        "transmissivity", lambda value: BeamSplitterSpec("a", "b", "a", "b", value)
    ),
    "tag phase": (
        "per-photon phase", lambda value: cross_kerr_tag(basis_state(("a",), (1,)), "a", value)
    ),
}


@pytest.mark.parametrize("value", [Fraction(3, 5), np.float32(0.6)], ids=["Fraction", "float32"])
@pytest.mark.parametrize("boundary", _NUMBER_BOUNDARIES)
def test_a_number_refusal_states_the_finite_real_rule(boundary, value):
    # the value lies inside every range here; only its type is refused, so the
    # message must name the type rule, not only the range
    what, call = _NUMBER_BOUNDARIES[boundary]
    with pytest.raises(ValueError, match=re.escape(what)) as refusal:
        call(value)
    assert "a finite real (an int or float, not a bool)" in str(refusal.value)
    assert repr(value) in str(refusal.value)


def test_config_accepts_readable_phases():
    for theta in (math.pi, -0.2):
        assert _config(theta=theta).theta == theta


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
    # the stages join and mix registers unchecked, so the entry refuses these too
    "aux label first": (
        lambda p: prepare_less_entangled_noon(_A, 2, (_AUX_LABEL[p], "b1")), True
    ),
    "aux label second": (
        lambda p: prepare_less_entangled_noon(_A, 2, ("a1", _AUX_LABEL[p])), True
    ),
    "detector label first": (
        lambda p: prepare_less_entangled_noon(_A, 2, (_DETECTOR_LABEL[p], "b1")), True
    ),
    "detector label second": (
        lambda p: prepare_less_entangled_noon(_A, 2, ("a1", _DETECTOR_LABEL[p])), True
    ),
}
# Every core a round calls, in the order it calls them.
_ROUND_OPTICS = ("_tensor", "_tag_phases", "_partition", "_split", "_detect", "_fold_fidelity")


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
        for core in _ROUND_OPTICS:
            monkeypatch.setattr(protocols, core, _optics_reached)
    with pytest.raises(ValueError):
        run_round(state, _config(protocol=protocol, alpha_sq=0.8, n=2), 1)


@pytest.mark.parametrize(
    "aux_modes, detectors",
    [
        (protocols.SHARED_AUX_MODES, ("a1", "d2")),  # a signal label as a detector's
        (("b1", "b2"), protocols.ECP1_DETECTORS),  # a signal label as an auxiliary mode's
        (("c1", "c2"), ("c2", "e2")),  # an auxiliary label as a detector's
        (("c1", "c2"), ("e1", "e1")),  # one detector label twice
    ],
)
def test_a_scheme_refuses_labels_that_are_not_distinct(aux_modes, detectors):
    # the stages tag, mix and detect by position, so the table refuses a scheme
    # whose labels would collide in a round's register
    with pytest.raises(ValueError, match="are not distinct"):
        protocols._scheme(aux_modes, detectors, local=False)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_round_names_each_scheme_label_a_caller_reuses(protocol, monkeypatch):
    # every auxiliary and detector label of the scheme, in either signal
    # position, is refused by name before the round reaches any optics
    for core in _ROUND_OPTICS:
        monkeypatch.setattr(protocols, core, _optics_reached)
    config = _config(protocol=protocol, alpha_sq=0.8, n=2)
    scheme = protocols._SCHEMES[protocol]
    for label in scheme.aux_modes + scheme.detectors:
        for modes in ((label, "b1"), ("a1", label)):
            with pytest.raises(ValueError, match=f"signal mode '{label}'"):
                run_round(prepare_less_entangled_noon(_A, 2, modes), config, 1)


# What a drawn state's amplitudes are: positive, ±0.0 (which drops its ket),
# negative, complex, subnormal, and 1e200.
_DRAWN_AMPLITUDES = (
    lambda rng: rng.uniform(1e-9, 1.0),
    lambda rng: rng.choice((0.0, -0.0)),
    lambda rng: -rng.uniform(1e-12, 1.0),
    lambda rng: complex(rng.uniform(0.01, 1.0), rng.choice((-1, 1)) * rng.uniform(1e-12, 1.0)),
    lambda rng: 5e-324 * rng.randint(1, 2**40),
    lambda rng: 1e200,
)


@pytest.mark.parametrize("seed", range(3))
def test_a_round_refuses_or_keeps_probability_on_drawn_states(seed):
    # run_round's one check: a drawn two-mode state is refused with ValueError,
    # or both returned states hold real floats and the readings' probabilities
    # sum to 1: within a few ulps of the mass the input gives the round,
    # norm^2 * norm^2 (the photon copies its coefficients), which the readout
    # holds within NORM_TOLERANCE of 1
    rng = random.Random(seed)
    kept = refused = 0
    for _ in range(100):
        n = rng.choice((1, 2, 3, 7))
        config = _settings(rng.choice(("ecp1", "ecp2")), n, theta=rng.choice((0.1, -0.2, 2, math.pi)))
        kets = rng.choices(((n, 0), (0, n), (1, 1), (n + 1, 0)), (4, 4, 1, 1), k=rng.randint(1, 2))
        state = PureState(_SIG, {ket: rng.choice(_DRAWN_AMPLITUDES)(rng) for ket in kets})
        if state.terms and rng.random() < 0.75:
            state = normalized(state)
        try:
            outcome = run_round(state, config, 1)
        except ValueError:
            refused += 1
            continue
        kept += 1
        p, f = outcome.success_prob, outcome.failure_prob
        assert abs(p + f - norm_sq(state) ** 2) <= 4 * sys.float_info.epsilon, (state, p, f)
        assert abs(p + f - 1.0) <= NORM_TOLERANCE
        for branch in filter(None, (outcome.success_state, outcome.failure_state)):
            assert all(type(a) is float and math.isfinite(a) for a in branch.terms.values())
    assert kept >= 15 and refused >= 15, (kept, refused)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_a_round_on_a_normalized_subnormal_state_keeps_unit_probability(protocol):
    # hypot of these amplitudes keeps only a subnormal's ~30 bits, so
    # normalizing must not scale by that norm as it stands
    tiny = PureState(_SIG, {(2, 0): 3.117203872884e-312, (0, 2): 5.020741136523e-312})
    unit = normalized(tiny)
    assert abs(norm_sq(unit) - 1.0) <= 4 * sys.float_info.epsilon
    outcome = run_round(unit, _settings(protocol, 2), 1)
    assert abs(outcome.success_prob + outcome.failure_prob - 1.0) <= 4 * sys.float_info.epsilon


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
    # minus sign in place, so the two branches cannot be folded into one: the
    # fold check, stripped of the sign it folds in, takes a plain <a|b>
    def unsigned_fold(kept, other, idx):
        return (fock.inner(kept, other) / math.hypot(*other.terms.values())) ** 2

    monkeypatch.setattr(protocols, "_fold_fidelity", unsigned_fold)
    cfg = _config(protocol=protocol, alpha_sq=0.8)
    with pytest.raises(ValueError, match="detector branches disagree"):
        run_round(prepare_less_entangled_noon(cfg.alpha, 2), cfg, 1)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_round_refuses_a_readout_without_the_failure_reading(protocol, monkeypatch):
    partition = protocols._partition

    def success_reading_only(state, phases):
        return [r for r in partition(state, phases) if r[0] >= PHASE_CLASS_TOLERANCE]

    monkeypatch.setattr(protocols, "_partition", success_reading_only)
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
        _schedules(_settings(protocol, n=n, max_rounds=k_max), [math.sqrt(x) for x in grid])
        for protocol in ("ecp1", "ecp2")
    )
    for a, b in zip(ecp1, ecp2):
        assert _same_bits(a.p_total, b.p_total), a.alpha
        for row_a, row_b in zip(a.per_round, b.per_round):
            for field in ("p_conditional", "p_unconditional"):
                assert _same_bits(getattr(row_a, field), getattr(row_b, field)), (
                    a.alpha, row_a.round_index, field
                )


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 3])
def test_yields_do_not_depend_on_the_probe_phase(protocol, n):
    # the readings fold theta modulo 2*pi, so |theta| > pi reads like its image
    alphas = [math.sqrt(x) for x in (0.1, 0.5 + 5.2e-15, 0.8)]
    thetas = (0.1, -0.2, 2, math.pi, 4.0, -4.0, 2 * math.pi - 0.1, 1e7)
    runs = [
        _schedules(_settings(protocol, n=n, max_rounds=40, theta=theta), alphas)
        for theta in thetas
    ]
    for theta, schedules in zip(thetas[1:], runs[1:]):
        for want, got in zip(runs[0], schedules):
            for row_w, row_g in zip(want.per_round, got.per_round):
                for field in ("p_conditional", "p_unconditional"):
                    assert _same_bits(getattr(row_w, field), getattr(row_g, field)), (
                        theta, got.alpha, row_g.round_index, field
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
# mid-run while the other elements keep both; 10^-2.5 and 1e-78 carry absent
# success readings whose branch norm is subnormal, which are never detected;
# the rest sit near balance, repeat a value, or are generic.
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


def _per_alpha_columns(settings, alphas):
    """Each round's (t, p, u) per alpha, as the engine's one batched pass over
    ``alphas`` streams them, rounds 1..K in order."""
    stream = list(protocols._rounds(settings, alphas))
    assert [k for k, *_ in stream] == list(range(1, settings.max_rounds + 1))
    return [
        list(zip(*(_per_element(v, len(alphas)) for v in (t, p, u))))
        for _k, t, p, u, _branch in stream
    ]


def _assert_batch_matches_scalar_runs(settings, alphas):
    """The batched engine stream's printed columns and its grid totals against
    each alpha's own schedule, bit for bit. The schedules are returned."""
    batch = _schedules(settings, alphas)
    assert len(batch) == len(alphas)
    columns = _per_alpha_columns(settings, alphas)
    totals = protocols._grid_totals(settings, alphas)
    for i, (alpha, got) in enumerate(zip(alphas, batch)):
        assert (got.protocol, got.alpha, got.n_photons) == (
            settings.protocol, alpha, settings.n_photons
        )
        assert _same_bits(totals[i], got.p_total), alpha
        assert [row.round_index for row in got.per_round] == list(
            range(1, settings.max_rounds + 1)
        )
        for column, row in zip(columns, got.per_round, strict=True):
            assert all(map(_same_bits, column[i], row[1:4])), (alpha, row)
            # a success reading is absent exactly where its probability is 0
            assert math.isnan(row.success_fidelity) == (row.p_conditional <= 0.0), (alpha, row)
    return batch


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 2, 3, 100])
@pytest.mark.parametrize("k_max", [1, 10, 60])
def test_the_batched_stream_equals_scalar_runs_bit_for_bit(protocol, n, k_max):
    settings = _settings(protocol, n, max_rounds=k_max)
    batch = _assert_batch_matches_scalar_runs(settings, [math.sqrt(x) for x in _BATCH_ALPHA_SQ])
    # the grid really mixes present and absent success readings in one batched round
    absent = [{math.isnan(s.per_round[k].success_fidelity) for s in batch} for k in range(k_max)]
    assert ({True, False} in absent) == (k_max > 1)


def test_the_batched_stream_equals_scalar_runs_on_a_dense_grid():
    # a last-bit slip in one element-wise operation (say x * x for abs(x) ** 2)
    # changes about one round yield in a thousand, so this grid is dense
    grid = np.random.default_rng(6).uniform(0.01, 0.99, 600)
    settings = _settings("ecp2", 1, max_rounds=10)
    _assert_batch_matches_scalar_runs(settings, [math.sqrt(x) for x in grid])


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_a_float_subclass_alpha_runs_as_its_python_float(protocol):
    # the engine converts each alpha once, so a numpy.float64 grid gives Python
    # floats with the bits of the float grid; Schedule.alpha echoes it as given
    settings = _settings(protocol, 2, max_rounds=12)
    grid = [math.sqrt(x) for x in _STREAM_ALPHA_SQ]
    numpy_grid = [np.float64(a) for a in grid]
    pairs = zip(numpy_grid, _schedules(settings, numpy_grid), _schedules(settings, grid))
    for alpha, got, want in pairs:
        assert got.alpha is alpha
        assert _same_bits(got.p_total, want.p_total)
        for got_row, want_row in zip(got.per_round, want.per_round, strict=True):
            assert all(map(_same_bits, got_row, want_row)), (alpha, got_row, want_row)
    totals = protocols._grid_totals(replace(settings, loss_eta=0.9), numpy_grid)
    assert [type(t) for t in totals] == [float] * len(grid)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, math.nan, math.inf, True, "0.5", 10**400])
def test_a_grid_pass_rejects_an_alpha_outside_the_unit_interval(bad):
    with pytest.raises(ValueError, match="alpha must lie strictly inside"):
        protocols._grid_totals(_settings(), [0.6, bad])


def test_a_config_holds_no_alpha_unless_given_one():
    # alpha is the input, not a setting: a grid's config leaves it out
    assert ProtocolConfig("ecp2").alpha is None


def test_run_schedule_refuses_a_config_without_an_alpha():
    # the config's alpha is run_schedule's input, so a settings-only config has none
    with pytest.raises(ValueError, match=r"alpha.*None"):
        run_schedule(_settings("ecp2"))


def _stream_columns(config, grid):
    """Each round's (k, t, p, u) from ``_rounds``; the repr of a float is its bits."""
    return repr([(k, t, p, u) for k, t, p, u, _branch in protocols._rounds(config, grid)])


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_a_settings_only_config_gives_the_bits_of_one_with_an_alpha(protocol, monkeypatch):
    # only run_schedule reads a config's alpha: every other path takes its input apart
    settings = _settings(protocol, 2, max_rounds=12, loss_eta=0.9)
    with_alpha = replace(settings, alpha=math.sqrt(0.6))
    grid = [math.sqrt(x) for x in _STREAM_ALPHA_SQ]

    state = prepare_less_entangled_noon(grid[2], 2)
    bare, given = (run_round(state, config, 1) for config in (settings, with_alpha))
    for field in ("round_index", "success_prob", "failure_prob", "vbs_transmission_used"):
        assert _same_bits(getattr(bare, field), getattr(given, field)), field
    for field in ("success_state", "failure_state"):
        assert _hex_real_amplitudes(getattr(bare, field)) == _hex_real_amplitudes(
            getattr(given, field)
        ), field

    schedules = _schedules(settings, grid)
    assert [repr(apply_loss_model(s, settings)) for s in schedules] == [
        repr(apply_loss_model(s, with_alpha)) for s in schedules
    ]
    bare, given = (protocols._grid_totals(config, grid) for config in (settings, with_alpha))
    assert [t.hex() for t in bare] == [t.hex() for t in given]

    # figure3_sweep's cross-check streams a settings-only config
    streamed = []

    def spy(config, alphas):
        streamed.append((config, alphas))
        return protocols._rounds(config, alphas)

    monkeypatch.setattr(analytics, "_rounds", spy)
    points = analytics.figure3_sweep(12, grid, cross_check=True, n_photons=2, protocol=protocol)
    assert points == analytics.figure3_sweep(12, grid, n_photons=2, protocol=protocol)
    [(config, alphas)] = streamed
    assert config == replace(settings, loss_eta=1.0) and config.alpha is None
    assert _stream_columns(config, alphas) == _stream_columns(
        replace(config, alpha=math.sqrt(0.6)), alphas
    )


# alpha^2 = 1e-4 and 0.9999 lose their success reading mid-schedule at K >= 10.
_TOTALS_ALPHA_SQ = (1e-4, 0.3, 0.5 + 1e-15, 0.8, 0.9999, 0.12345, 0.3)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 100])
@pytest.mark.parametrize("k_max", [1, 10, 1000])
def test_grid_totals_equal_per_point_runs_bit_for_bit(protocol, n, k_max):
    # at K = 1000 three points keep the per-point runs short
    grid = [math.sqrt(x) for x in _TOTALS_ALPHA_SQ[: 3 if k_max == 1000 else None]]
    settings = _settings(protocol, n, max_rounds=k_max)
    lossless = [run_schedule(replace(settings, alpha=a)) for a in grid]
    if k_max > 1:
        # some point's success reading underflows after it has been present
        assert any(
            s.per_round[0].p_conditional > 0.0 and s.per_round[-1].p_conditional == 0.0
            for s in lossless
        )
    for eta in (1.0, 0.9, 0.0):
        cfg = replace(settings, loss_eta=eta)
        totals = protocols._grid_totals(cfg, grid)
        # loss is a factor applied after the circuit, so the fold is lossless
        # whatever the eta, and a lossy total is it times the loss factor
        assert [t.hex() for t in totals] == [s.p_total.hex() for s in lossless], eta
        factor = protocols._loss_factor(cfg)
        want = [apply_loss_model(s, cfg).p_total.hex() for s in lossless]
        assert [(t * factor).hex() for t in totals] == want, eta
        assert protocols._grid_totals(cfg, []) == []


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_deferred_fidelity_column_is_the_eager_one(protocol):
    n, k_max = 2, 12
    grid = [math.sqrt(x) for x in _BATCH_ALPHA_SQ]
    target = maximally_entangled_noon(n)
    batch = _schedules(_settings(protocol, n, max_rounds=k_max), grid)
    absent = 0
    for alpha, schedule in zip(grid, batch):
        config = _config(protocol, alpha * alpha, n, max_rounds=k_max)
        state = prepare_less_entangled_noon(alpha, n)
        for k, row in enumerate(schedule.per_round, start=1):
            outcome = run_round(state, config, k)
            if outcome.success_prob > 0.0:
                want = fidelity_up_to_global_phase(outcome.success_state, target)
            else:
                want = math.nan
                absent += 1
            assert math.isnan(row.success_fidelity) == (row.p_conditional == 0.0)
            assert _same_bits(row.success_fidelity, want), (alpha, k)
            state = outcome.failure_state
    assert absent > 0


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 100])
def test_a_grid_pass_keeps_only_normalized_success_states(protocol, n):
    # The grid totals neither normalize nor detect the streamed success branch,
    # and no caller detects a batch's success branch, so nothing at run time
    # checks that its mass is the probability streamed with it, absent
    # elements included; this pins it. A schedule's success states are
    # normalized, as fidelity_up_to_global_phase checks on every present row.
    grid = [math.sqrt(x) for x in np.linspace(0.001, 0.999, 200)]
    config = _settings(protocol, n)
    absent = 0
    for k, _t, probs, _u, branch in protocols._rounds(config, grid):
        assert branch is not None, k
        for p, x in zip(probs, norm_sq(branch)):
            assert abs(x - p) <= NORM_TOLERANCE, (k, p, x)
        absent += probs.count(0.0)
    assert absent > 0


# The last round whose success reading is present (p_conditional > 0) in a
# K = 100 schedule; from two rounds later on, every round repeats the exact
# fixed point. The double sqrt(0.5) and its two neighbours sit as close to
# balance as a double can, and the upper neighbour's reading ends two rounds
# before theirs.
_LAST_PRESENT_ROUND = {
    0.7071067811865475: 62,
    math.sqrt(0.5): 62,  # 0.7071067811865476
    0.7071067811865477: 60,
    math.sqrt(0.5 + 5.2e-15): 55,
    math.sqrt(0.8): 10,
    math.sqrt(0.999999): 6,
}


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 3])
def test_the_last_present_success_reading_is_pinned(protocol, n):
    assert len(_LAST_PRESENT_ROUND) == 6  # the three doubles near sqrt(0.5) are distinct
    config = _settings(protocol, n, max_rounds=100)
    last = {}
    for alpha, schedule in zip(_LAST_PRESENT_ROUND, _schedules(config, _LAST_PRESENT_ROUND)):
        present = [row.round_index for row in schedule.per_round if row.p_conditional > 0.0]
        # once absent, the reading stays absent
        assert present == list(range(1, len(present) + 1)), alpha
        last[alpha] = present[-1]
    assert last == _LAST_PRESENT_ROUND
    # A run_round chain from each input reaches the exact fixed point two
    # rounds after its last present reading: no success state, failure_prob
    # exactly 1.0, and a recycled state equal to its input bit for bit, the
    # larger coefficient's ket alone at 1.0. The round before is not fixed yet.
    for alpha, last_present in _LAST_PRESENT_ROUND.items():
        state = prepare_less_entangled_noon(alpha, n)
        for k in range(1, 101):
            outcome = run_round(state, config, k)
            fixed = (
                outcome.success_state is None
                and outcome.failure_prob == 1.0
                and outcome.failure_state == state
            )
            assert fixed is (k >= last_present + 2), (alpha, k)
            state = outcome.failure_state
        assert state.terms == {(n, 0) if alpha * alpha > 0.5 else (0, n): 1.0}, alpha


# The round of a grid batch from which every element sits at its exact fixed
# point, so that the probe stage hands back its input bit for bit. It is the
# latest of the elements' own first fixed rounds: the same for both schemes
# and for N = 1 and 100. A stop in ``_rounds`` may rest on this condition.
_FIRST_FIXED_ROUND = {
    (0.8,): 12,
    (0.9,): 11,
    (0.8, 0.9): 12,
    (0.8, 0.5 + 5.2e-15): 57,
    (0.1, 0.3, 0.7): 12,
}


def _probe_steps(config, alphas, monkeypatch):
    """(input, output) of each ``_probe_round`` call of a ``_grid_totals`` pass."""
    steps = []
    probe = protocols._probe_round

    def spy(state, config):
        out = probe(state, config)
        steps.append((state, out))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(protocols, "_probe_round", spy)
        protocols._grid_totals(config, alphas)
    return steps


def _state_bits(state, size):
    """A batch of ``size`` as its register and each ket's float.hex per element."""
    return state.register, [
        (ket, [amp.hex() for amp in _per_element(amps, size)])
        for ket, amps in state._terms.items()
    ]


def _first_fixed_round(config, alphas, monkeypatch):
    """The first round whose recycled state is its input, bit for bit, and
    every round's (input, output)."""
    steps = _probe_steps(config, alphas, monkeypatch)
    size = len(alphas)
    fixed = [
        k
        for k, (state, (*_, recycled, _f)) in enumerate(steps, 1)
        if _state_bits(recycled, size) == _state_bits(state, size)
    ]
    return fixed[0], steps


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 100])
def test_a_batch_repeats_its_input_from_its_latest_elements_fixed_round(
    protocol, n, monkeypatch
):
    config = _settings(protocol, n, max_rounds=70)
    for alpha_sqs, pinned in _FIRST_FIXED_ROUND.items():
        alphas = [math.sqrt(x) for x in alpha_sqs]
        size = len(alphas)
        first, steps = _first_fixed_round(config, alphas, monkeypatch)
        assert first == pinned, alpha_sqs
        assert first == max(_first_fixed_round(config, [a], monkeypatch)[0] for a in alphas)
        for k, (state, (_t, p, branch, recycled, f)) in enumerate(steps, 1):
            # before the fixed round the recycled state moves; from it on the
            # round hands back its input, heralds nothing and recycles all
            assert (_state_bits(recycled, size) == _state_bits(state, size)) is (k >= first)
            if k >= first:
                assert branch is None, (alpha_sqs, k)
                assert _per_element(p, size) == [0.0] * size, (alpha_sqs, k)
                assert _per_element(f, size) == [1.0] * size, (alpha_sqs, k)


def test_the_detection_stage_takes_its_branch_alone():
    # it reads nothing off a config: the branch's own register carries the mix
    assert list(inspect.signature(protocols._interfere_and_detect).parameters) == ["branch"]


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_both_detector_groups_fire_on_every_branch_a_round_detects(protocol, n, monkeypatch):
    # Each ket of a normalized branch splits onto both detectors with weight
    # +-1/sqrt(2), and one ket has |amplitude| >= 1/sqrt(2), so the detection
    # stage unpacks exactly two groups, the first detector's first, each with
    # mass, on every success and failure branch of a chain that runs past its
    # fixed point, near balance and far from it.
    detect = protocols._detect
    fired = []

    def spy(state, idxs, keep):
        groups = detect(state, idxs, keep)
        fired.append([(j, norm_sq(group) > 0.0) for j, group in groups])
        return groups

    monkeypatch.setattr(protocols, "_detect", spy)
    config = _settings(protocol, n, max_rounds=70)
    for alpha in [*_LAST_PRESENT_ROUND, math.sqrt(0.1), math.sqrt(1e-12)]:
        state = prepare_less_entangled_noon(alpha, n)
        for k in range(1, 71):
            state = run_round(state, config, k).failure_state
    assert fired
    assert all(groups == [(0, True), (1, True)] for groups in fired)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 100])
def test_a_schedule_detects_no_success_branch_with_an_absent_element(protocol, n, monkeypatch):
    # An absent reading heralds nothing: run_schedule runs one alpha per pass
    # and detects a success branch only where its reading is present, so no
    # branch it detects holds a zero mass.
    grid = [math.sqrt(x) for x in _BATCH_ALPHA_SQ]
    detect = protocols._interfere_and_detect
    masses = []

    def spy(branch):
        mass = norm_sq(branch)
        masses.append(list(mass) if isinstance(mass, tuple) else [mass])
        return detect(branch)

    monkeypatch.setattr(protocols, "_interfere_and_detect", spy)
    k_max = 60
    _schedules(_settings(protocol, n, max_rounds=k_max), grid)
    # each round detects its failure branch, and some also a success branch
    assert len(masses) > k_max
    assert min(map(min, masses)) > 0.0


# In 12 rounds the two lopsided points keep their success reading up to round
# 7, the others up to round 9 or 10, so rounds 8-10 mix present and absent
# readings and rounds 11-12 have none.
_LOPSIDED_ALPHA_SQ = (1e-4, 0.9999)
_STREAM_ALPHA_SQ = (*_LOPSIDED_ALPHA_SQ, 0.3, 0.8, 0.12345)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 100])
def test_the_engine_stream_equals_a_run_round_loop_bit_for_bit(protocol, n):
    # run_round checks the public state once and runs the engine's float pair,
    # as _rounds does, so every state of the chain holds Python floats
    k_max = 12
    grid = [math.sqrt(x) for x in _STREAM_ALPHA_SQ]
    columns = _per_alpha_columns(_settings(protocol, n, max_rounds=k_max), grid)
    absent = 0
    for i, alpha in enumerate(grid):
        config = _config(protocol, alpha * alpha, n, max_rounds=k_max)
        state, survival = prepare_less_entangled_noon(alpha, n), 1.0
        for k, row in enumerate(columns, start=1):
            outcome = run_round(state, config, k)
            want = (outcome.vbs_transmission_used, outcome.success_prob,
                    outcome.success_prob * survival)
            assert all(map(_same_bits, row[i], want)), (alpha, k, row[i], want)
            for state in filter(None, (outcome.success_state, outcome.failure_state)):
                assert {type(a) for a in state.terms.values()} == {float}, (alpha, k, state)
            absent += outcome.success_state is None
            survival *= outcome.failure_prob
            state = outcome.failure_state
    assert absent > 0


def _present_rows(schedules):
    """How many rows of ``schedules`` have a present success reading."""
    return sum(row.p_conditional > 0.0 for s in schedules for row in s.per_round)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
def test_only_a_schedule_detects_the_success_branch(protocol, monkeypatch):
    k_max = 12
    config = _settings(protocol, 1, max_rounds=k_max)
    grid = [math.sqrt(x) for x in _LOPSIDED_ALPHA_SQ]
    present = _present_rows(_schedules(config, grid))
    assert 0 < present < len(grid) * k_max
    calls = []
    detect = protocols._interfere_and_detect

    def counting(branch):
        calls.append(branch)
        return detect(branch)

    monkeypatch.setattr(protocols, "_interfere_and_detect", counting)
    protocols._grid_totals(config, grid)
    assert len(calls) == k_max
    calls.clear()
    # a schedule runs each alpha on its own: one failure detection per round,
    # and one success detection per present reading
    _schedules(config, grid)
    assert len(calls) == len(grid) * k_max + present


def _patch_every_binding(monkeypatch, original, replacement):
    """Bind ``replacement`` wherever a ``noonecp`` module binds ``original``;
    the names of those modules."""
    bound = []
    for name, module in list(sys.modules.items()):
        if name == "noonecp" or name.startswith("noonecp."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
                    bound.append(name)
    return bound


def _spy_on_every_binding(monkeypatch, original):
    """The kets ``original`` is called on through every ``noonecp`` module that
    binds it, and the names of those modules."""
    calls = []

    def spy(terms):
        calls.append(tuple(terms))
        return original(terms)

    return calls, _patch_every_binding(monkeypatch, original, spy)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 100])
def test_a_round_normalizes_a_branch_once_in_the_detection_stage(protocol, n, monkeypatch):
    # The readout weighs its classes unnormalized; each detection normalizes
    # its branch once, through fock.normalized, and then the one detector group
    # it keeps; the fold check reads the other group's norm without
    # normalizing it.
    k_max = 12
    config = _settings(protocol, n, max_rounds=k_max)
    grid = [math.sqrt(x) for x in _STREAM_ALPHA_SQ]
    present = _present_rows(_schedules(config, grid))
    assert 0 < present < len(grid) * k_max
    calls, bound = _spy_on_every_binding(monkeypatch, fock._normalized)
    assert {"noonecp.fock", "noonecp.optics"} <= set(bound)
    assert "noonecp.protocols" not in bound
    protocols._grid_totals(config, grid)
    assert len(calls) == 2 * k_max
    calls.clear()
    _schedules(config, grid)
    assert len(calls) == 2 * len(grid) * k_max + 2 * present


# The work each stage of an engine pass does, as exact counts: its calls, the
# ``_Batch`` objects built while it is the innermost stage running (None:
# outside every stage, as ``_rounds``' first pair and the grid totals), and
# the kets it takes in and hands out (``_kets``). The grids are 212 points,
# alpha^2 evenly spaced over 0.05..0.95, K = 10; the deep run is the
# near-balanced golden one, whose success reading lasts 55 rounds. Each round
# tags its joint state in one pass, detects its failure branch, and folds the
# second detector's sign into the fold check's overlap, so no stage negates a
# state (the layering table's ``negate_occupied`` row keeps it so). Each
# detection normalizes its branch and the one detector group it keeps:
# ``_detect`` hands out both groups raw, and the fold check reads the other
# group's norm, so ``_normalized`` takes in the branch's kets and the kept
# group's, as many as ``_detect`` hands out in both groups. The readout takes
# the joint state and its phase map, one entry per ket, so its kets in are
# twice its kets out. A schedule runs each alpha on its own, builds no batch,
# detects each present success branch (2,052 of the grid's 2,120 rows) and
# prints ecp2's VBS setting t, read off the joint state's ket. A change to the engine's
# work restates these counts in the same diff, as a golden CSV is restated.
_STAGES = (
    (protocols, "_probe_round"),
    (optics, "_tag_phases"),
    (optics, "_partition"),
    (protocols, "_interfere_and_detect"),
    (optics, "_split"),
    (optics, "_detect"),
    (fock, "_normalized"),
)
_COUNTED_GRID = [math.sqrt(x) for x in np.linspace(0.05, 0.95, 212)]
# (calls, builds, kets in, kets out) per stage
_GRID_WORK = {
    "_probe_round": (10, 40, 20, 40), "_tag_phases": (10, 0, 40, 40),
    "_partition": (10, 30, 80, 40), "_interfere_and_detect": (10, 30, 20, 20),
    "_split": (10, 40, 20, 40), "_detect": (10, 0, 40, 40), "_normalized": (20, 80, 40, 40),
    None: (0, 32, 0, 0),
}
_STAGE_WORK = {
    "grid ecp2 N=1": (
        lambda: protocols._grid_totals(_settings("ecp2", 1, max_rounds=10), _COUNTED_GRID),
        _GRID_WORK,
    ),
    "grid ecp1 N=100": (
        lambda: protocols._grid_totals(_settings("ecp1", 100, max_rounds=10), _COUNTED_GRID),
        _GRID_WORK,
    ),
    "schedules ecp2 N=1": (
        lambda: _schedules(_settings("ecp2", 1, max_rounds=10), _COUNTED_GRID),
        {
            "_probe_round": (2120, 0, 4238, 8276), "_tag_phases": (2120, 0, 8408, 8408),
            "_partition": (2120, 0, 16816, 8408), "_interfere_and_detect": (4172, 0, 8276, 8276),
            "_split": (4172, 0, 8276, 16552), "_detect": (4172, 0, 16552, 16552),
            "_normalized": (8344, 0, 16552, 16552), None: (0, 0, 0, 0),
        },
    ),
    "run ecp2 K=1000": (
        lambda: [run_schedule(_config("ecp2", 0.5000000000000052, 1, max_rounds=1000))],
        {
            "_probe_round": (1000, 0, 1056, 1165), "_tag_phases": (1000, 0, 1167, 1167),
            "_partition": (1000, 0, 2334, 1167), "_interfere_and_detect": (1055, 0, 1165, 1165),
            "_split": (1055, 0, 1165, 2330), "_detect": (1055, 0, 2330, 2330),
            "_normalized": (2110, 0, 2330, 2330), None: (0, 0, 0, 0),
        },
    ),
}


def _kets(value):
    """The kets in ``value``: a state's and an amplitude or phase map's,
    through tuples and lists."""
    if isinstance(value, PureState):
        return value.num_terms()
    if isinstance(value, dict):
        return len(value)
    if isinstance(value, (tuple, list)) and type(value) is not fock._Batch:
        return sum(map(_kets, value))
    return 0


@pytest.mark.parametrize("engine_pass", sorted(_STAGE_WORK))
def test_each_stage_does_its_pinned_work(engine_pass, monkeypatch):
    run, pinned = _STAGE_WORK[engine_pass]
    work = {name: [0, 0, 0, 0] for _, name in _STAGES}
    work[None] = [0, 0, 0, 0]
    running = [None]
    for owner, name in _STAGES:

        def stage(*args, _name=name, _original=getattr(owner, name)):
            counts = work[_name]
            counts[0] += 1
            counts[2] += _kets(args)
            running.append(_name)
            try:
                out = _original(*args)
            finally:
                running.pop()
            counts[3] += _kets(out)
            return out

        _patch_every_binding(monkeypatch, getattr(owner, name), stage)

    def counting_new(cls, *args):
        work[running[-1]][1] += 1
        return tuple.__new__(cls, *args)

    monkeypatch.setattr(fock._Batch, "__new__", counting_new)
    result = run()
    assert {name: tuple(counts) for name, counts in work.items()} == pinned
    # every ecp2 schedule reports its VBS setting t in every round
    schedules = [s for s in result if isinstance(s, protocols.Schedule)]
    assert all(row.vbs_transmission is not None for s in schedules for row in s.per_round)


# What a round must not repeat: the public ops' label, index and phase
# checks, as the ops and as the checks they are built on.
_STRUCTURAL_CHECKS = (
    (fock, "_mode_index"),
    (fock, "_finite_real"),
    (fock, "tensor"),
    (optics, "cross_kerr_tag"),
    (optics, "beam_splitter"),
    (optics, "homodyne_partition"),
    (optics, "detect_photon"),
    (optics, "negate_occupied"),
)


def _count_every_binding(monkeypatch, functions):
    """Calls of each (module, name) function through every ``noonecp`` binding of it."""
    counts = {}
    for owner, name in functions:
        original = getattr(owner, name)
        counts[name] = 0

        def spy(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        _patch_every_binding(monkeypatch, original, spy)
    return counts


@pytest.mark.parametrize("engine", [_schedules, protocols._grid_totals])
@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 100])
def test_a_round_repeats_no_structural_check(engine, protocol, n, monkeypatch):
    # labels, positions and tag phases are checked once, at the boundary: from a
    # cold start, a pass of 60 rounds makes exactly the checks that a pass of one
    # round makes, and calls no public op that would make them
    grid = [math.sqrt(x) for x in _STREAM_ALPHA_SQ]
    configs = {k: _settings(protocol, n, max_rounds=k) for k in (1, 60)}
    counts = _count_every_binding(monkeypatch, _STRUCTURAL_CHECKS)
    made = {}
    for k, config in configs.items():
        counts.update(dict.fromkeys(counts, 0))
        engine(config, grid)
        made[k] = dict(counts)
    assert made[1] == made[60]
    # the spies see: the engine checks each alpha once, through _check_alpha, and
    # each schedule's config first checks its alpha, theta and loss_eta
    per_point = 1 if engine is protocols._grid_totals else 1 + 3
    assert made[1]["_finite_real"] == per_point * len(grid)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 3])
def test_schedule_fidelity_equals_the_complex_target_fidelity_bit_for_bit(protocol, n):
    # run_schedule measures against maximally_entangled_noon's complex amplitudes;
    # each fidelity must be the one a run_round chain's success state gives, to
    # the bit
    k_max = 60
    config = _settings(protocol, n, max_rounds=k_max)
    target = maximally_entangled_noon(n)
    assert all(type(a) is complex for a in target.terms.values())
    alphas = [math.sqrt(0.9), math.sqrt(0.5 + 3e-15)]  # lopsided, near-balanced
    present = 0
    for alpha, schedule in zip(alphas, _schedules(config, alphas)):
        state = prepare_less_entangled_noon(alpha, n)
        for row in schedule.per_round:
            outcome = run_round(state, config, row.round_index)
            state = outcome.failure_state
            if outcome.success_state is None:
                assert math.isnan(row.success_fidelity)
                continue
            present += 1
            expected = fidelity_up_to_global_phase(outcome.success_state, target)
            assert struct.pack("<d", row.success_fidelity) == struct.pack("<d", expected)
    assert 0 < present < 2 * k_max


def _traced_peak(call):
    """Peak memory traced while ``call()`` runs, above what was traced before.

    The collector stays off: a full collection empties the interpreter's
    free lists, whose refilling would be traced as growth.
    """
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
        gc.enable()


def test_grid_totals_keep_no_state_per_round():
    grid = [math.sqrt(x) for x in np.linspace(0.05, 0.95, 8)]
    shallow, deep = (_settings("ecp2", 1, max_rounds=k) for k in (10, 1000))
    # a deep run first fills the free lists, so that reusing them traces nothing
    protocols._grid_totals(deep, grid)
    peaks = [_traced_peak(lambda: protocols._grid_totals(c, grid)) for c in (shallow, deep)]
    assert peaks[1] <= 1.5 * peaks[0], peaks


# Probe phases at the readout's edges: small, negative, pi (where |theta| sits on
# the fold of the modulo) and the smallest one the config accepts; inputs far from
# balance and as close to it as 60 rounds reach.
_READOUT_THETAS = (0.1, -2.0, math.pi, PHASE_CLASS_TOLERANCE)
_READOUT_ALPHA_SQ = (0.1, 0.8, 0.5 + 5.2e-15)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 3, 100])
def test_the_readout_gives_the_zero_class_first_and_at_most_the_theta_class(
    protocol, n, monkeypatch
):
    # The probe stage reads its two readings by position. The premise, checked
    # here once instead of in every round: each readout's first class is the 0
    # reading, and at most one more follows, the |theta| reading. 70-round
    # chains run past each input's fixed point, where the 0 class stands alone.
    partition = protocols._partition
    readouts = []

    def spy(state, phases):
        classes = partition(state, phases)
        readouts.append([key for key, *_ in classes])
        return classes

    monkeypatch.setattr(protocols, "_partition", spy)
    grid = [math.sqrt(x) for x in _READOUT_ALPHA_SQ]
    for theta in _READOUT_THETAS:
        config = _settings(protocol, n, max_rounds=70, theta=theta)
        readouts.clear()
        for alpha in grid:
            state = prepare_less_entangled_noon(alpha, n)
            for k in range(1, 71):
                state = run_round(state, config, k).failure_state
        protocols._grid_totals(config, grid)
        assert len(readouts) == 70 * len(grid) + 70
        success_class = abs(math.remainder(theta, math.tau))
        for zero, *success in readouts:
            assert zero < PHASE_CLASS_TOLERANCE, (theta, zero)
            assert len(success) <= 1, (theta, success)
            assert all(abs(key - success_class) < PHASE_CLASS_TOLERANCE for key in success)
        assert {len(keys) for keys in readouts} == {1, 2}, theta


# The optimal single-copy bound, round by round: with p = 2xy, f = x^2 + y^2 and
# min(x', y') = min(x, y)^2 / f, p + f * 2 min(x', y') = 2 min(x, y), the
# optimal single-copy yield of the round's input (Vidal, PRL 83, 1046 (1999);
# Lo and Popescu, PRA 63, 022301 (2001)). The engine keeps it to 2.3 ulps
# relative on these chains; the bound is 4 ulps, or 4 ulps of the smallest
# normal double where 2 min(x, y) is subnormal or 0 (measured: exactly 0).
_BOUND_ULPS = 4 * sys.float_info.epsilon
_BOUND_ALPHA_SQ = (1e-4, 0.1, 0.8, 0.9999, 0.5 + 1e-9, 0.5 + 5.2e-15, 0.5)


def _schmidt(ca, cb):
    """The squared coefficients (x, y) of ca|N,0> + cb|0,N>."""
    return ca * ca, cb * cb


def _assert_round_keeps_the_bound(x, y, p, f, x_next, y_next, where):
    ceiling = 2.0 * min(x, y)
    residual = p + f * 2.0 * min(x_next, y_next) - ceiling
    assert abs(residual) <= _BOUND_ULPS * max(ceiling, sys.float_info.min), (where, residual)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 3, 100])
@pytest.mark.parametrize("theta", [0.3, -2.0, math.pi])
def test_each_round_keeps_the_optimal_single_copy_yield(protocol, n, theta):
    config = _settings(protocol, n, theta=theta)
    fixed = 0
    for alpha_sq in _BOUND_ALPHA_SQ:
        state = prepare_less_entangled_noon(math.sqrt(alpha_sq), n)
        for k in range(1, 71):
            outcome = run_round(state, config, k)
            terms, recycled = state.terms, outcome.failure_state.terms
            _assert_round_keeps_the_bound(
                *_schmidt(terms.get((n, 0), 0.0).real, terms.get((0, n), 0.0).real),
                outcome.success_prob,
                outcome.failure_prob,
                *_schmidt(recycled.get((n, 0), 0.0), recycled.get((0, n), 0.0)),
                (alpha_sq, k),
            )
            if outcome.failure_state == state:  # the fixed point: every later round repeats it
                fixed += 1
                break
            state = outcome.failure_state
    assert fixed == len(_BOUND_ALPHA_SQ)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 3, 100])
@pytest.mark.parametrize("theta", [0.3, -2.0, math.pi])
def test_a_batched_round_keeps_the_optimal_single_copy_yield(protocol, n, theta):
    # a near-balanced and a lopsided input as one batch through the probe stage,
    # until both reach the fixed point (round 57 for the near-balanced one)
    config = _settings(protocol, n, theta=theta)
    alphas = [math.sqrt(0.5 + 5.2e-15), math.sqrt(0.9)]
    state = PureState._derived(
        protocols.SIGNAL_MODES,
        {(n, 0): fock._batch(alphas), (0, n): fock._batch([protocols._beta(a) for a in alphas])},
    )
    for k in range(1, 71):
        _, p, _, recycled, f = protocols._probe_round(state, config)
        columns = [
            _per_element(v, 2)
            for v in (
                state.terms.get((n, 0), 0.0), state.terms.get((0, n), 0.0), p, f,
                recycled.terms.get((n, 0), 0.0), recycled.terms.get((0, n), 0.0),
            )
        ]
        for ca, cb, p_i, f_i, ca_next, cb_next in zip(*columns):
            _assert_round_keeps_the_bound(
                *_schmidt(ca, cb), p_i, f_i, *_schmidt(ca_next, cb_next), k
            )
        if recycled == state:
            break
        state = recycled
    else:
        pytest.fail("the batch reached no fixed point in 70 rounds")


def _ceiling(alpha):
    """2 min(x, y) of the engine's input pair for ``alpha``, exactly, with
    (x, y) normalized: the most any LOCC protocol distills from it."""
    terms = prepare_less_entangled_noon(alpha, 1).terms
    x, y = (Fraction(terms[ket].real) ** 2 for ket in ((1, 0), (0, 1)))
    return 2 * min(x, y) / (x + y)


@pytest.mark.parametrize("protocol", ["ecp1", "ecp2"])
@pytest.mark.parametrize("n", [1, 100])
def test_grid_totals_stay_under_the_optimal_single_copy_yield(protocol, n):
    # p_total(K) = 2 min(x, y) - S_K 2 min(x_K, y_K) never passes the ceiling; at
    # K = 1000 every point has reached it. The ceiling is the engine's own input
    # pair's: against alpha's exact one the total runs up to 1.2e-13 relative
    # over at alpha^2 = 0.9999, as sqrt(1 - alpha^2) cancels.
    grid = [math.sqrt(x) for x in _BOUND_ALPHA_SQ]
    ceilings = [_ceiling(alpha) for alpha in grid]
    for k_max in (1, 2, 3, 10, 30, 1000):
        totals = protocols._grid_totals(_settings(protocol, n, max_rounds=k_max), grid)
        for alpha_sq, total, ceiling in zip(_BOUND_ALPHA_SQ, totals, ceilings):
            assert Fraction(total) <= ceiling * (1 + Fraction(_BOUND_ULPS)), (alpha_sq, k_max)
            if k_max == 1000:
                assert abs(Fraction(total) - ceiling) <= ceiling * Fraction(_BOUND_ULPS)
