"""One property sweep of the package's public boundary.

Each public callable that takes numbers or states is called with every value
of an awkward pool in each of its numeric slots, and on drawn small states.
A call either refuses its input with ValueError or returns a valid result; it
never raises anything else. A bool in a numeric slot is always refused
(``fock._REAL_RULE``). A valid result has finite amplitudes; ``normalized``
gives a nonzero state norm 1 within 4 ulps; a splitter or a tag keeps each
ket's photon number and the norm; readout and detection probabilities sum to
1 within NORM_TOLERANCE and each lies in [0, 1] (a readout class's up to
NORM_TOLERANCE above 1); phase classes are finite, folded into [0, pi] and
distinct modulo 2*pi. Every draw comes from stdlib ``random`` with a fixed
seed.
"""

import cmath
import math
import random
import sys

import numpy as np
import pytest

import noonecp
from noonecp import (
    NORM_TOLERANCE,
    PHASE_CLASS_TOLERANCE,
    BeamSplitterSpec,
    HomodyneOutcome,
    ProtocolConfig,
    PureState,
    RoundOutcome,
    Schedule,
    SweepPoint,
    TaggedState,
    apply_loss_model,
    basis_state,
    beam_splitter,
    create,
    cross_kerr_tag,
    detect_photon,
    fidelity_up_to_global_phase,
    figure3_sweep,
    homodyne_partition,
    inner,
    maximally_entangled_noon,
    negate_occupied,
    norm_sq,
    normalized,
    p_round_closed_form,
    p_total_closed_form,
    prepare_aux_ecp1,
    prepare_aux_ecp2,
    prepare_less_entangled_noon,
    run_round,
    run_schedule,
    superpose,
    tensor,
    vbs_transmission,
)

# Bool, signed zeros, subnormals, near the float maximum, not finite, an int
# beyond the float range, complex, text, None, and a numpy scalar.
AWKWARD = [True, False, 0.0, -0.0, 5e-324, 1e-320, 1e308, math.inf, -math.inf, math.nan]
AWKWARD += [10**400, 1j, "0.5", None, np.float64(0.6)]

_PAIR = PureState(("a", "b"), {(1, 0): 0.6, (0, 1): 0.8})
_NOON = prepare_less_entangled_noon(math.sqrt(0.8), 1)
_SCHEDULE = run_schedule(ProtocolConfig("ecp1", alpha=math.sqrt(0.8), max_rounds=3))

# One call per numeric slot, every other argument valid. A config takes any
# positive int as max_rounds, so a schedule or a cross-checked sweep runs
# only from a config of three rounds.
NUMERIC_SLOTS = {
    "PureState amplitude": lambda v: PureState(("a", "b"), {(1, 0): v, (0, 1): 0.5}),
    "PureState occupation": lambda v: PureState(("a", "b"), {(v, 0): 1.0}),
    "basis_state occupation": lambda v: basis_state(("a", "b"), (1, v)),
    "create n": lambda v: create(_PAIR, "a", v),
    "superpose coefficient": lambda v: superpose([(v, _PAIR), (0.5, _PAIR)]),
    "BeamSplitterSpec transmissivity": lambda v: BeamSplitterSpec("a", "b", "a", "b", v),
    "cross_kerr_tag per_photon_phase": lambda v: cross_kerr_tag(_PAIR, "a", v),
    "cross_kerr_tag tagged phase": lambda v: cross_kerr_tag(
        TaggedState(_PAIR, {(1, 0): v, (0, 1): 0.0}), "a", 0.3
    ),
    "homodyne_partition phase": lambda v: homodyne_partition(
        TaggedState(_PAIR, {(1, 0): v, (0, 1): 0.25})
    ),
    "prepare_less_entangled_noon alpha": lambda v: prepare_less_entangled_noon(v, 2),
    "prepare_less_entangled_noon n_photons": lambda v: prepare_less_entangled_noon(0.6, v),
    "maximally_entangled_noon n_photons": maximally_entangled_noon,
    "prepare_aux_ecp1 alpha": prepare_aux_ecp1,
    "prepare_aux_ecp2 transmissivity": prepare_aux_ecp2,
    "vbs_transmission alpha": lambda v: vbs_transmission(v, 3),
    "vbs_transmission round_k": lambda v: vbs_transmission(0.6, v),
    **{
        f"ProtocolConfig {field}": lambda v, field=field: ProtocolConfig("ecp2", **{field: v})
        for field in ("alpha", "n_photons", "max_rounds", "theta", "loss_eta")
    },
    "run_round round_k": lambda v: run_round(_NOON, ProtocolConfig("ecp1"), v),
    **{
        f"run_schedule {field}": lambda v, field=field: run_schedule(
            ProtocolConfig("ecp1", **{"alpha": 0.6, "max_rounds": 3, field: v})
        )
        for field in ("alpha", "n_photons", "theta")
    },
    "apply_loss_model loss_eta": lambda v: apply_loss_model(
        _SCHEDULE, ProtocolConfig("ecp1", loss_eta=v)
    ),
    "p_round_closed_form alpha": lambda v: p_round_closed_form(v, 3),
    "p_round_closed_form round_k": lambda v: p_round_closed_form(0.6, v),
    "p_total_closed_form alpha": lambda v: p_total_closed_form(v, 3),
    "p_total_closed_form k_max": lambda v: p_total_closed_form(0.6, v),
    "figure3_sweep k_max": lambda v: figure3_sweep(v, grid=[]),
    "figure3_sweep grid entry": lambda v: figure3_sweep(3, grid=[v], cross_check=True),
    "figure3_sweep n_photons": lambda v: figure3_sweep(3, [0.6], cross_check=True, n_photons=v),
}


def _check_probabilities(probabilities, most=1.0):
    assert all(0.0 <= p <= most for p in probabilities), probabilities
    assert abs(sum(probabilities) - 1.0) <= NORM_TOLERANCE, probabilities


def _check_classes(classes):
    assert all(0.0 <= c <= math.pi for c in classes), classes
    for i, c in enumerate(classes):
        for d in classes[:i]:
            assert abs(math.remainder(c - d, math.tau)) >= PHASE_CLASS_TOLERANCE, classes


def _check_valid(result):
    """Whatever a public call returns holds finite amplitudes, and its
    probabilities, phase classes and yields are in range."""
    if isinstance(result, PureState):
        assert all(map(cmath.isfinite, result.terms.values())), result
    elif isinstance(result, TaggedState):
        _check_valid(result.state)
        assert result.phases.keys() == result.state.terms.keys()
        assert all(map(math.isfinite, result.phases.values())), result.phases
    elif isinstance(result, RoundOutcome):
        for state in filter(None, (result.success_state, result.failure_state)):
            _check_valid(state)
        _check_probabilities([result.success_prob, result.failure_prob])
    elif isinstance(result, Schedule):
        yields = [row.p_unconditional for row in result.per_round] + [result.p_total]
        assert all(0.0 <= p <= 1.0 for p in yields), result
    elif isinstance(result, list) and result and isinstance(result[0], HomodyneOutcome):
        for outcome in result:
            _check_valid(outcome.branch)
        # each class reads its squared mass as it is, and the input need be
        # normalized only within NORM_TOLERANCE, so a class holding almost all
        # of it may read a few ulps above 1
        _check_probabilities([outcome.probability for outcome in result], 1.0 + NORM_TOLERANCE)
        _check_classes([outcome.phase_class for outcome in result])
    elif isinstance(result, list) and result and isinstance(result[0], SweepPoint):
        yields = [y for point in result for y in (point.p_total, *point.per_round_p)]
        assert all(0.0 <= p <= 1.0 for p in yields), result
    elif isinstance(result, float):
        assert 0.0 <= result <= 1.0, result


def _call(call, *args):
    """``call(*args)``, or None where it refuses with ValueError; any other
    exception (TypeError, OverflowError, ZeroDivisionError, KeyError,
    AttributeError, ...) fails the test."""
    try:
        return call(*args)
    except ValueError:
        return None
    except Exception as error:
        pytest.fail(f"{error!r} is not a refusal, on {args!r}")


@pytest.mark.parametrize("slot", NUMERIC_SLOTS)
def test_each_numeric_slot_refuses_an_awkward_value_or_returns_a_valid_result(slot):
    call = NUMERIC_SLOTS[slot]
    for value in AWKWARD:
        result = _call(call, value)
        if isinstance(value, bool):
            assert result is None, f"{slot} took the bool {value!r}"
        else:
            _check_valid(result)


# Amplitude scales of a drawn state: ordinary, complex, subnormal (so that
# the norm is subnormal), squares below the normal range, and near the float
# maximum (so that the hypot of two overflows).
_SCALES = (
    lambda rng: rng.uniform(-1.0, 1.0),
    lambda rng: complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)),
    lambda rng: 5e-324 * rng.randint(1, 2**40) * rng.choice((1, -1)),
    lambda rng: rng.uniform(0.5, 2.0) * 1e-160,
    lambda rng: rng.uniform(1e307, 1.7e308) * rng.choice((1, -1)),
)


def _draw_state(rng, register=("a", "b")):
    """1-4 kets of up to 3 photons per mode; one amplitude scale for most states."""
    kets = {tuple(rng.randint(0, 3) for _ in register) for _ in range(rng.randint(1, 4))}
    scale = rng.choice(_SCALES)
    return PureState(
        register,
        {ket: (scale if rng.random() < 0.8 else rng.choice(_SCALES))(rng) for ket in kets},
    )


def _draw_phase(rng):
    """A per-photon phase; pi and 2*pi put kets a whole turn apart."""
    return rng.choice((rng.uniform(-10.0, 10.0), math.pi, math.tau, -2.5, 1e300))


def _draw_clicks(rng):
    """A state on (a, d1, d2) whose kets hold one photon on the detectors, mostly."""
    kets = rng.choices(((1, 1, 0), (2, 0, 1), (0, 1, 0), (0, 0, 1), (1, 1, 1)), k=3)
    scale = rng.choice(_SCALES)
    return PureState(("a", "d1", "d2"), {ket: scale(rng) for ket in kets})


def _sectors(state):
    """The hypot of each photon-number sector's amplitudes."""
    groups = {}
    for ket, amp in state.terms.items():
        groups.setdefault(sum(ket), []).append(abs(amp))
    return {n: math.hypot(*amps) for n, amps in groups.items()}


def _keeps_photons_and_norm(before, after):
    """``after`` holds only ``before``'s photon numbers, each sector's norm
    kept to NORM_TOLERANCE of the whole, where the norm is far from the
    subnormal grid and from overflow."""
    old, new = _sectors(before), _sectors(after)
    assert new.keys() <= old.keys(), (before, after)
    total = math.hypot(*old.values())
    if 1e-290 <= total <= 1e300:
        for n, norm in old.items():
            assert abs(new.get(n, 0.0) - norm) <= NORM_TOLERANCE * total, (before, after)


def _normalized(rng):
    state = _draw_state(rng)
    unit = _call(normalized, state)
    assert (unit is None) is (not state.terms)
    if unit is not None:
        _check_valid(unit)
        assert abs(norm_sq(unit) - 1.0) <= 4 * sys.float_info.epsilon, (state, unit)


def _beam_splitter(rng):
    state = _draw_state(rng)
    t = rng.choice((0.5, rng.random(), 5e-324, 1.0, 1.0 - 2**-53))
    spec = BeamSplitterSpec("a", "b", "a", "b", t, rng.choice(("ecp1", "ecp2")))
    out = _call(beam_splitter, state, spec)
    if out is not None:
        _check_valid(out)
        _keeps_photons_and_norm(state, out)


def _cross_kerr_tag(rng):
    state, phase = _draw_state(rng), _draw_phase(rng)
    if rng.random() < 0.5:
        state = _call(cross_kerr_tag, state, "b", _draw_phase(rng)) or state
    tagged = _call(cross_kerr_tag, state, "a", phase)
    if tagged is not None:
        _check_valid(tagged)
        assert tagged.state == getattr(state, "state", state)  # amplitudes untouched


def _homodyne_partition(rng):
    state = _draw_state(rng)
    if rng.random() < 0.9:
        state = normalized(state)
    tagged = _call(cross_kerr_tag, state, "a", _draw_phase(rng))
    if tagged is not None:
        tagged = _call(cross_kerr_tag, tagged, "b", _draw_phase(rng)) or tagged
        _check_valid(_call(homodyne_partition, tagged))


def _detect_photon(rng):
    clicks = _call(detect_photon, _draw_clicks(rng), ("d1", "d2"))
    if clicks is not None:
        for _, branch, _ in clicks:
            _check_valid(branch)
        _check_probabilities([p for *_, p in clicks])


def _two_states(rng):
    a, b = _draw_state(rng), _draw_state(rng)
    assert _call(tensor, a, b) is None  # the registers share labels
    _check_valid(_call(tensor, a, _draw_state(rng, ("c",))))
    _call(inner, a, b)
    _check_valid(_call(superpose, [(1.0, a), (rng.choice(_SCALES)(rng), b)]))
    _check_valid(_call(fidelity_up_to_global_phase, normalized(a), normalized(b)))


def _one_state(rng):
    state = _draw_state(rng)
    assert norm_sq(state) >= 0.0
    negated = negate_occupied(state, "a")
    assert {k: abs(x) for k, x in negated.terms.items()} == {
        k: abs(x) for k, x in state.terms.items()
    }
    _check_valid(_call(create, state, "b", rng.randint(1, 3)))


def _run_round(rng):
    n = rng.randint(1, 3)
    state = PureState(("a1", "b1"), {(n, 0): rng.choice(_SCALES)(rng), (0, n): rng.random()})
    if rng.random() < 0.8:
        state = normalized(state)
    protocol, theta = rng.choice(("ecp1", "ecp2")), _draw_phase(rng)
    _check_valid(_call(lambda: run_round(state, ProtocolConfig(protocol, None, n, 1, theta), 1)))


STATE_OPERATIONS = {
    "normalized": _normalized,
    "beam_splitter": _beam_splitter,
    "cross_kerr_tag": _cross_kerr_tag,
    "homodyne_partition": _homodyne_partition,
    "detect_photon": _detect_photon,
    "tensor, inner, superpose, fidelity_up_to_global_phase": _two_states,
    "norm_sq, negate_occupied, create": _one_state,
    "run_round": _run_round,
}


@pytest.mark.parametrize("operation", STATE_OPERATIONS)
def test_each_state_operation_refuses_a_drawn_state_or_returns_a_valid_result(operation):
    rng = random.Random(f"boundary {operation}")
    for _ in range(150):
        STATE_OPERATIONS[operation](rng)


def test_the_sweep_calls_every_public_callable_that_takes_numbers_or_states():
    swept = {slot.split()[0] for slot in NUMERIC_SLOTS}
    swept |= {name for names in STATE_OPERATIONS for name in names.split(", ")}
    # type aliases, calls that take neither, and result containers, which
    # hold what they are given and are checked where they are read
    exempt = {"ModeId", "BasisKet", "vacuum", "default_alpha_grid", "TaggedState"}
    exempt |= {"HomodyneOutcome", "RoundOutcome", "RoundStats", "Schedule", "SweepPoint"}
    public = {name for name in noonecp.__all__ if callable(getattr(noonecp, name))}
    assert swept == public - exempt
