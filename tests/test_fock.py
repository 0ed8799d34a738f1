"""Unit tests for the sparse Fock-state algebra."""

import gc
import itertools
import math
import sys
import tracemalloc

import mpmath
import pytest

from noonecp import (
    NORM_TOLERANCE,
    BeamSplitterSpec,
    ProtocolConfig,
    PureState,
    basis_state,
    beam_splitter,
    create,
    cross_kerr_tag,
    detect_photon,
    fidelity_up_to_global_phase,
    figure3_sweep,
    homodyne_partition,
    inner,
    negate_occupied,
    norm_sq,
    normalized,
    prepare_aux_ecp2,
    superpose,
    tensor,
    vacuum,
)
from noonecp import fock
from noonecp.fock import _abs_sq, _Batch, _norm_sq, _normalized, _off


def test_vacuum_single_mode():
    v = vacuum(("a1",))
    assert v.amplitude((0,)) == 1.0 + 0j
    assert v.num_terms() == 1
    assert norm_sq(v) == pytest.approx(1.0, abs=1e-15)


def test_vacuum_four_modes():
    v = vacuum(("a1", "b1", "a2", "b2"))
    assert v.amplitude((0, 0, 0, 0)) == 1.0 + 0j
    assert v.num_terms() == 1


def test_vacuum_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        vacuum(("a1", "a1"))


def test_vacuum_rejects_empty_register():
    with pytest.raises(ValueError):
        vacuum(())


def test_create_two_quanta_gives_sqrt_two():
    st = create(vacuum(("a1",)), "a1", 2)
    assert st.amplitude((2,)) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_create_on_occupied_mode():
    one = basis_state(("m",), (1,))
    two = create(one, "m", 1)
    # raising |1> gives sqrt(2)|2>
    assert two.amplitude((2,)) == pytest.approx(math.sqrt(2.0), abs=1e-15)


def test_create_unknown_mode():
    with pytest.raises(ValueError):
        create(vacuum(("m",)), "q", 1)


def test_create_rejects_nonpositive_count():
    with pytest.raises(ValueError):
        create(vacuum(("m",)), "m", 0)


def test_create_rejects_a_bool_count():
    # True is an int subclass, but never a number of quanta
    with pytest.raises(ValueError, match="quanta count"):
        create(vacuum(("m",)), "m", True)


def test_create_norm_is_factorial():
    # n quanta on vacuum must have squared norm n!
    for n in range(1, 7):
        st = create(vacuum(("m",)), "m", n)
        assert norm_sq(st) == pytest.approx(math.factorial(n), rel=1e-12)


def test_create_factor_is_the_rounded_factorial_ratio():
    # the one rounding of (m+n)!/m!, as the float division of the factorials gives it
    for m in range(0, 40):
        for n in range(1, 100):
            got = create(basis_state(("m",), (m,)), "m", n).amplitude((m + n,))
            assert got == math.sqrt(math.factorial(m + n) / math.factorial(m))


@pytest.mark.parametrize("n", [171, 300])
def test_create_beyond_factorial_float_range_matches_mpmath(n):
    # n! overflows a double from n = 171, sqrt(n!) only from n = 301
    got = create(vacuum(("m",)), "m", n).amplitude((n,))
    assert got.imag == 0.0
    with mpmath.workdps(60):
        ref = mpmath.sqrt(mpmath.factorial(n))
        assert abs(mpmath.mpf(got.real) - ref) <= mpmath.mpf(math.ulp(got.real))


def test_create_rejects_factor_beyond_float_range():
    with pytest.raises(ValueError, match="float range"):
        create(vacuum(("m",)), "m", 301)
    with pytest.raises(ValueError, match="float range"):
        create(basis_state(("m",), (1000,)), "m", 210)


@pytest.mark.parametrize("m, n", [(0, 20_000), (10**9, 5_000)])
def test_create_refuses_a_large_n_without_forming_its_factorial(m, n):
    # (m+n)!/m! in full holds 19-32 KB here, and grows faster than n; a refusal
    # needs at most 302 factors, as 302! > 2**2050 has a root beyond the float range
    gc.disable()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="float range"):
            create(basis_state(("m",), (m,)), "m", n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < 16 * 1024


def test_superpose_noon_is_normalized():
    st = superpose(
        [
            (0.6, basis_state(("a", "b"), (3, 0))),
            (0.8, basis_state(("a", "b"), (0, 3))),
        ]
    )
    assert norm_sq(st) == pytest.approx(1.0, abs=1e-15)
    assert st.amplitude((3, 0)) == pytest.approx(0.6, abs=1e-15)


def test_superpose_prunes_zero_coefficient():
    st = superpose(
        [
            (1.0, basis_state(("a", "b"), (1, 0))),
            (0.0, basis_state(("a", "b"), (0, 1))),
        ]
    )
    assert st.num_terms() == 1
    assert st.amplitude((0, 1)) == 0j


def test_superpose_register_mismatch():
    with pytest.raises(ValueError):
        superpose([(1.0, vacuum(("a",))), (1.0, vacuum(("b",)))])


def test_superpose_of_nothing_is_refused():
    with pytest.raises(ValueError, match="at least one"):
        superpose([])


@pytest.mark.parametrize("coeff", ["2", "0.6", True, False, math.inf, math.nan])
def test_superpose_rejects_coefficients_that_are_not_finite_numbers(coeff):
    with pytest.raises(ValueError, match="finite numbers"):
        superpose([(coeff, basis_state(("a",), (1,)))])


def test_superpose_merges_amplitudes():
    plus = basis_state(("a",), (1,))
    st = superpose([(0.5, plus), (0.25, plus)])
    assert st.amplitude((1,)) == pytest.approx(0.75, abs=1e-15)


def test_norm_sq_scales_quadratically():
    base = superpose(
        [
            (0.6, basis_state(("a", "b"), (2, 0))),
            (0.8, basis_state(("a", "b"), (0, 2))),
        ]
    )
    for c in (0.3, 1.7, 2.0 + 1.0j):
        scaled = superpose([(c, base)])
        assert norm_sq(scaled) == pytest.approx(abs(c) ** 2 * norm_sq(base), rel=1e-12)


def test_norm_sq_failure_branch_weights():
    # coefficients alpha^2, beta^2 for alpha^2 = 0.8 give squared norm 0.68
    st = superpose(
        [
            (0.8, basis_state(("a", "b"), (2, 0))),
            (0.2, basis_state(("a", "b"), (0, 2))),
        ]
    )
    assert norm_sq(st) == pytest.approx(0.8**2 + 0.2**2, abs=1e-15)


@pytest.mark.parametrize("amp", [1e308, -1e200, 1e308j, complex(1e308, 1e308)])
def test_norm_sq_of_a_finite_state_beyond_the_float_range_is_inf(amp):
    # each square leaves the float range; the normalization checks built on
    # norm_sq must refuse such a state as unnormalized, not overflow
    st = PureState(("a",), {(0,): amp})
    assert norm_sq(st) == math.inf
    with pytest.raises(ValueError, match="not normalized"):
        fidelity_up_to_global_phase(st, st)
    with pytest.raises(ValueError, match="normalized state, norm\\^2=inf"):
        homodyne_partition(cross_kerr_tag(st, "a", 0.1))


def test_norm_sq_adds_left_to_right_in_a_state_and_in_a_batch_element(monkeypatch):
    # 1 + 4 * 2^-54 is 1.0 added left to right, but 1.0000000000000002 added
    # with compensation, as Python 3.12's sum adds floats. math.fsum stands in
    # for that sum, so the test means the same on every Python.
    compensated = lambda values, start=0: math.fsum([start, *values])  # noqa: E731
    monkeypatch.setattr(fock, "sum", compensated, raising=False)
    amps = [1.0] + [2.0**-27] * 4
    kets = [(n,) for n in range(len(amps))]
    assert norm_sq(PureState(("a",), dict(zip(kets, amps)))) == 1.0
    assert _norm_sq([_Batch([a, 0.5]) for a in amps])[0] == 1.0


def test_state_keeps_every_nonzero_amplitude():
    tiny = PureState(("a", "b"), {(1, 0): 1.0, (0, 1): 1e-300, (1, 1): 5e-324})
    assert tiny.num_terms() == 3
    assert tiny.amplitude((0, 1)) == 1e-300


def test_fidelity_identical_states():
    st = superpose(
        [
            (1 / math.sqrt(2), basis_state(("a", "b"), (4, 0))),
            (1 / math.sqrt(2), basis_state(("a", "b"), (0, 4))),
        ]
    )
    assert fidelity_up_to_global_phase(st, st) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_orthogonal_states():
    a = basis_state(("a", "b"), (3, 0))
    b = basis_state(("a", "b"), (0, 3))
    assert fidelity_up_to_global_phase(a, b) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_ignores_global_phase():
    st = superpose(
        [
            (0.6, basis_state(("a", "b"), (2, 0))),
            (0.8, basis_state(("a", "b"), (0, 2))),
        ]
    )
    for phi in (0.3, math.pi / 2, 2.5):
        rotated = superpose([(complex(math.cos(phi), math.sin(phi)), st)])
        assert fidelity_up_to_global_phase(st, rotated) == pytest.approx(1.0, abs=1e-10)


def test_fidelity_is_symmetric():
    a = superpose(
        [
            (0.6, basis_state(("a", "b"), (1, 0))),
            (0.8, basis_state(("a", "b"), (0, 1))),
        ]
    )
    b = superpose(
        [
            (0.8, basis_state(("a", "b"), (1, 0))),
            (0.6, basis_state(("a", "b"), (0, 1))),
        ]
    )
    assert fidelity_up_to_global_phase(a, b) == pytest.approx(
        fidelity_up_to_global_phase(b, a), abs=1e-15
    )


def test_fidelity_below_one_for_distinct_states():
    a = superpose(
        [
            (0.6, basis_state(("a", "b"), (1, 0))),
            (0.8, basis_state(("a", "b"), (0, 1))),
        ]
    )
    b = superpose(
        [
            (0.8, basis_state(("a", "b"), (1, 0))),
            (0.6, basis_state(("a", "b"), (0, 1))),
        ]
    )
    assert fidelity_up_to_global_phase(a, b) < 1.0 - 1e-3


def test_fidelity_requires_normalized_inputs():
    ok = basis_state(("a",), (1,))
    off = superpose([(0.5, ok)])
    with pytest.raises(ValueError):
        fidelity_up_to_global_phase(ok, off)
    with pytest.raises(ValueError):
        fidelity_up_to_global_phase(off, ok)


def test_inner_register_mismatch():
    with pytest.raises(ValueError):
        inner(vacuum(("a",)), vacuum(("b",)))


def test_inner_conjugates_first_argument():
    a = superpose([(1j, basis_state(("m",), (1,)))])
    b = basis_state(("m",), (1,))
    assert inner(a, b) == pytest.approx(-1j, abs=1e-15)
    assert inner(b, a) == pytest.approx(1j, abs=1e-15)


def test_normalized_scales_to_unit_norm():
    st = superpose(
        [
            (3.0, basis_state(("a", "b"), (1, 0))),
            (4.0, basis_state(("a", "b"), (0, 1))),
        ]
    )
    unit = normalized(st)
    assert norm_sq(unit) == pytest.approx(1.0, abs=1e-12)
    assert unit.amplitude((1, 0)) == pytest.approx(0.6, abs=1e-12)


def test_normalized_survives_underflow():
    # squaring these amplitudes underflows to zero, the norm itself does not
    st = PureState(("a", "b"), {(1, 0): 3e-200, (0, 1): -4e-200j})
    unit = normalized(st)
    assert unit.amplitude((1, 0)) == pytest.approx(0.6, rel=1e-15)
    assert unit.amplitude((0, 1)) == pytest.approx(-0.8j, rel=1e-15)
    lopsided = normalized(PureState(("a", "b"), {(1, 0): 1.0, (0, 1): 1e-300}))
    assert lopsided.amplitude((0, 1)) == 1e-300
    # a subnormal norm, whose reciprocal overflows
    sub = PureState(("a", "b"), {(1, 0): math.ldexp(3, -1070), (0, 1): math.ldexp(4, -1070)})
    assert normalized(sub).amplitude((1, 0)) == pytest.approx(0.6, rel=1e-15)


def test_normalized_rejects_zero_state():
    empty = PureState(("a",), {})
    with pytest.raises(ValueError):
        normalized(empty)


def test_tensor_concatenates_registers():
    left = superpose(
        [
            (0.6, basis_state(("a1", "b1"), (2, 0))),
            (0.8, basis_state(("a1", "b1"), (0, 2))),
        ]
    )
    right = basis_state(("a2", "b2"), (1, 0))
    joint = tensor(left, right)
    assert joint.register == ("a1", "b1", "a2", "b2")
    assert joint.amplitude((2, 0, 1, 0)) == pytest.approx(0.6, abs=1e-15)
    assert norm_sq(joint) == pytest.approx(1.0, abs=1e-12)


def test_tensor_rejects_label_collision():
    with pytest.raises(ValueError):
        tensor(vacuum(("a",)), vacuum(("a",)))


def test_state_rejects_negative_occupation():
    with pytest.raises(ValueError):
        PureState(("a",), {(-1,): 1.0})


def test_a_state_never_equals_a_non_state():
    st = basis_state(("a",), (1,))
    assert st.__eq__({(1,): 1.0}) is NotImplemented
    assert not st == 1.0
    assert st != "PureState[a]((1+0j)|1>)"
    assert st == basis_state(("a",), (1,))


@pytest.mark.parametrize("ket", [(True, 0), (0, False), (True, True)])
def test_state_rejects_bool_occupations(ket):
    with pytest.raises(ValueError, match="occupations"):
        PureState(("a", "b"), {ket: 1.0})


def test_state_rejects_wrong_width_ket():
    with pytest.raises(ValueError):
        PureState(("a", "b"), {(1,): 1.0})


@pytest.mark.parametrize(
    "amp",
    [
        math.inf, -math.inf, math.nan, complex(1.0, math.inf), complex(math.nan, 0.0),
        # bool and str are not numbers, even where complex() would take them
        True, False, "0.6", "1j", b"1",
    ],
)
def test_state_rejects_non_finite_amplitudes(amp):
    with pytest.raises(ValueError, match="finite"):
        PureState(("a", "b"), {(1, 0): amp, (0, 1): 1.0})


# The seam folds a batch in per-element passes and takes a shortcut where
# its extremes allow one. Each batch below puts one element that steers a
# shortcut (a NaN first or mid-batch, a signed zero, a zero or subnormal
# norm) among ordinary ones, and each element must match its own scalar run
# bit for bit, or the batch is refused as a whole.

_TINY = math.ldexp(1.0, -1070)  # 1 / (5 * _TINY) overflows
_HALFWAY = 1.5 + 2.0**-26  # its square is a tie, which pow and x*x round apart
_SEAM_RUNS = {
    "leading NaN": [(math.nan, 1.0), (0.6, 0.8), (3.0, -4.0)],
    "leading NaN, then a subnormal norm": [(math.nan, 1.0), (0.6, 0.8), (3 * _TINY, 4 * _TINY)],
    "NaN mid-batch": [(0.6, 0.8), (math.nan, math.nan), (0.0, -_HALFWAY)],
    "signed zeros": [(0.0, 1.0), (-0.0, -2.0), (0.6, -0.0), (_HALFWAY, -0.0)],
    "smallest normal norm": [(sys.float_info.min, 0.0), (0.6, 0.8)],
    "subnormal norm": [(0.6, 0.8), (3 * _TINY, 4 * _TINY), (-_TINY, 0.0)],
}


def _batched_kets(runs):
    """One batch per ket, each holding that ket's amplitude in every run."""
    return [_Batch(column) for column in zip(*runs)]


@pytest.mark.parametrize("runs", _SEAM_RUNS.values(), ids=_SEAM_RUNS)
def test_batch_normalization_matches_each_elements_scalar_run(runs):
    kets = [(1, 0), (0, 1)]
    terms = dict(zip(kets, _batched_kets(runs)))
    # a batch whose smallest norm, as min reads it, is not normal is refused
    if not min(math.hypot(*run) for run in runs) >= sys.float_info.min:
        with pytest.raises(ValueError, match="smallest norm .* is not normal"):
            _normalized(terms)
        return
    unit, norm = _normalized(terms)
    for element, run in enumerate(runs):
        scalar_unit, scalar_norm = _normalized(dict(zip(kets, run)))
        assert norm[element].hex() == scalar_norm.hex()
        for ket in kets:
            assert unit[ket][element].hex() == scalar_unit[ket].hex()


@pytest.mark.parametrize("runs", _SEAM_RUNS.values(), ids=_SEAM_RUNS)
def test_batch_squares_match_each_elements_scalar_run(runs):
    kets = _batched_kets(runs)
    for width in range(1, len(kets) + 1):
        total = _norm_sq(kets[:width])
        for element, run in enumerate(runs):
            assert total[element].hex() == _norm_sq([complex(a) for a in run[:width]]).hex()
    fidelity = _abs_sq(kets[0])
    for element, run in enumerate(runs):
        assert fidelity[element].hex() == _abs_sq(complex(run[0])).hex()


@pytest.mark.parametrize("operand", [2, 0.1, -0.0, math.nan])
def test_batch_operators_with_a_plain_operand_match_each_elements_scalar_run(operand):
    batch = _Batch(a for runs in _SEAM_RUNS.values() for run in runs for a in run)
    for got, want in [
        (batch + operand, lambda x: x + operand),
        (operand + batch, lambda x: operand + x),
        (batch * operand, lambda x: x * operand),
        (operand * batch, lambda x: operand * x),
    ]:
        assert [x.hex() for x in got] == [want(x).hex() for x in batch]


def _off_edges(expected, tolerance):
    """The values just inside and just outside the tolerance on each side."""
    edges = []
    for direction in (math.inf, -math.inf):
        v = expected + math.copysign(tolerance, direction)
        while abs(v - expected) > tolerance:
            v = math.nextafter(v, expected)
        while abs(math.nextafter(v, direction) - expected) <= tolerance:
            v = math.nextafter(v, direction)
        edges += [v, math.nextafter(v, direction)]
    return edges


@pytest.mark.parametrize("expected, tolerance", [(1.0, NORM_TOLERANCE), (0.0, 0.0)])
def test_batch_tolerance_check_matches_its_elements_scalar_checks(expected, tolerance):
    edges = _off_edges(expected, tolerance) if tolerance else []
    values = [expected, *edges, math.nan, 0.0, -0.0, math.inf, -math.inf]
    seen = set()
    for batch in itertools.product(values, repeat=3):
        want = any(_off(v, expected, tolerance) for v in batch)
        assert _off(_Batch(batch), expected, tolerance) is want, batch
        seen.add(want)
    assert seen == {True, False}
    if edges:
        assert [_off(v, expected, tolerance) for v in edges] == [False, True, False, True]


def test_batch_normalization_refuses_a_zero_or_subnormal_element_norm():
    # one batch of three runs: a normal norm, a subnormal norm whose
    # reciprocal overflows, and a zero norm
    tiny = math.ldexp(1.0, -1070)
    runs = [(3.0, -4.0), (3 * tiny, 4 * tiny), (0.0, 0.0)]
    kets = [(1, 0), (0, 1)]
    with pytest.raises(ValueError, match="smallest norm 0.0 is not normal"):
        _normalized({ket: _Batch(run[i] for run in runs) for i, ket in enumerate(kets)})
    # each run alone but the last normalizes; the subnormal one scaled up first
    for run in runs[:2]:
        unit, norm = _normalized(dict(zip(kets, run)))
        assert abs(_norm_sq(unit.values()) - 1.0) <= NORM_TOLERANCE
    assert math.isinf(1.0 / norm)
    # a zero norm first, where the refusal reads the smallest norm, and a
    # signed-zero run whose norm is zero too
    with pytest.raises(ValueError, match="smallest norm 0.0 is not normal"):
        _normalized({(1, 0): _Batch([0.0, 3.0, -0.0]), (0, 1): _Batch([0.0, 4.0, 0.0])})
    with pytest.raises(ValueError, match="zero norm"):
        _normalized({(1, 0): _Batch([0.0, 0.0])})


def test_batched_state_repr_formats_each_element():
    state = PureState._derived(
        ("a1", "b1"), {(1, 0): _Batch([0.6, 0.8]), (0, 1): _Batch([0.8, 0.6])}
    )
    assert repr(state) == "PureState[a1,b1](([0.8, 0.6])|0,1> + ([0.6, 0.8])|1,0>)"


# The input checks in fock.py guard every layer's public boundary.

_BEYOND_FLOAT = 10**400


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PureState(("a",), {(0,): _BEYOND_FLOAT}), "must be a finite number"),
        (lambda: superpose([(_BEYOND_FLOAT, vacuum(("a",)))]), "must be finite numbers"),
        (lambda: cross_kerr_tag(vacuum(("a",)), "a", _BEYOND_FLOAT), "must be a finite real"),
        (lambda: BeamSplitterSpec("a", "b", "c", "d", _BEYOND_FLOAT), "transmissivity"),
        (lambda: prepare_aux_ecp2(_BEYOND_FLOAT), "transmissivity"),
        (lambda: ProtocolConfig("ecp2", 0.6, theta=_BEYOND_FLOAT), "theta"),
        (lambda: ProtocolConfig("ecp2", 0.6, loss_eta=_BEYOND_FLOAT), "loss_eta"),
        (lambda: ProtocolConfig("ecp2", 0.6, n_photons=_BEYOND_FLOAT), "per-photon tags"),
        (lambda: figure3_sweep(grid=[_BEYOND_FLOAT]), "alpha"),
    ],
    ids=[
        "PureState", "superpose", "cross_kerr_tag", "BeamSplitterSpec",
        "prepare_aux_ecp2", "theta", "loss_eta", "n_photons", "figure3_sweep",
    ],
)
def test_an_int_beyond_the_float_range_is_refused_as_a_value(call, message):
    # float(10**400) raises OverflowError; every boundary reports ValueError
    with pytest.raises(ValueError, match=message):
        call()


_TWO_MODES = basis_state(("a", "b"), (1, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: create(_TWO_MODES, "z"),
        lambda: cross_kerr_tag(_TWO_MODES, "z", 0.1),
        lambda: negate_occupied(_TWO_MODES, "z"),
        lambda: beam_splitter(_TWO_MODES, BeamSplitterSpec("z", "b", "c", "d")),
        lambda: beam_splitter(_TWO_MODES, BeamSplitterSpec("a", "z", "c", "d")),
        lambda: detect_photon(_TWO_MODES, ("a", "z")),
    ],
    ids=[
        "create", "cross_kerr_tag", "negate_occupied", "beam_splitter_in_1",
        "beam_splitter_in_2", "detect_photon",
    ],
)
def test_every_operation_names_an_absent_mode_the_same_way(call):
    with pytest.raises(ValueError, match=r"^mode 'z' not in register \('a', 'b'\)"):
        call()
