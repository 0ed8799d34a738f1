"""Unit tests for the sparse Fock-state algebra."""

import math

import pytest

from noonecp import (
    PureState,
    basis_state,
    create,
    fidelity_up_to_global_phase,
    inner,
    norm_sq,
    normalized,
    superpose,
    tensor,
    vacuum,
)


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


def test_create_norm_is_factorial():
    # n quanta on vacuum must have squared norm n!
    for n in range(1, 7):
        st = create(vacuum(("m",)), "m", n)
        assert norm_sq(st) == pytest.approx(math.factorial(n), rel=1e-12)


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


def test_state_rejects_wrong_width_ket():
    with pytest.raises(ValueError):
        PureState(("a", "b"), {(1,): 1.0})
