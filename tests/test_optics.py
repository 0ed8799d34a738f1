"""Unit and property tests for the optical elements.

The beam splitter is cross-checked against a brute-force oracle that
expands the transformed creation operators one application at a time,
independently of the multinomial closed form used by the implementation.
"""

import math

import pytest

from noonecp import (
    BeamSplitterSpec,
    TaggedState,
    basis_state,
    beam_splitter,
    cross_kerr_tag,
    detect_photon,
    fidelity_up_to_global_phase,
    homodyne_partition,
    negate_occupied,
    norm_sq,
    superpose,
    vacuum,
)

T_GRID = (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75, 1.0)
CONVENTIONS = ("ecp1", "ecp2")


def _matrix(t, convention):
    c = math.sqrt(1.0 - t)
    s = math.sqrt(t)
    if convention == "ecp1":
        return ((c, -s), (s, c))
    return ((c, s), (s, -c))


def _raise_mode(table, u1, u2):
    """Apply u1*create(mode1) + u2*create(mode2) to a two-mode amplitude map."""
    out = {}
    for (j, m), amp in table.items():
        if u1 != 0.0:
            key = (j + 1, m)
            out[key] = out.get(key, 0j) + amp * u1 * math.sqrt(j + 1)
        if u2 != 0.0:
            key = (j, m + 1)
            out[key] = out.get(key, 0j) + amp * u2 * math.sqrt(m + 1)
    return out


def _bruteforce_bs(n1, n2, t, convention):
    """Expected output amplitudes for |n1,n2> through the splitter."""
    u = _matrix(t, convention)
    table = {(0, 0): 1.0 + 0j}
    for _ in range(n1):
        table = _raise_mode(table, u[0][0], u[0][1])
    for _ in range(n2):
        table = _raise_mode(table, u[1][0], u[1][1])
    scale = 1.0 / math.sqrt(math.factorial(n1) * math.factorial(n2))
    return {k: v * scale for k, v in table.items()}


def _spec(t, convention, in_modes=("p", "q"), out_modes=("r", "s")):
    return BeamSplitterSpec(
        mode_in_1=in_modes[0],
        mode_in_2=in_modes[1],
        mode_out_1=out_modes[0],
        mode_out_2=out_modes[1],
        transmissivity=t,
        sign_convention=convention,
    )


def test_balanced_splitter_single_photon_first_port():
    # one photon in the first port of the ecp1-layout balanced splitter
    st = beam_splitter(basis_state(("p", "q"), (1, 0)), _spec(0.5, "ecp1"))
    r = 1.0 / math.sqrt(2.0)
    assert st.amplitude((1, 0)) == pytest.approx(r, abs=1e-12)
    assert st.amplitude((0, 1)) == pytest.approx(-r, abs=1e-12)


def test_balanced_splitter_single_photon_second_port():
    st = beam_splitter(basis_state(("p", "q"), (0, 1)), _spec(0.5, "ecp1"))
    r = 1.0 / math.sqrt(2.0)
    assert st.amplitude((1, 0)) == pytest.approx(r, abs=1e-12)
    assert st.amplitude((0, 1)) == pytest.approx(r, abs=1e-12)


def test_variable_splitter_splits_single_photon():
    # ecp2 layout: photon in port 1 comes out sqrt(1-t)|1,0> + sqrt(t)|0,1>
    for t in (0.2, 0.5, 0.8):
        st = beam_splitter(basis_state(("p", "q"), (1, 0)), _spec(t, "ecp2"))
        assert st.amplitude((1, 0)) == pytest.approx(math.sqrt(1 - t), abs=1e-12)
        assert st.amplitude((0, 1)) == pytest.approx(math.sqrt(t), abs=1e-12)


def test_balanced_splitter_two_photons_one_port():
    st = beam_splitter(basis_state(("p", "q"), (2, 0)), _spec(0.5, "ecp1"))
    r = 1.0 / math.sqrt(2.0)
    assert st.amplitude((2, 0)) == pytest.approx(0.5, abs=1e-12)
    assert st.amplitude((1, 1)) == pytest.approx(-r, abs=1e-12)
    assert st.amplitude((0, 2)) == pytest.approx(0.5, abs=1e-12)


def test_hong_ou_mandel_null():
    # |1,1> on a balanced splitter never yields coincident photons
    for convention in CONVENTIONS:
        st = beam_splitter(basis_state(("p", "q"), (1, 1)), _spec(0.5, convention))
        assert abs(st.amplitude((1, 1))) < 1e-10
        assert norm_sq(st) == pytest.approx(1.0, abs=1e-10)


def test_beam_splitter_matches_bruteforce_oracle():
    for convention in CONVENTIONS:
        for t in T_GRID:
            for n1 in range(7):
                for n2 in range(7):
                    if n1 == n2 == 0:
                        continue
                    got = beam_splitter(
                        basis_state(("p", "q"), (n1, n2)), _spec(t, convention)
                    )
                    expected = _bruteforce_bs(n1, n2, t, convention)
                    keys = set(got.terms) | set(expected)
                    for key in keys:
                        assert got.amplitude(key) == pytest.approx(
                            expected.get(key, 0j), abs=1e-10
                        ), (convention, t, n1, n2, key)


def test_beam_splitter_conserves_norm_and_photons():
    for convention in CONVENTIONS:
        for t in T_GRID:
            for n1 in range(7):
                for n2 in range(7):
                    st = beam_splitter(
                        basis_state(("p", "q"), (n1, n2)), _spec(t, convention)
                    )
                    assert norm_sq(st) == pytest.approx(1.0, abs=1e-10)
                    for ket in st.terms:
                        assert sum(ket) == n1 + n2


def test_beam_splitter_other_modes_untouched():
    st = superpose(
        [
            (0.6, basis_state(("x", "p", "q"), (3, 1, 0))),
            (0.8, basis_state(("x", "p", "q"), (5, 0, 1))),
        ]
    )
    out = beam_splitter(st, _spec(0.37, "ecp2"))
    assert out.register == ("x", "r", "s")
    assert norm_sq(out) == pytest.approx(1.0, abs=1e-12)
    for ket in out.terms:
        assert ket[0] in (3, 5)


def test_ecp2_splitter_is_self_inverse():
    st = superpose(
        [
            (0.6, basis_state(("p", "q"), (2, 1))),
            (0.8j, basis_state(("p", "q"), (0, 3))),
        ]
    )
    for t in (0.2, 0.5, 0.9):
        spec_fwd = _spec(t, "ecp2")
        spec_back = _spec(t, "ecp2", in_modes=("r", "s"), out_modes=("p", "q"))
        back = beam_splitter(beam_splitter(st, spec_fwd), spec_back)
        assert fidelity_up_to_global_phase(back, st) == pytest.approx(1.0, abs=1e-10)
        for ket, amp in st.terms.items():
            assert back.amplitude(ket) == pytest.approx(amp, abs=1e-10)


def test_ecp1_splitter_inverts_with_swapped_ports():
    st = superpose(
        [
            (0.6, basis_state(("p", "q"), (1, 2))),
            (0.8, basis_state(("p", "q"), (3, 0))),
        ]
    )
    for t in (0.2, 0.5, 0.9):
        spec_fwd = _spec(t, "ecp1")
        spec_back = _spec(t, "ecp1", in_modes=("s", "r"), out_modes=("q", "p"))
        back = beam_splitter(beam_splitter(st, spec_fwd), spec_back)
        for ket, amp in st.terms.items():
            assert back.amplitude(ket) == pytest.approx(amp, abs=1e-10)


def test_beam_splitter_rejects_missing_mode():
    with pytest.raises(ValueError):
        beam_splitter(vacuum(("p",)), _spec(0.5, "ecp1"))


def test_beam_splitter_spec_validation():
    with pytest.raises(ValueError):
        _spec(1.5, "ecp1")
    with pytest.raises(ValueError):
        _spec(0.5, "other")
    with pytest.raises(ValueError):
        BeamSplitterSpec("p", "p", "r", "s")
    # bool is an int subclass; True must not pass as t = 1
    for flag in (True, False):
        with pytest.raises(ValueError):
            _spec(flag, "ecp1")


def test_beam_splitter_rejects_output_label_collision():
    st = basis_state(("p", "q", "r"), (1, 0, 0))
    with pytest.raises(ValueError):
        beam_splitter(st, _spec(0.5, "ecp1"))


def test_cross_kerr_tag_writes_occupation_phase():
    st = superpose(
        [
            (0.6, basis_state(("a", "b"), (3, 0))),
            (0.8, basis_state(("a", "b"), (0, 3))),
        ]
    )
    tagged = cross_kerr_tag(st, "b", 0.1)
    assert tagged.phases[(3, 0)] == pytest.approx(0.0, abs=1e-15)
    assert tagged.phases[(0, 3)] == pytest.approx(0.3, abs=1e-12)
    assert tagged.state.amplitude((3, 0)) == pytest.approx(0.6, abs=1e-15)
    assert tagged.state.amplitude((0, 3)) == pytest.approx(0.8, abs=1e-15)


def test_cross_kerr_tags_commute():
    st = superpose(
        [
            (0.6, basis_state(("a", "b"), (2, 1))),
            (0.8, basis_state(("a", "b"), (1, 2))),
        ]
    )
    ab = cross_kerr_tag(cross_kerr_tag(st, "a", 0.07), "b", -0.02)
    ba = cross_kerr_tag(cross_kerr_tag(st, "b", -0.02), "a", 0.07)
    assert ab.state == ba.state == st
    assert set(ab.phases) == set(ba.phases) == set(st.terms)
    for ket in st.terms:
        assert ab.phases[ket] == pytest.approx(ba.phases[ket], abs=1e-15)


def test_cross_kerr_zero_phase_keeps_amplitudes():
    st = superpose(
        [
            (0.6, basis_state(("a", "b"), (1, 0))),
            (0.8, basis_state(("a", "b"), (0, 1))),
        ]
    )
    tagged = cross_kerr_tag(st, "a", 0.0)
    assert tagged.state == st
    assert tagged.phases == {ket: 0.0 for ket in st.terms}


def test_cross_kerr_rejects_nonfinite_phase():
    with pytest.raises(ValueError):
        cross_kerr_tag(vacuum(("a",)), "a", math.inf)


def _tagged_round_one(alpha_sq, theta=0.1, n=2):
    """Joint signal+shared-aux state after both probe tags."""
    alpha = math.sqrt(alpha_sq)
    beta = math.sqrt(1 - alpha_sq)
    joint = superpose(
        [
            (alpha * alpha, basis_state(("a1", "b1", "a2", "b2"), (n, 0, 1, 0))),
            (alpha * beta, basis_state(("a1", "b1", "a2", "b2"), (n, 0, 0, 1))),
            (beta * alpha, basis_state(("a1", "b1", "a2", "b2"), (0, n, 1, 0))),
            (beta * beta, basis_state(("a1", "b1", "a2", "b2"), (0, n, 0, 1))),
        ]
    )
    return cross_kerr_tag(cross_kerr_tag(joint, "b1", -theta / n), "b2", theta)


def test_homodyne_balanced_input_splits_evenly():
    outcomes = homodyne_partition(_tagged_round_one(0.5))
    assert len(outcomes) == 2
    assert outcomes[0].phase_class == pytest.approx(0.0, abs=1e-9)
    assert outcomes[1].phase_class == pytest.approx(0.1, abs=1e-9)
    assert outcomes[0].probability == pytest.approx(0.5, abs=1e-12)
    assert outcomes[1].probability == pytest.approx(0.5, abs=1e-12)


def test_homodyne_skewed_input_mass():
    outcomes = homodyne_partition(_tagged_round_one(0.8))
    assert outcomes[1].probability == pytest.approx(2 * 0.8 * 0.2, abs=1e-12)
    assert outcomes[0].probability == pytest.approx(0.8**2 + 0.2**2, abs=1e-12)


def test_homodyne_probabilities_sum_to_one():
    for alpha_sq in (0.1, 0.25, 0.5, 0.8, 0.9):
        outcomes = homodyne_partition(_tagged_round_one(alpha_sq, n=3))
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-10)
        for o in outcomes:
            assert norm_sq(o.branch) == pytest.approx(1.0, abs=1e-10)


def test_homodyne_untagged_state_is_one_class():
    st = superpose(
        [
            (0.6, basis_state(("a", "b"), (1, 0))),
            (0.8, basis_state(("a", "b"), (0, 1))),
        ]
    )
    outcomes = homodyne_partition(cross_kerr_tag(st, "a", 0.0))
    assert len(outcomes) == 1
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)


def test_homodyne_merges_opposite_phases():
    st = superpose(
        [
            (0.6, basis_state(("a", "b"), (1, 0))),
            (0.8, basis_state(("a", "b"), (0, 1))),
        ]
    )
    for tagged in (
        TaggedState(st, {(1, 0): 0.1, (0, 1): -0.1}),
        cross_kerr_tag(cross_kerr_tag(st, "a", 0.1), "b", -0.1),
    ):
        outcomes = homodyne_partition(tagged)
        assert len(outcomes) == 1
        assert outcomes[0].phase_class == pytest.approx(0.1, abs=1e-9)
        assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)


def test_homodyne_rejects_unnormalized_state():
    tagged = cross_kerr_tag(superpose([(0.5, basis_state(("a",), (1,)))]), "a", 0.0)
    with pytest.raises(ValueError):
        homodyne_partition(tagged)


def test_detect_photon_on_balanced_interference():
    # (|N,0>|1,0> + |N,0>|0,1> + |0,N>|1,0> - |0,N>|0,1>)/2 on (a1,b1,d1,d2)
    n = 4
    reg = ("a1", "b1", "d1", "d2")
    st = superpose(
        [
            (0.5, basis_state(reg, (n, 0, 1, 0))),
            (0.5, basis_state(reg, (n, 0, 0, 1))),
            (0.5, basis_state(reg, (0, n, 1, 0))),
            (-0.5, basis_state(reg, (0, n, 0, 1))),
        ]
    )
    results = detect_photon(st, ["d1", "d2"])
    assert [r[0] for r in results] == ["d1", "d2"]
    for _mode, branch, prob in results:
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert branch.register == ("a1", "b1")
    d1_branch = results[0][1]
    assert d1_branch.amplitude((n, 0)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert d1_branch.amplitude((0, n)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_detect_photon_single_branch_is_certain():
    st = basis_state(("a", "d1", "d2"), (2, 0, 1))
    results = detect_photon(st, ["d1", "d2"])
    assert len(results) == 1
    fired, branch, prob = results[0]
    assert fired == "d2"
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert branch.register == ("a",)
    assert branch.amplitude((2,)) == pytest.approx(1.0, abs=1e-12)


def test_detect_photon_skewed_success_branch():
    # success reading for alpha^2 = 0.8 at the retuned splitter: both clicks
    # land with probability 1/2 and project onto the balanced state
    alpha = math.sqrt(0.8)
    beta = math.sqrt(0.2)
    t = 0.8
    n = 2
    reg = ("a1", "b1", "c1", "c2")
    pre = superpose(
        [
            (alpha * math.sqrt(1 - t), basis_state(reg, (n, 0, 1, 0))),
            (beta * math.sqrt(t), basis_state(reg, (0, n, 0, 1))),
        ]
    )
    pre = superpose([(1 / math.sqrt(norm_sq(pre)), pre)])
    spec = BeamSplitterSpec("c1", "c2", "e1", "e2", 0.5, "ecp2")
    mixed = beam_splitter(pre, spec)
    results = detect_photon(mixed, ["e1", "e2"])
    assert len(results) == 2
    for _mode, _branch, prob in results:
        assert prob == pytest.approx(0.5, abs=1e-12)
    e1_branch = results[0][1]
    assert e1_branch.amplitude((n, 0)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert e1_branch.amplitude((0, n)) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_detect_photon_probabilities_sum_to_one():
    reg = ("x", "d1", "d2")
    st = superpose(
        [
            (0.6, basis_state(reg, (1, 1, 0))),
            (0.8, basis_state(reg, (2, 0, 1))),
        ]
    )
    results = detect_photon(st, ["d1", "d2"])
    assert sum(p for _, _, p in results) == pytest.approx(1.0, abs=1e-12)


def test_detect_photon_rejects_wrong_photon_count():
    st = basis_state(("a", "d1", "d2"), (1, 1, 1))
    with pytest.raises(ValueError):
        detect_photon(st, ["d1", "d2"])
    empty = basis_state(("a", "d1", "d2"), (1, 0, 0))
    with pytest.raises(ValueError):
        detect_photon(empty, ["d1", "d2"])


def test_negate_occupied_fixes_even_component_sign():
    # a per-photon pi phase, (-1)^n, cannot touch an even occupation; the
    # component negation can
    n = 4
    st = superpose(
        [
            (0.8, basis_state(("a", "b"), (n, 0))),
            (-0.6, basis_state(("a", "b"), (0, n))),
        ]
    )
    fixed = negate_occupied(st, "b")
    assert fixed.amplitude((0, n)) == pytest.approx(0.6, abs=1e-15)
    assert fixed.amplitude((n, 0)) == pytest.approx(0.8, abs=1e-15)


def test_negate_occupied_matches_phase_flip_for_odd_n():
    st = superpose(
        [
            (0.6, basis_state(("a", "b"), (5, 0))),
            (0.8, basis_state(("a", "b"), (0, 5))),
        ]
    )
    # for odd N the negation equals the per-photon pi phase (-1)^5 = -1
    negated = negate_occupied(st, "b")
    assert negated.register == ("a", "b")
    assert negated.num_terms() == 2
    assert negated.amplitude((5, 0)) == 0.6
    assert negated.amplitude((0, 5)) == -0.8


def test_negate_occupied_twice_is_identity():
    st = superpose(
        [
            (0.6, basis_state(("a", "b"), (4, 0))),
            (0.8, basis_state(("a", "b"), (0, 4))),
        ]
    )
    assert negate_occupied(negate_occupied(st, "b"), "b") == st
