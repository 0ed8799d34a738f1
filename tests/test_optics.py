"""Unit and property tests for the optical elements.

The beam splitter is cross-checked against a brute-force oracle that
expands the transformed creation operators one application at a time,
independently of the exact integer sums used by the implementation, and,
up to 40 photons per mode, against an 80-digit mpmath binomial sum.
"""

import itertools
import math
import random
import re

import mpmath
import pytest

from noonecp import (
    BeamSplitterSpec,
    PureState,
    TaggedState,
    basis_state,
    beam_splitter,
    cross_kerr_tag,
    detect_photon,
    fidelity_up_to_global_phase,
    homodyne_partition,
    negate_occupied,
    norm_sq,
    normalized,
    optics,
    superpose,
    vacuum,
)
from noonecp.fock import _Batch

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
    inputs = [(n1, n2) for n1 in range(7) for n2 in range(7)]
    inputs += [(20, 20), (40, 40), (90, 90), (200, 0)]
    for convention in CONVENTIONS:
        for t in T_GRID:
            for n1, n2 in inputs:
                st = beam_splitter(
                    basis_state(("p", "q"), (n1, n2)), _spec(t, convention)
                )
                assert abs(norm_sq(st) - 1.0) <= 1e-14, (convention, t, n1, n2)
                for ket in st.terms:
                    assert sum(ket) == n1 + n2


def _mpmath_bs(n1, n2, t, convention):
    """Output amplitudes by j at 80 digits: the binomial sum over (k1, k2)."""
    with mpmath.workdps(80):
        c, s = mpmath.sqrt(1 - mpmath.mpf(t)), mpmath.sqrt(mpmath.mpf(t))
        (u11, u12), (u21, u22) = ((c, -s), (s, c)) if convention == "ecp1" else ((c, s), (s, -c))
        w1 = [mpmath.binomial(n1, k) * u11**k * u12 ** (n1 - k) for k in range(n1 + 1)]
        w2 = [mpmath.binomial(n2, k) * u21**k * u22 ** (n2 - k) for k in range(n2 + 1)]
        sums = [mpmath.mpf(0)] * (n1 + n2 + 1)
        for k1, a in enumerate(w1):
            for k2, b in enumerate(w2):
                sums[k1 + k2] += a * b
        f = mpmath.factorial
        return [
            a * mpmath.sqrt(f(j) * f(n1 + n2 - j) / (f(n1) * f(n2))) for j, a in enumerate(sums)
        ]


def test_beam_splitter_matches_mpmath_up_to_forty_photons():
    for convention in CONVENTIONS:
        for t in (0.5, 0.3):
            for n in range(41):
                for n1, n2 in ((n, n), (n, 0)):
                    st = beam_splitter(
                        basis_state(("p", "q"), (n1, n2)), _spec(t, convention)
                    )
                    for j, ref in enumerate(_mpmath_bs(n1, n2, t, convention)):
                        key = (j, n1 + n2 - j)
                        if abs(ref) < 1e-60:  # an exact zero, such as the HOM null
                            assert key not in st.terms, (convention, t, n1, n2, j)
                            continue
                        got = st.amplitude(key)
                        assert got.imag == 0.0
                        assert abs((got.real - ref) / ref) <= 4e-16, (convention, t, n1, n2, j)


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
    with pytest.raises(ValueError, match="output labels must differ"):
        BeamSplitterSpec("a", "b", "c", "c")
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


@pytest.mark.parametrize("phase", [True, "0.1", None, math.nan])
def test_cross_kerr_rejects_phases_that_are_not_finite_reals(phase):
    # bool is an int subclass, but True is no 1 rad setting
    with pytest.raises(ValueError, match="finite real"):
        cross_kerr_tag(basis_state(("a", "b"), (1, 0)), "a", phase)


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


@pytest.mark.parametrize("phases", [(0.0, 2 * math.pi), (0.1, 2 * math.pi - 0.1)])
def test_homodyne_reads_phases_a_turn_apart_as_one_class(phases):
    st = superpose(
        [
            (0.6, basis_state(("a", "b"), (1, 0))),
            (0.8, basis_state(("a", "b"), (0, 1))),
        ]
    )
    outcomes = homodyne_partition(TaggedState(st, dict(zip([(1, 0), (0, 1)], phases))))
    assert len(outcomes) == 1
    assert outcomes[0].phase_class == pytest.approx(phases[0], abs=1e-9)
    assert outcomes[0].probability == pytest.approx(1.0, abs=1e-12)


def test_cross_kerr_refuses_a_finite_phase_that_tags_a_branch_with_inf():
    with pytest.raises(ValueError, match=r"'a'.*1e\+308.*not finite"):
        cross_kerr_tag(basis_state(("a", "b"), (2, 0)), "a", 1e308)


def test_homodyne_rejects_unnormalized_state():
    tagged = cross_kerr_tag(superpose([(0.5, basis_state(("a",), (1,)))]), "a", 0.0)
    with pytest.raises(ValueError):
        homodyne_partition(tagged)


def test_homodyne_checks_the_norm_as_the_sum_of_the_class_masses():
    # 0.9 * (0.6|1,0> + 0.8|0,1>) has norm^2 0.81, split 0.2916 : 0.5184 over
    # two classes; neither class alone tells that it is off
    st = PureState(("a", "b"), {(1, 0): 0.9 * 0.6, (0, 1): 0.9 * 0.8})
    with pytest.raises(ValueError, match=r"normalized state, norm\^2=0\.81"):
        homodyne_partition(cross_kerr_tag(st, "a", 0.1))


def test_the_readout_core_refuses_a_batch_with_one_element_off():
    # the first element is normalized, the second has norm^2 0.85
    st = PureState._derived(("a", "b"), {(1, 0): _Batch([0.6, 0.6]), (0, 1): _Batch([0.8, 0.7])})
    with pytest.raises(ValueError, match=r"normalized state, norm\^2=\[1\.0, 0\.8"):
        optics._partition(*cross_kerr_tag(st, "a", 0.1))


def test_homodyne_partition_is_the_core_with_each_class_normalized():
    batched = PureState._derived(
        ("a", "b"), {(1, 0): _Batch([0.6, 0.8]), (0, 1): _Batch([0.8, 0.6])}
    )
    for tagged in (
        *(_tagged_round_one(alpha_sq, n=3) for alpha_sq in (0.1, 0.5, 0.8)),
        cross_kerr_tag(batched, "a", 0.1),
    ):
        weighed = optics._partition(*tagged)
        for _key, branch, _mass in weighed:
            assert branch.register == tagged.state.register
        want = [(key, normalized(branch), mass) for key, branch, mass in weighed]
        assert len(want) == 2
        assert homodyne_partition(tagged) == want


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


def test_detect_photon_on_tiny_amplitudes():
    # every |amp|^2 underflows to 0; the state is still nonzero
    st = PureState(("a", "d1", "d2"), {(1, 1, 0): 1e-200, (0, 0, 1): 1e-200})
    results = detect_photon(st, ["d1", "d2"])
    assert [r[0] for r in results] == ["d1", "d2"]
    for _mode, branch, prob in results:
        assert prob == pytest.approx(0.5, abs=1e-15)
        assert norm_sq(branch) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "terms, want",
    [
        # each group's norm is finite, and their hypot overflows
        ({(1, 1, 0): 1.5e308, (0, 0, 1): 1.5e308}, (0.5, 0.5)),
        # the first group's norm overflows
        ({(1, 1, 0): 1.5e308, (0, 1, 0): 1.5e308, (0, 0, 1): 1.5e308}, (2 / 3, 1 / 3)),
    ],
)
def test_detect_photon_on_huge_amplitudes(terms, want):
    # the shares do not depend on scale, so they are those of the state scaled
    # down by an exact power of two, bit for bit
    modes = ("d1", "d2")
    results = detect_photon(PureState(("a", *modes), terms), modes)
    assert [p for *_, p in results] == pytest.approx(want, rel=1e-15)
    for _mode, branch, _prob in results:
        assert norm_sq(branch) == pytest.approx(1.0, abs=1e-15)
    scaled = PureState(("a", *modes), {k: a * 2.0**-600 for k, a in terms.items()})
    assert [p.hex() for *_, p in results] == [p.hex() for *_, p in detect_photon(scaled, modes)]


@pytest.mark.parametrize(
    "terms",
    [
        # the second detector's ket comes first, so the groups form out of
        # mode order
        {(1, 0, 1, 0): 0.6, (0, 1, 0, 0): 0.48, (2, 0, 0, 1): 0.64},
        {(0, 0, 0, 1): 0.3, (1, 1, 0, 0): -0.2, (0, 0, 1, 0): 0.9, (3, 1, 0, 0): 0.1},
        {(1, 0, 0, 1): 1e-200, (0, 1, 0, 0): 3e-201, (2, 0, 1, 0): 7e-200},
    ],
)
def test_detect_photon_probability_is_squared_norm_ratio(terms):
    # P(m) = (norm_m / total)^2, with norm_m the hypot of group m's amplitudes
    # and total the hypot of the norms, here taken in the order the kets reach
    # the groups rather than in the order of modes
    modes = ["d1", "d2", "d3"]
    st = PureState(("x", *modes), terms)
    groups = {}
    for (_x, *occ), amp in terms.items():
        groups.setdefault(modes[occ.index(1)], []).append(abs(amp))
    norms = {m: math.hypot(*amps) for m, amps in groups.items()}
    total = math.hypot(*norms.values())
    results = detect_photon(st, modes)
    assert [m for m, _, _ in results] == [m for m in modes if m in groups]
    for m, _branch, prob in results:
        assert prob == (norms[m] / total) ** 2, m


def test_detect_photon_rejects_wrong_photon_count():
    st = basis_state(("a", "d1", "d2"), (1, 1, 1))
    with pytest.raises(
        ValueError, match=r"branch \(1, 1, 1\) holds 2 photons across detectors, expected 1"
    ):
        detect_photon(st, ["d1", "d2"])
    crowded = basis_state(("a", "d1", "d2", "d3"), (0, 1, 1, 1))
    with pytest.raises(ValueError, match="holds 3 photons across detectors, expected 1"):
        detect_photon(crowded, ["d1", "d2", "d3"])
    empty = basis_state(("a", "d1", "d2"), (1, 0, 0))
    with pytest.raises(ValueError, match="holds 0 photons across detectors, expected 1"):
        detect_photon(empty, ["d1", "d2"])


@pytest.mark.parametrize(
    "state, modes, message",
    [
        # the labels are checked before any ket is: a 2-photon ket with a
        # repeated label reports the repeat
        (basis_state(("a", "d1", "d2"), (1, 1, 1)), ["d1", "d2", "d1"], "'d1' is listed more"),
        # a missing mode is named before the refusal to empty the register
        (basis_state(("d1", "d2"), (1, 0)), ["d1", "d2", "z"], r"mode 'z' not in register"),
        # ... and before the refusal of a state without kets
        (PureState(("a", "d1"), {}), ["d1", "z"], r"mode 'z' not in register"),
        # the register is left empty before any ket is counted
        (basis_state(("d1", "d2"), (1, 1)), ["d1", "d2"], "remove every mode"),
    ],
)
def test_detect_photon_checks_its_labels_before_its_kets(state, modes, message):
    with pytest.raises(ValueError, match=message):
        detect_photon(state, modes)


@pytest.mark.parametrize(
    "state",
    [basis_state(("a", "b"), (1, 0)), PureState(("a", "d1"), {})],
    ids=["one-ket", "no-kets"],
)
@pytest.mark.parametrize("modes", [[], (), iter([])], ids=["list", "tuple", "iterator"])
def test_detect_photon_refuses_an_empty_detector_list(state, modes):
    # the fault is the missing detectors, not the state: neither a ket that
    # "holds 0 photons across detectors" nor a state without kets is to blame
    with pytest.raises(ValueError, match="^no detector mode was given"):
        detect_photon(state, modes)


def test_detect_photon_refuses_a_state_without_kets():
    with pytest.raises(ValueError, match="no kets reached any detector"):
        detect_photon(PureState(("a", "d1", "d2"), {}), ["d1", "d2"])


def test_detect_photon_refuses_a_repeated_detector_mode():
    with pytest.raises(ValueError, match="detector mode 'a' is listed more than once"):
        detect_photon(basis_state(("a", "b"), (1, 0)), ["a", "a"])
    with pytest.raises(ValueError, match="detector mode 'd1' is listed more than once"):
        detect_photon(basis_state(("x", "d1", "d2"), (0, 1, 0)), ["d1", "d2", "d1"])


def test_detect_photon_refuses_to_remove_every_mode():
    with pytest.raises(ValueError, match="remove every mode"):
        detect_photon(basis_state(("d1", "d2"), (1, 0)), ["d1", "d2"])


def _random_detector_states(count):
    """Seeded states on (x, d1, d2[, d3]) whose first ket reaches the last detector."""
    rng = random.Random(2012)
    for _ in range(count):
        modes = ("d1", "d2", "d3")[: rng.choice((2, 3))]
        scale = 10.0 ** rng.uniform(-300, 0)
        terms = {}
        for fired in (len(modes) - 1, *(rng.randrange(len(modes)) for _ in range(5))):
            occ = [0] * len(modes)
            occ[fired] = 1
            terms[(rng.randrange(4), *occ)] = scale * rng.uniform(-1.0, 1.0)
        yield PureState(("x", *modes), terms), modes


def _assert_mode_order_free(state, modes):
    reference = {m: (branch, p) for m, branch, p in detect_photon(state, modes)}
    for order in itertools.permutations(modes):
        results = detect_photon(state, order)
        assert [m for m, _, _ in results] == [m for m in order if m in reference]
        for m, branch, p in results:
            assert p.hex() == reference[m][1].hex(), (order, m)
            assert branch == reference[m][0]


@pytest.mark.parametrize(
    "terms",
    [
        # the kets reach d2 before d1
        {(1, 0, 1): 0.6, (2, 1, 0): -0.8},
        {(0, 0, 1): 1e-200, (3, 1, 0): 7e-201, (1, 0, 1): 2e-200},
        # the kets reach d3, d1, d2 in turn
        {(1, 0, 0, 1): 0.3, (0, 1, 0, 0): 0.5, (2, 0, 1, 0): -0.1, (3, 0, 0, 1): 0.2},
        {(0, 0, 0, 1): 1e-200, (1, 1, 0, 0): 7e-201, (2, 0, 1, 0): -3e-200},
    ],
)
def test_detect_photon_probabilities_do_not_depend_on_mode_order(terms):
    modes = ("d1", "d2", "d3")[: len(next(iter(terms))) - 1]
    _assert_mode_order_free(PureState(("x", *modes), terms), modes)


def test_detect_photon_probabilities_do_not_depend_on_mode_order_on_random_states():
    for state, modes in _random_detector_states(300):
        _assert_mode_order_free(state, modes)


def _mixed_round_state(n, convention):
    """A whole joint round state at alpha^2 = 0.8 on (a1, b1, a2, b2), its
    auxiliary pair mixed onto (d1, d2) on a balanced splitter."""
    ca, cb = math.sqrt(0.8), math.sqrt(0.2)
    terms = {
        signal + aux: c * d
        for signal, c in (((n, 0), ca), ((0, n), cb))
        for aux, d in (((1, 0), ca), ((0, 1), cb))
    }
    joint = PureState(("a1", "b1", "a2", "b2"), terms)
    return beam_splitter(joint, BeamSplitterSpec("a2", "b2", "d1", "d2", 0.5, convention))


_DETECTED = {
    **{
        f"round N={n} {convention}": (lambda n=n, c=convention: _mixed_round_state(n, c))
        for n in (1, 3)
        for convention in CONVENTIONS
    },
    # d1's group has a subnormal norm, so it normalizes through the 2**600 scaling
    "subnormal group": lambda: PureState(("a", "d1", "d2"), {(0, 1, 0): 5e-324, (0, 0, 1): 1.0}),
    "two 1e308 groups": lambda: PureState(("a", "d1", "d2"), {(1, 1, 0): 1e308, (0, 0, 1): 1e308}),
}
_ZERO = "0x0.0p+0"


def _round_bits(n, sign):
    """Both detector branches of ``_mixed_round_state(n, ...)``: the second
    group's amplitudes carry ``sign``."""
    return [
        ("d1", (((n, 0), "0x1.c9f25c5bfeddap-1", _ZERO), ((0, n), "0x1.c9f25c5bfeddap-2", _ZERO)),
         "0x1.cccccccccccccp-1"),
        ("d2", (((n, 0), sign + "0x1.c9f25c5bfedd8p-1", _ZERO),
                ((0, n), sign + "0x1.c9f25c5bfedd8p-2", _ZERO)),
         "0x1.999999999999ap-4"),
    ]


# float.hex of every projected amplitude (real, imaginary) and probability,
# recorded at c0c30e5
_DETECTED_BITS = {
    "round N=1 ecp1": _round_bits(1, "-"),
    "round N=1 ecp2": _round_bits(1, ""),
    "round N=3 ecp1": _round_bits(3, "-"),
    "round N=3 ecp2": _round_bits(3, ""),
    "subnormal group": [
        ("d1", (((0,), "0x1.0000000000000p+0", _ZERO),), _ZERO),
        ("d2", (((0,), "0x1.0000000000000p+0", _ZERO),), "0x1.0000000000000p+0"),
    ],
    # each group's norm, 1e308, is above 2**1022, so it normalizes through the
    # exact 2**-600 scaling, which gives the unit amplitude 1/1e308 could not
    "two 1e308 groups": [
        ("d1", (((1,), "0x1.0000000000000p+0", _ZERO),), "0x1.ffffffffffffep-2"),
        ("d2", (((0,), "0x1.0000000000000p+0", _ZERO),), "0x1.ffffffffffffep-2"),
    ],
}


@pytest.mark.parametrize("case", sorted(_DETECTED))
def test_detect_photon_keeps_its_pinned_bits(case):
    # ``_detect`` hands out its groups raw and the public op normalizes each
    # one; every bit it returns must stay what it was
    results = detect_photon(_DETECTED[case](), ("d1", "d2"))
    bits = [
        (m, tuple((k, a.real.hex(), a.imag.hex()) for k, a in branch.terms.items()), p.hex())
        for m, branch, p in results
    ]
    assert bits == _DETECTED_BITS[case]


@pytest.mark.parametrize(
    "state, shown",
    [
        (basis_state(("a",), (1,)), "PureState"),
        ((basis_state(("a",), (1,)), {(1,): 0.0}), "tuple"),
    ],
    ids=["pure-state", "plain-tuple"],
)
def test_homodyne_refuses_a_state_that_is_not_tagged(state, shown):
    with pytest.raises(ValueError, match=rf"got {shown}; cross_kerr_tag makes one"):
        homodyne_partition(state)


def test_homodyne_names_a_ket_without_probe_phase():
    st = basis_state(("a", "b"), (1, 0))
    with pytest.raises(ValueError, match=r"ket \(1, 0\) has no probe phase"):
        homodyne_partition(TaggedState(st, {}))


@pytest.mark.parametrize(
    "phases, ket, shown",
    [
        ((math.nan, math.nan), (1, 0), "nan"),
        ((0.0, math.inf), (0, 1), "inf"),
        ((-math.inf, 0.0), (1, 0), "-inf"),
        ((10**400, 0.0), (1, 0), str(10**400)),
        (("x", 0.0), (1, 0), "'x'"),
        ((0.0, None), (0, 1), "None"),
        ((True, 0.0), (1, 0), "True"),
    ],
    ids=["nan", "inf", "-inf", "int-beyond-float", "str", "none", "bool"],
)
def test_homodyne_refuses_a_probe_phase_that_is_not_a_finite_real(phases, ket, shown):
    st = superpose(
        [
            (0.6, basis_state(("a", "b"), (1, 0))),
            (0.8, basis_state(("a", "b"), (0, 1))),
        ]
    )
    tagged = TaggedState(st, dict(zip([(1, 0), (0, 1)], phases)))
    with pytest.raises(ValueError, match=re.escape(f"ket {ket!r} has probe phase {shown}")):
        homodyne_partition(tagged)


@pytest.mark.parametrize(
    "phases, refusal",
    [
        ({(1, 0): "x"}, "ket (1, 0) has probe phase 'x', not a finite real"),
        ({(1, 0): math.nan}, "ket (1, 0) has probe phase nan, not a finite real"),
        ({(1, 0): True}, "ket (1, 0) has probe phase True, not a finite real"),
        ({}, "ket (1, 0) has no probe phase"),
    ],
    ids=["str", "nan", "bool", "missing"],
)
def test_cross_kerr_tag_refuses_a_tagged_state_phase_as_homodyne_does(phases, refusal):
    # a valid new tag must neither trip over, blame itself for, add to nor
    # fill in a phase the tagged state carries that the readout would refuse
    tagged = TaggedState(basis_state(("a", "b"), (1, 0)), phases)
    for op in (lambda: cross_kerr_tag(tagged, "a", 0.1), lambda: homodyne_partition(tagged)):
        with pytest.raises(ValueError, match=re.escape(refusal)):
            op()


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
