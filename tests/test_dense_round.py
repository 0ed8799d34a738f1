"""Each whole round of the engine against the dense circuit of ``dense_round``.

The dense circuit shares only mode labels with the engine, so a slip in the
engine's reading of the circuit (which mode is tagged, the mixer's sign,
which click is corrected, how a scheme lays out its photon) shows here even
where the closed form, which shares that reading, agrees with it.
"""

import math
import sys

import numpy as np
import pytest
from dense_round import MIXER_T, DenseRound, basis, mixer

from noonecp import ProtocolConfig, prepare_less_entangled_noon, protocols, run_round

# Every comparison is within 4 ulps of the reference value, or of the
# smallest normal double where that value is subnormal. Measured: 1.7 ulps.
_ULPS = 4
_ALPHA_SQ = (0.1, 0.3, 0.7, 0.97)
_ROUNDS = 12


def _close(engine, reference):
    bound = _ULPS * sys.float_info.epsilon * max(abs(reference), sys.float_info.min)
    return abs(engine - reference) <= bound


def _same(engine, reference):
    """Whether two {ket: value} maps agree within the bound, a missing ket as 0."""
    return all(
        _close(complex(engine.get(ket, 0.0)).real, reference.get(ket, 0.0))
        for ket in engine.keys() | reference.keys()
    )


def _same_up_to_sign(engine, reference):
    """``_same`` after turning ``engine`` by the sign of its overlap with ``reference``."""
    overlap = sum(complex(amp).real * reference.get(ket, 0.0) for ket, amp in engine.items())
    sign = math.copysign(1.0, overlap)
    return _same({ket: sign * complex(amp).real for ket, amp in engine.items()}, reference)


def _on_labels(register, values, labels):
    """{ket: value} on ``register`` with each ket reordered onto ``labels``."""
    assert sorted(register) == sorted(labels), register
    order = [register.index(label) for label in labels]
    return {tuple(ket[i] for i in order): value for ket, value in values.items()}


def _corrected(group, idx):
    """The engine's correction of ``group``: each ket with ``idx`` occupied negated."""
    return {ket: -amp if ket[idx] else amp for ket, amp in group.terms.items()}


@pytest.mark.parametrize("n, size", [(1, 10), (2, 20), (3, 35)])
def test_the_dense_basis_holds_every_ket_of_n_plus_one_photons(n, size):
    kets = basis(n)
    assert len(kets) == len(set(kets)) == size == math.comb(n + 4, 3)
    assert all(sum(ket) == n + 1 and min(ket) >= 0 for ket in kets)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_dense_mixer_is_the_documented_ecp1_rule(n):
    # unitary on every block, and on one photon: in1 (the ca mode) goes to
    # sqrt(1-t) out1 - sqrt(t) out2, in2 (the cb mode) to sqrt(t) out1 + sqrt(1-t) out2
    kets = basis(n)
    u = mixer(kets)
    assert np.abs(u @ u.T - np.eye(len(kets))).max() < 16 * sys.float_info.epsilon
    c, s = math.sqrt(1.0 - MIXER_T), math.sqrt(MIXER_T)
    index = {ket: i for i, ket in enumerate(kets)}
    signal = (n, 0)
    one, other = index[(*signal, 1, 0)], index[(*signal, 0, 1)]
    assert np.allclose(u[[one, other], one], [c, -s], rtol=0, atol=_ULPS * sys.float_info.epsilon)
    assert np.allclose(u[[one, other], other], [s, c], rtol=0, atol=_ULPS * sys.float_info.epsilon)


@pytest.mark.parametrize("theta", [0.1, -2.0, math.pi])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("protocol", protocols.PROTOCOLS)
def test_each_round_matches_the_dense_circuit(protocol, n, theta, monkeypatch):
    # Each round is fed the input run_round got, so every round is checked on
    # its own, up to the exact fixed point (alpha^2 = 0.97 reaches it first).
    # Beside RoundOutcome's fields, the spies read the readout's input (the
    # joint state on its labels, and its tag phases) and each detection's two
    # groups and correction, in the engine's order: the failure branch's
    # detection, then the success branch's.
    circuit = DenseRound(protocol, n, theta)
    readouts, groups, folds = [], [], []
    partition, detect, fold = protocols._partition, protocols._detect, protocols._fold_fidelity

    def read(state, phases):
        readouts.append((state, phases))
        return partition(state, phases)

    def click(*args):
        out = detect(*args)
        groups.append(out)
        return out

    def fold_check(kept, other, idx):
        folds.append(idx)
        return fold(kept, other, idx)

    monkeypatch.setattr(protocols, "_partition", read)
    monkeypatch.setattr(protocols, "_detect", click)
    monkeypatch.setattr(protocols, "_fold_fidelity", fold_check)
    config = ProtocolConfig(protocol, n_photons=n, theta=theta)
    for alpha_sq in _ALPHA_SQ:
        state = prepare_less_entangled_noon(math.sqrt(alpha_sq), n)
        for k in range(1, _ROUNDS + 1):
            for record in (readouts, groups, folds):
                record.clear()
            outcome = run_round(state, config, k)
            want = circuit.run(state.terms)
            case = (alpha_sq, k)

            [(joint, phases)] = readouts
            assert _same(_on_labels(joint.register, joint.terms, circuit.labels), want.joint), case
            assert _same(_on_labels(joint.register, phases, circuit.labels), want.phases), case

            assert (outcome.vbs_transmission_used is None) is (want.t is None), case
            if want.t is not None:
                assert _close(outcome.vbs_transmission_used, want.t), case
            assert _close(outcome.success_prob, want.p), case
            assert _close(outcome.failure_prob, want.f), case

            heralded = [want.failure] + ([want.success] if want.success else [])
            assert len(groups) == len(folds) == len(heralded), case
            for detected, idx, ref in zip(groups, folds, heralded):
                (j_first, first), (j_second, second) = detected
                assert (j_first, j_second) == (0, 1), case
                assert _same(first.terms, ref.first), case
                assert _same(second.terms, ref.second), case
                assert _same(_corrected(second, idx), ref.corrected), case
                # the correction makes the second click herald the first's state
                assert _same_up_to_sign(ref.corrected, ref.first), case

            assert _same(outcome.failure_state.terms, want.failure.state), case
            assert (outcome.success_state is None) is (want.success is None), case
            if want.success:
                assert _same_up_to_sign(outcome.success_state.terms, want.success.state), case
            state = outcome.failure_state
