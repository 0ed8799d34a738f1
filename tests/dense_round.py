"""A dense reference for one concentration round, written apart from the engine.

The round is written from the paper's description (arXiv 1209.1795) and the
package's documented settings, and shares only mode labels with the package.
It acts on the fixed-photon-number basis of four modes holding N + 1
photons: the signal pair (a, b), then the auxiliary photon's two modes, the
one that carries the input's |N,0> coefficient ca first and the one that
carries its |0,N> coefficient cb second. The basis has C(N + 4, 3) kets.

* The photon is each scheme's documented preparation from the round's input
  ca|N,0> + cb|0,N>. ecp1's ``prepare_aux_ecp1`` is ca|1,0> + cb|0,1> on
  (a2, b2). ecp2's ``prepare_aux_ecp2`` at t = ca^2 is
  sqrt(1 - t)|1,0> + sqrt(t)|0,1> on (c1, c2), so c2 carries ca and c1 cb;
  for a normalized input those are ca and cb themselves, and t is reported.
* The probe tags b with -theta/N per photon and the cb mode with +theta: a
  diagonal phase. The readings come from that diagonal modulo 2*pi, within
  PHASE_CLASS_TOLERANCE, as projectors: the 0 reading recycles and the
  |theta| reading heralds. |N,0> with the photon in the cb mode and |0,N>
  with it in the ca mode carry the same amplitude ca*cb, and both read
  |theta|.
* The balanced mixer takes the ca mode into its first port and the cb mode
  into its second, onto the two detectors, first and second, with the sign of
  ``BeamSplitterSpec``'s documented "ecp1" rule: in1 -> sqrt(1-t) out1 -
  sqrt(t) out2, in2 -> sqrt(t) out1 + sqrt(1-t) out2. It is the matrix
  exponential of its generator, taken by eigendecomposition.
* Detection is the projector on one photon in one detector. A
  second-detector click is corrected by a diagonal sign, -1 on the kets
  with b occupied, as the acceptance gate and the single-round demo apply
  ``negate_occupied`` to b1. That click then heralds the first click's
  state up to a global phase.

The description (``basis``, ``generator_terms``, ``tag_phase`` and
``correction_sign``) holds integers and exact rules, so it can be evaluated
over other number types: ``DenseRound`` evaluates it in numpy floats, and
``test_exact_round`` over sympy's exact numbers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from noonecp import PHASE_CLASS_TOLERANCE
from noonecp.protocols import LOCAL_AUX_MODES, SHARED_AUX_MODES, SIGNAL_MODES

# Each scheme's photon modes, the ca mode first, read off its documented
# preparation, and whether a round reports the variable splitter's t.
PHOTON_MODES = {
    "ecp1": (SHARED_AUX_MODES[0], SHARED_AUX_MODES[1]),
    "ecp2": (LOCAL_AUX_MODES[1], LOCAL_AUX_MODES[0]),
}
REPORTS_T = {"ecp1": False, "ecp2": True}
MIXER_T = 0.5
CA, CB = 2, 3  # the photon modes' positions in a ket


def basis(n: int) -> list[tuple[int, int, int, int]]:
    """Every occupation (a, b, ca mode, cb mode) of n + 1 photons, ascending."""
    total = n + 1
    return [
        (a, b, c, total - a - b - c)
        for a in range(total + 1)
        for b in range(total + 1 - a)
        for c in range(total + 1 - a - b)
    ]


def generator_terms(kets):
    """(row, column, sign, radicand) of the mixer's generator per unit angle.

    The generator is a_ca^dag a_cb - a_cb^dag a_ca on ``kets``: an entry is
    sign * sqrt(radicand). Its exponential at angle phi, with t = sin(phi)^2,
    takes a_ca^dag to cos(phi) a_ca^dag - sin(phi) a_cb^dag and a_cb^dag to
    sin(phi) a_ca^dag + cos(phi) a_cb^dag, the "ecp1" rule with in1 the ca mode.
    """
    index = {ket: i for i, ket in enumerate(kets)}
    for column, ket in enumerate(kets):
        for source, target, sign in ((CB, CA, 1), (CA, CB, -1)):
            if ket[source]:
                out = list(ket)
                out[source] -= 1
                out[target] += 1
                yield index[tuple(out)], column, sign, ket[source] * (ket[target] + 1)


def tag_phase(ket, n: int, theta: float) -> float:
    """The probe phase both tags give ``ket``: -theta/N per photon in b, theta per one in cb."""
    return ket[1] * (-theta / n) + ket[CB] * theta


def correction_sign(ket) -> int:
    """The sign the second click's correction gives ``ket``: -1 with b occupied."""
    return -1 if ket[1] else 1


def mixer(kets, t: float = MIXER_T) -> np.ndarray:
    """The mixer's matrix on ``kets``: exp(phi G) for the generator G and
    t = sin(phi)^2.

    G keeps each signal mode's photon number, so it is exponentiated on each
    signal occupation's block, where its eigenvalues are distinct, and the
    entries between blocks are exact zeros. exp(phi G) = exp(-iH) for the
    Hermitian H = i phi G, taken from ``numpy.linalg.eigh``.
    """
    size = len(kets)
    phi = math.asin(math.sqrt(t))
    g = np.zeros((size, size))
    for row, column, sign, radicand in generator_terms(kets):
        g[row, column] += sign * phi * math.sqrt(radicand)
    blocks: dict[tuple[int, int], list[int]] = {}
    for i, ket in enumerate(kets):
        blocks.setdefault(ket[:2], []).append(i)
    u = np.zeros((size, size))
    for idx in blocks.values():
        w, v = np.linalg.eigh(1j * g[np.ix_(idx, idx)])
        block = (v * np.exp(-1j * w)) @ v.conj().T
        assert np.abs(block.imag).max() < 1e-15
        u[np.ix_(idx, idx)] = block.real
    return u


class Heralded(NamedTuple):
    """One reading's branch, normalized, mixed and detected: each detector's
    group on the signal pair as detection leaves it, the second group
    corrected, and the heralded state (the first group normalized)."""

    first: dict
    second: dict
    corrected: dict
    state: dict


class Round(NamedTuple):
    """One round: the readout's input on ``DenseRound.labels`` and its tag
    phases, the reported t (None where none is), each reading's probability
    and its branch (None where the reading's probability is 0)."""

    joint: dict
    phases: dict
    t: float | None
    p: float
    f: float
    success: Heralded | None
    failure: Heralded


class DenseRound:
    """The round of one scheme, photon number and probe phase, in floats."""

    def __init__(self, protocol: str, n: int, theta: float):
        self.n, self.reports_t = n, REPORTS_T[protocol]
        self.labels = (*SIGNAL_MODES, *PHOTON_MODES[protocol])
        self.kets = basis(n)
        self.index = {ket: i for i, ket in enumerate(self.kets)}
        self.mixer = mixer(self.kets)
        self.phases = [tag_phase(ket, n, theta) for ket in self.kets]
        folded = np.array([abs(math.remainder(phase, math.tau)) for phase in self.phases])
        reading = abs(math.remainder(theta, math.tau))
        self.recycles = folded < PHASE_CLASS_TOLERANCE
        self.heralds = np.abs(folded - reading) < PHASE_CLASS_TOLERANCE
        assert not (self.recycles & self.heralds).any()
        self.clicks = [
            [i for i, ket in enumerate(self.kets) if ket[CA:] == fired]
            for fired in ((1, 0), (0, 1))
        ]
        self.correction = np.array([float(correction_sign(ket)) for ket in self.kets])

    def run(self, terms) -> Round:
        """One round on the input {(n_a, n_b): amplitude} of a NOON state,
        whose amplitudes are real (a complex one with no imaginary part)."""
        assert all(complex(amp).imag == 0.0 for amp in terms.values())
        terms = {ket: complex(amp).real for ket, amp in terms.items()}
        n = self.n
        ca, cb = terms.get((n, 0), 0.0), terms.get((0, n), 0.0)
        joint = np.zeros(len(self.kets))
        for (a, b), amp in terms.items():
            joint[self.index[(a, b, 1, 0)]] = amp * ca
            joint[self.index[(a, b, 0, 1)]] = amp * cb
        f, failure = self._herald(joint * self.recycles)
        p, success = self._herald(joint * self.heralds)
        return Round(
            joint={ket: amp for ket, amp in zip(self.kets, joint.tolist()) if amp},
            phases={ket: phase for ket, phase, amp in zip(self.kets, self.phases, joint) if amp},
            t=ca * ca if self.reports_t else None,
            p=p,
            f=f,
            success=success,
            failure=failure,
        )

    def _herald(self, branch: np.ndarray):
        """(probability, Heralded) of one reading's branch; None where its
        probability is 0."""
        mass = float(branch @ branch)
        if mass == 0.0:
            return mass, None
        unit = branch / np.abs(branch).max()  # a subnormal branch keeps its direction
        mixed = self.mixer @ (unit / math.sqrt(unit @ unit))
        first, second = (self._signal(mixed, click) for click in self.clicks)
        corrected = self._signal(mixed * self.correction, self.clicks[1])
        norm = math.sqrt(sum(amp * amp for amp in first.values()))
        state = {ket: amp / norm for ket, amp in first.items()}
        return mass, Heralded(first, second, corrected, state)

    def _signal(self, vector: np.ndarray, click: list[int]) -> dict:
        """The kets of ``click`` with a nonzero amplitude in ``vector``, on the signal pair."""
        return {self.kets[i][:2]: float(vector[i]) for i in click if vector[i]}
