"""Linear-optical elements and an idealized probe-phase tag.

Three physical pieces live here:

* ``beam_splitter`` rewrites the creation operators of two modes through a
  2x2 unitary. Each output weight is an exact integer sum rounded once, so
  it stays unitary at any photon number. Two sign conventions are supported,
  one per concentration scheme, and a variable transmissivity covers both
  the balanced mixers and the tunable splitter that prepares the local
  auxiliary photon.
* ``cross_kerr_tag`` models a nondemolition interaction with a coherent
  probe: each branch accumulates a phase proportional to the occupation of
  the tagged mode. No photon is absorbed.
* ``homodyne_partition`` models the ideal probe readout: branches are
  grouped by |accumulated phase| modulo 2*pi, since a quadrature
  measurement cannot tell +phi from -phi, nor phi from phi + 2*pi.

``detect_photon`` projects on single-photon detector clicks and
``negate_occupied`` is the local correction applied after a click on the
second detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add, itemgetter
from typing import Mapping, NamedTuple, Sequence

from .fock import (
    NORM_TOLERANCE,
    _REAL_RULE,
    BasisKet,
    ModeId,
    PureState,
    _add_into,
    _finite_real,
    _mode_index,
    _norm_sq,
    _normalized,
    _off,
    _sqrt_ratio,
    normalized,
)

__all__ = [
    "PHASE_CLASS_TOLERANCE",
    "BeamSplitterSpec",
    "beam_splitter",
    "TaggedState",
    "cross_kerr_tag",
    "HomodyneOutcome",
    "homodyne_partition",
    "detect_photon",
    "negate_occupied",
]

# Probe phases closer than this are read out as the same homodyne class.
PHASE_CLASS_TOLERANCE = 1e-9

_CONVENTIONS = ("ecp1", "ecp2")


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Two input modes, two output labels, transmissivity and sign layout.

    ``sign_convention`` picks where the relative minus sign sits:

    * ``"ecp1"``: in1 -> sqrt(1-t) out1 - sqrt(t) out2,
                  in2 -> sqrt(t) out1 + sqrt(1-t) out2
    * ``"ecp2"``: in1 -> sqrt(1-t) out1 + sqrt(t) out2,
                  in2 -> sqrt(t) out1 - sqrt(1-t) out2

    Both matrices are unitary for every t in [0, 1]. Output labels may
    repeat the input labels to transform in place.
    """

    mode_in_1: ModeId
    mode_in_2: ModeId
    mode_out_1: ModeId
    mode_out_2: ModeId
    transmissivity: float = 0.5
    sign_convention: str = "ecp1"

    def __post_init__(self) -> None:
        if self.mode_in_1 == self.mode_in_2:
            raise ValueError("beam splitter input modes must differ")
        if self.mode_out_1 == self.mode_out_2:
            raise ValueError("beam splitter output labels must differ")
        t = self.transmissivity
        if not (_finite_real(t) and 0.0 <= t <= 1.0):
            raise ValueError(f"transmissivity must lie in [0, 1] as {_REAL_RULE}, got {t!r}")
        if self.sign_convention not in _CONVENTIONS:
            raise ValueError(
                f"unknown sign convention {self.sign_convention!r}, "
                f"expected one of {_CONVENTIONS}"
            )


@lru_cache(maxsize=1024)
def _scatter(n1: int, n2: int, t: float, convention: str) -> tuple[tuple[int, int, float], ...]:
    """(j, m, weight) for every nonzero output of (n1, n2) photons, j ascending.

    With t = p/d exactly, c^2 = q/d and s^2 = p/d for q = d - p. Every term of
    output j carries c^a s^b with a = n2 + j and b = n1 + j (mod 2), so weight^2
    is S^2 q^(a%2) p^(b%2) j! m! / (n1! n2! d^(n1+n2)) for an exact integer sum
    S, rounded once by the int/int division.
    """
    p, d = t.as_integer_ratio()
    q = d - p
    scale = math.factorial(n1) * math.factorial(n2) * d ** (n1 + n2)
    out = []
    for j in range(n1 + n2 + 1):
        m = n1 + n2 - j
        total = 0
        for k1 in range(max(0, j - n2), min(n1, j) + 1):
            a, b = 2 * k1 + n2 - j, n1 + j - 2 * k1
            term = math.comb(n1, k1) * math.comb(n2, j - k1) * q ** (a // 2) * p ** (b // 2)
            total += -term if (n1 - k1 if convention == "ecp1" else n2 - j + k1) % 2 else term
        w_sq = total * total * q ** (a % 2) * p ** (b % 2) * math.factorial(j) * math.factorial(m)
        weight = _sqrt_ratio(w_sq, scale)
        if weight:
            out.append((j, m, weight if total > 0 else -weight))  # S may overflow a float
    return tuple(out)


def beam_splitter(state: PureState, spec: BeamSplitterSpec) -> PureState:
    """Scatter two modes of ``state`` through the splitter ``spec``.

    Each input term with occupations (n1, n2) on the splitter modes expands
    into all distributions of the n1+n2 photons over the output modes. Each
    weight, binomial sum times sqrt(j! m! / (n1! n2!)), is an exact integer
    sum rounded once, so photon number and norm are conserved at any photon
    number. Other modes pass through untouched.
    """
    reg = state._register
    i1, i2 = _mode_index(reg, spec.mode_in_1), _mode_index(reg, spec.mode_in_2)
    new_reg = list(reg)
    new_reg[i1], new_reg[i2] = spec.mode_out_1, spec.mode_out_2
    if len(set(new_reg)) != len(new_reg):
        raise ValueError(f"splitter output labels collide with register {reg!r}")
    return _split(state, spec.transmissivity, spec.sign_convention, i1, i2, tuple(new_reg))


def _split(
    state: PureState, t: float, convention: str, i1: int, i2: int, register: tuple[ModeId, ...]
) -> PureState:
    """``beam_splitter`` with transmissivity ``t`` and sign ``convention`` on
    the modes at ``i1`` and ``i2``, onto ``register``.

    The caller has checked the setting and found both positions and the
    output register, whose labels must be distinct.
    """
    out: dict[BasisKet, complex] = {}
    for ket, amp in state._terms.items():
        new_ket = list(ket)
        for j, m, weight in _scatter(ket[i1], ket[i2], t, convention):
            new_ket[i1], new_ket[i2] = j, m
            _add_into(out, tuple(new_ket), amp * weight)
    return PureState._derived(register, out)


class TaggedState(NamedTuple):
    """A pure state plus the probe phase (radians) each of its kets carries.

    ``phases`` has one entry per ket of ``state``. It is written by
    ``cross_kerr_tag`` and consumed by ``homodyne_partition``.
    """

    state: PureState
    phases: Mapping[BasisKet, float]


def cross_kerr_tag(
    state: PureState | TaggedState, mode: ModeId, per_photon_phase: float
) -> TaggedState:
    """Add occupation(mode) * per_photon_phase to every branch's probe phase.

    Plain states enter with phase 0 on every branch; a tagged state must
    carry a finite real phase on every ket, as ``homodyne_partition``
    requires. Amplitudes are never changed, so two tags on different modes
    commute exactly. A branch whose phase would leave the float range is
    refused.
    """
    if not _finite_real(per_photon_phase):
        raise ValueError(f"per-photon phase must be {_REAL_RULE}, got {per_photon_phase!r}")
    if isinstance(state, TaggedState):
        state, phases = state
        _check_phases(state, phases)
    else:
        phases = {}
    tagged = _tag_phases(state, phases, ((_mode_index(state._register, mode), per_photon_phase),))
    if not all(map(math.isfinite, tagged.values())):
        raise ValueError(
            f"tagging mode {mode!r} with phase {per_photon_phase!r} per photon "
            "gives a branch a probe phase that is not finite"
        )
    return TaggedState(state, tagged)


def _check_phases(state: PureState, phases: Mapping[BasisKet, float]) -> None:
    """Refuse ``phases`` unless it gives every ket of ``state`` a finite real phase."""
    for ket in state._terms:
        if ket not in phases:
            raise ValueError(f"ket {ket!r} has no probe phase")
        if not _finite_real(phases[ket]):
            raise ValueError(f"ket {ket!r} has probe phase {phases[ket]!r}, not {_REAL_RULE}")


def _tag_phases(
    state: PureState, phases: Mapping[BasisKet, float], tags: Sequence[tuple[int, float]]
) -> dict[BasisKet, float]:
    """``cross_kerr_tag``'s phases after each (position, per-photon phase) of
    ``tags``, in one pass over the kets; nothing is checked.

    Each ket's phase starts at its entry in ``phases`` (0.0 if it has none)
    and adds the tags' terms in order, as one ``cross_kerr_tag`` call per
    tag would add them.
    """
    out = {}
    for ket in state._terms:
        phase = phases.get(ket, 0.0)
        for idx, per_photon_phase in tags:
            phase = phase + ket[idx] * per_photon_phase
        out[ket] = phase
    return out


class HomodyneOutcome(NamedTuple):
    """One distinguishable probe reading.

    ``phase_class`` is the shared |probe phase| of the branches collapsed
    into this outcome, folded into [0, pi] modulo 2*pi, ``branch`` the
    renormalized post-measurement state, ``probability`` the collapsed
    squared mass.
    """

    phase_class: float
    branch: PureState
    probability: float


def _partition(state: TaggedState) -> list[tuple[float, PureState, float]]:
    """``homodyne_partition`` with each class's branch left unnormalized.

    Returns (phase class, branch, squared mass) per class, sorted by phase
    class, the branch holding the class's kets as they are on the tagged
    register. The input's norm is checked as the sum of the class masses,
    so no ket is squared twice. Every ket must carry a finite real phase:
    ``homodyne_partition`` checks a caller's, and the engine's tags are
    finite by ``ProtocolConfig``.
    """
    state, phases = state
    classes: list[tuple[float, dict[BasisKet, complex]]] = []
    for ket, amp in state._terms.items():
        p = abs(math.remainder(phases[ket], math.tau))
        for key, members in classes:
            if abs(p - key) < PHASE_CLASS_TOLERANCE:
                members[ket] = amp
                break
        else:
            classes.append((p, {ket: amp}))
    weighed = [
        (key, PureState._derived(state._register, members), _norm_sq(members.values()))
        for key, members in sorted(classes, key=itemgetter(0))
    ]
    total = reduce(add, [mass for *_, mass in weighed]) if weighed else 0
    if _off(total, 1.0, NORM_TOLERANCE):
        raise ValueError(f"homodyne readout expects a normalized state, norm^2={total}")
    return weighed


def homodyne_partition(state: TaggedState) -> list[HomodyneOutcome]:
    """Read out the probe, splitting branches by |probe phase| modulo 2*pi.

    Phases matching within PHASE_CLASS_TOLERANCE fall into one class;
    +phi, -phi and phi + 2*pi are indistinguishable by construction. The
    input must be normalized, with a finite real phase on every ket.
    Outcomes come back sorted by phase class, probabilities summing to 1.
    """
    _check_phases(*state)
    return [HomodyneOutcome(key, normalized(branch), p) for key, branch, p in _partition(state)]


def _picker(idxs: Sequence[int]):
    """ket -> the tuple of ket[i] for i in ``idxs``."""
    return itemgetter(*idxs) if len(idxs) > 1 else lambda ket: tuple([ket[i] for i in idxs])


def _detect(
    state: PureState, idxs: Sequence[int], keep: Sequence[int]
) -> list[tuple[int, PureState, float]]:
    """``detect_photon`` by position, with each branch's norm in place of its
    probability.

    ``idxs`` are the detectors' positions and ``keep`` those of the modes
    that remain; the caller has found both. Returns (j, branch, norm) for
    each detector ``idxs[j]`` that fires, j ascending.
    """
    det_occ, reduced = _picker(idxs), _picker(keep)
    kept_reg = tuple([state._register[i] for i in keep])
    # Within one detector's group every ket has the same detector occupations,
    # so the reduced kets of a group are distinct.
    groups: dict[int, dict[BasisKet, complex]] = {}
    for ket, amp in state._terms.items():
        occ = det_occ(ket)
        if sum(occ) != 1:
            raise ValueError(
                f"branch {ket!r} holds {sum(occ)} photons across detectors, expected 1"
            )
        groups.setdefault(occ.index(1), {})[reduced(ket)] = amp
    if not groups:
        raise ValueError("cannot detect on a state with zero norm: no kets reached any detector")
    branches = []
    for j in sorted(groups):
        unit, norm = _normalized(groups[j])
        branches.append((j, PureState._derived(kept_reg, unit), norm))
    return branches


def detect_photon(
    state: PureState, modes: Sequence[ModeId]
) -> list[tuple[ModeId, PureState, float]]:
    """Click statistics for one photon spread over the given detector modes.

    Every branch must hold exactly one photon across ``modes`` (the
    protocols guarantee this after the final splitter). Returns one
    ``(fired_mode, projected_state, probability)`` triple per mode that can
    fire, in the order given; the detector modes are removed from the
    projected register (the non-fired ones are empty there). Probabilities
    sum to 1.
    """
    modes, reg = tuple(modes), state._register
    for i, m in enumerate(modes):
        if m in modes[:i]:
            raise ValueError(f"detector mode {m!r} is listed more than once")
    idxs = [_mode_index(reg, m) for m in modes]
    keep = [i for i in range(len(reg)) if i not in idxs]
    if not keep:
        raise ValueError("detection would remove every mode in the register")
    branches = _detect(state, idxs, keep)
    # Public states hold plain numbers, and hypot does not depend on the
    # order of its arguments, so the total is the same in any mode order.
    total = math.hypot(*[norm for _, _, norm in branches])
    return [(modes[j], projected, (norm / total) ** 2) for j, projected, norm in branches]


def negate_occupied(state: PureState, mode: ModeId) -> PureState:
    """Negate every branch holding at least one photon in ``mode``.

    This is the sign correction after a second-detector click: it flips the
    relative sign between the component with all N photons in ``mode`` and
    the empty component, for any N; applied twice it is the identity.
    """
    idx = _mode_index(state._register, mode)
    out = {ket: (-amp if ket[idx] > 0 else amp) for ket, amp in state._terms.items()}
    return PureState._derived(state._register, out)
