"""Linear-optical elements and an idealized probe-phase tag.

Three physical pieces live here:

* ``beam_splitter`` rewrites the creation operators of two modes through a
  2x2 unitary, expanding multi-photon occupations multinomially. Two sign
  conventions are supported, one per concentration scheme, and a variable
  transmissivity covers both the balanced mixers and the tunable splitter
  used to prepare the local auxiliary photon.
* ``cross_kerr_tag`` models a nondemolition interaction with a coherent
  probe: each branch accumulates a phase proportional to the occupation of
  the tagged mode. No photon is absorbed.
* ``homodyne_partition`` models the ideal probe readout: branches are
  grouped by |accumulated phase|, since a quadrature measurement cannot
  tell +phi from -phi.

``detect_photon`` projects on single-photon detector clicks and
``negate_occupied`` is the local correction applied after a click on the
second detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

from .fock import (
    NORM_TOLERANCE,
    BasisKet,
    ModeId,
    PureState,
    normalized,
    norm_sq,
)

# Probe phases closer than this are read out as the same homodyne class.
PHASE_CLASS_TOLERANCE = 1e-9

_CONVENTIONS = ("ecp1", "ecp2")


def _finite_real(value: object) -> bool:
    """A finite int or float; bool is an int subclass but never a real setting."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


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
            raise ValueError(f"transmissivity must lie in [0, 1], got {t!r}")
        if self.sign_convention not in _CONVENTIONS:
            raise ValueError(
                f"unknown sign convention {self.sign_convention!r}, "
                f"expected one of {_CONVENTIONS}"
            )


@lru_cache(maxsize=1024)
def _scatter(n1: int, n2: int, t: float, convention: str) -> tuple[tuple[int, int, float], ...]:
    """(j, m, weight) for each way the splitter sends (n1, n2) photons out, in summing order."""
    c, s = math.sqrt(1.0 - t), math.sqrt(t)
    (u11, u12), (u21, u22) = ((c, -s), (s, c)) if convention == "ecp1" else ((c, s), (s, -c))
    base = math.sqrt(math.factorial(n1) * math.factorial(n2))
    out = []
    for k1 in range(n1 + 1):
        w1 = math.comb(n1, k1) * u11**k1 * u12 ** (n1 - k1)
        if w1 == 0.0:
            continue
        for k2 in range(n2 + 1):
            w2 = math.comb(n2, k2) * u21**k2 * u22 ** (n2 - k2)
            if w2 == 0.0:
                continue
            j = k1 + k2
            m = n1 + n2 - j
            out.append((j, m, w1 * w2 * math.sqrt(math.factorial(j) * math.factorial(m)) / base))
    return tuple(out)


def beam_splitter(state: PureState, spec: BeamSplitterSpec) -> PureState:
    """Scatter two modes of ``state`` through the splitter ``spec``.

    Each input term with occupations (n1, n2) on the splitter modes expands
    into all distributions of the n1+n2 photons over the output modes, with
    binomial weights and the bosonic sqrt(j! m! / (n1! n2!)) factors. Other
    modes pass through untouched. Photon number and norm are conserved.
    """
    reg = state.register
    try:
        i1 = reg.index(spec.mode_in_1)
        i2 = reg.index(spec.mode_in_2)
    except ValueError:
        raise ValueError(
            f"splitter modes ({spec.mode_in_1!r}, {spec.mode_in_2!r}) "
            f"not both in register {reg!r}"
        ) from None
    new_reg = list(reg)
    new_reg[i1], new_reg[i2] = spec.mode_out_1, spec.mode_out_2
    if len(set(new_reg)) != len(new_reg):
        raise ValueError(f"splitter output labels collide with register {reg!r}")

    out: dict[BasisKet, complex] = {}
    for ket, amp in state.terms.items():
        for j, m, weight in _scatter(
            ket[i1], ket[i2], spec.transmissivity, spec.sign_convention
        ):
            new_ket = list(ket)
            new_ket[i1], new_ket[i2] = j, m
            key = tuple(new_ket)
            out[key] = out.get(key, 0j) + amp * weight
    return PureState._derived(tuple(new_reg), out)


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

    Plain states enter with phase 0 on every branch. Amplitudes are never
    changed, so two tags on different modes commute exactly.
    """
    if not math.isfinite(per_photon_phase):
        raise ValueError(f"per-photon phase must be finite, got {per_photon_phase!r}")
    state, phases = state if isinstance(state, TaggedState) else (state, {})
    try:
        idx = state.register.index(mode)
    except ValueError:
        raise ValueError(f"mode {mode!r} not in register {state.register!r}") from None
    return TaggedState(
        state,
        {ket: phases.get(ket, 0.0) + ket[idx] * per_photon_phase for ket in state.terms},
    )


@dataclass(frozen=True)
class HomodyneOutcome:
    """One distinguishable probe reading.

    ``phase_class`` is the shared |probe phase| of the branches collapsed
    into this outcome, ``branch`` the renormalized post-measurement state,
    ``probability`` the collapsed squared mass.
    """

    phase_class: float
    branch: PureState
    probability: float


def homodyne_partition(state: TaggedState) -> list[HomodyneOutcome]:
    """Read out the probe, splitting branches by |probe phase|.

    Phases matching within PHASE_CLASS_TOLERANCE fall into one class;
    +phi and -phi are indistinguishable by construction. The input must be
    normalized. Outcomes come back sorted by phase class, probabilities
    summing to 1.
    """
    state, phases = state
    total = norm_sq(state)
    if abs(total - 1.0) > NORM_TOLERANCE:
        raise ValueError(f"homodyne readout expects a normalized state, norm^2={total}")
    classes: list[tuple[float, dict[BasisKet, complex]]] = []
    for ket, amp in state.terms.items():
        p = abs(phases[ket])
        for key, members in classes:
            if abs(p - key) < PHASE_CLASS_TOLERANCE:
                members[ket] = members.get(ket, 0j) + amp
                break
        else:
            classes.append((p, {ket: amp}))
    outcomes = []
    for key, members in sorted(classes, key=lambda kv: kv[0]):
        raw = PureState._derived(state.register, members)
        mass = norm_sq(raw)
        outcomes.append(HomodyneOutcome(key, normalized(raw), mass))
    return outcomes


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
    reg = state.register
    idxs = []
    for m in modes:
        try:
            idxs.append(reg.index(m))
        except ValueError:
            raise ValueError(f"detector mode {m!r} not in register {reg!r}") from None
    keep = [i for i in range(len(reg)) if i not in idxs]
    kept_reg = tuple(reg[i] for i in keep)
    if not kept_reg:
        raise ValueError("detection would remove every mode in the register")

    groups: dict[ModeId, dict[BasisKet, complex]] = {}
    total = 0.0
    for ket, amp in state.terms.items():
        occ = [ket[i] for i in idxs]
        if sum(occ) != 1:
            raise ValueError(
                f"branch {ket!r} holds {sum(occ)} photons across detectors, expected 1"
            )
        bucket = groups.setdefault(modes[occ.index(1)], {})
        reduced = tuple([ket[i] for i in keep])
        bucket[reduced] = bucket.get(reduced, 0j) + amp
        total += abs(amp) ** 2
    if total <= 0.0:
        raise ValueError("cannot detect on a state with zero norm")

    results = []
    for m in modes:
        bucket = groups.get(m)
        if not bucket:
            continue
        raw = PureState._derived(kept_reg, bucket)
        mass = norm_sq(raw)
        results.append((m, normalized(raw), mass / total))
    return results


def negate_occupied(state: PureState, mode: ModeId) -> PureState:
    """Negate every branch holding at least one photon in ``mode``.

    This is the sign correction after a second-detector click: it flips the
    relative sign between the component with all N photons in ``mode`` and
    the empty component, for any N; applied twice it is the identity.
    """
    try:
        idx = state.register.index(mode)
    except ValueError:
        raise ValueError(f"mode {mode!r} not in register {state.register!r}") from None
    out = {
        ket: (-amp if ket[idx] > 0 else amp) for ket, amp in state.terms.items()
    }
    return PureState._derived(state.register, out)
