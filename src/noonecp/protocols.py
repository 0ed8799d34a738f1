"""Round-by-round execution of two NOON-state concentration schemes.

Both schemes start from a partially entangled N-photon state
alpha|N,0> + beta|0,N> shared on modes (a1, b1) and distill the balanced
superposition using one auxiliary photon per round:

* ``ecp1`` consumes an auxiliary photon prepared in the same alpha/beta
  superposition across two spatial modes (it has to travel alongside the
  signal, which is why channel loss hits this scheme twice per round).
* ``ecp2`` consumes a locally prepared auxiliary photon split on a variable
  beam splitter whose transmissivity is retuned every round to the current
  state's ca^2, so the photon is cb|1,0> + ca|0,1>.

A round proceeds the same way in both schemes: tag the N-photon mode with
a probe phase of -theta/N per photon and the auxiliary mode with +theta,
read the probe out, mix the auxiliary modes on a balanced splitter and
detect the photon. The |theta| reading heralds success (balanced output
after a sign correction on second-detector clicks); the 0 reading leaves a
squared-coefficient copy of the input, which is recycled into the next
round. Success probabilities are identical between the schemes in the
lossless model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from .fock import (
    ModeId,
    PureState,
    basis_state,
    fidelity_up_to_global_phase,
    inner,
    superpose,
    tensor,
)
from .optics import (
    PHASE_CLASS_TOLERANCE,
    BeamSplitterSpec,
    _finite_real,
    beam_splitter,
    cross_kerr_tag,
    detect_photon,
    homodyne_partition,
    negate_occupied,
)

PROTOCOLS = ("ecp1", "ecp2")

# Default mode labels: signal pair, shared-scheme auxiliary pair, local-scheme
# auxiliary pair, and the detector labels each scheme's final splitter feeds.
SIGNAL_MODES = ("a1", "b1")
SHARED_AUX_MODES = ("a2", "b2")
LOCAL_AUX_MODES = ("c1", "c2")
ECP1_DETECTORS = ("d1", "d2")
ECP2_DETECTORS = ("e1", "e2")

# Internal consistency checks on folded detector branches.
_FOLD_TOLERANCE = 1e-10

# Veltkamp splitting constant 2^27 + 1: splits a double into two halves
# whose products are exact.
_SPLITTER = 134217729.0


class _Scheme(NamedTuple):
    """Where one scheme's auxiliary photon lives and how it is read out.

    ``swapped`` puts the signal's (ca, cb) on the auxiliary modes in reverse
    order; ``mixer`` is the balanced splitter feeding the detectors.
    """

    aux_modes: tuple[ModeId, ModeId]
    detectors: tuple[ModeId, ModeId]
    tag_mode: ModeId
    swapped: bool
    mixer: BeamSplitterSpec


_SCHEMES = {
    "ecp1": _Scheme(
        SHARED_AUX_MODES, ECP1_DETECTORS, SHARED_AUX_MODES[1], False,
        BeamSplitterSpec(*SHARED_AUX_MODES, *ECP1_DETECTORS, 0.5, "ecp1"),
    ),
    "ecp2": _Scheme(
        LOCAL_AUX_MODES, ECP2_DETECTORS, LOCAL_AUX_MODES[0], True,
        BeamSplitterSpec(*LOCAL_AUX_MODES, *ECP2_DETECTORS, 0.5, "ecp2"),
    ),
}


def _check_alpha(alpha: float) -> None:
    if not (isinstance(alpha, (int, float)) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")


def _check_count(value: int, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")


def _imbalance(alpha: float) -> tuple[float, float, float]:
    """(x - y, min(x, y), L = ln(max/min)) for x = alpha^2, y = 1 - x.

    x is carried exactly as hi + lo (Dekker's two-product), so x - y and
    min(x, y) are correct to an ulp even where 1 - x cancels. x = 1/2 is
    unreachable: the square of a double is never exactly 1/2.
    """
    hi = alpha * alpha
    c = _SPLITTER * alpha
    a_hi = c - (c - alpha)
    a_lo = alpha - a_hi
    lo = ((a_hi * a_hi - hi) + 2.0 * a_hi * a_lo) + a_lo * a_lo
    signed = (2.0 * hi - 1.0) + 2.0 * lo
    small = hi + lo if signed < 0.0 else (1.0 - hi) - lo
    if abs(signed) < 0.5:
        # atanh is well conditioned here; ln(max/min) = 2 atanh|x - y|.
        return signed, small, 2.0 * math.atanh(abs(signed))
    if small == 0.0:
        return signed, small, math.inf
    # Lopsided: atanh is ill-conditioned near 1, the logarithms are not.
    return signed, small, math.log1p(-small) - math.log(small)


def _ratio_power(log_ratio: float, k: int) -> tuple[float, float]:
    """(R, 1 - R) for R = r^(2^k) = exp(-2^k L), L = log_ratio > 0.

    Once 2^k L reaches 1024, exp has long underflowed, so R is returned as
    exactly 0 without forming 2^k L (which leaves the float range for
    large k).
    """
    if k + math.frexp(log_ratio)[1] > 10:
        return 0.0, 1.0
    t = math.ldexp(log_ratio, k)
    return math.exp(-t), -math.expm1(-t)


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything one concentration run depends on.

    alpha is the real positive coefficient of the |N,0> component; the
    |0,N> coefficient is sqrt(1 - alpha^2). theta is the probe phase per
    auxiliary photon (its sign and magnitude only need to keep the success
    and failure readings distinguishable, so it may not lie within
    PHASE_CLASS_TOLERANCE of a multiple of 2*pi). loss_eta is the single-pass
    channel transmission used by ``apply_loss_model``.
    """

    protocol: str
    alpha: float
    n_photons: int = 1
    max_rounds: int = 10
    theta: float = 0.1
    loss_eta: float = 1.0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        _check_alpha(self.alpha)
        _check_count(self.n_photons, "n_photons")
        _check_count(self.max_rounds, "max_rounds")
        th = self.theta
        if not _finite_real(th):
            raise ValueError(f"theta must be a finite real, got {th!r}")
        if abs(math.remainder(th, math.tau)) <= PHASE_CLASS_TOLERANCE:
            raise ValueError(
                "theta must stay farther than the homodyne phase tolerance "
                f"{PHASE_CLASS_TOLERANCE} from every multiple of 2*pi, got {th!r}"
            )
        eta = self.loss_eta
        if not (_finite_real(eta) and 0.0 <= eta <= 1.0):
            raise ValueError(f"loss_eta must lie in [0, 1], got {eta!r}")

    @property
    def beta(self) -> float:
        return math.sqrt(1.0 - self.alpha * self.alpha)


@dataclass(frozen=True)
class RoundOutcome:
    """Both heralded branches of one round.

    success_state is the corrected post-detection state for the |theta|
    probe reading (None when that reading's probability is zero, or
    underflows to zero after deep recycling). failure_state is
    the recycled squared-coefficient state for the 0 reading.
    corrections_applied records which detector clicks required the sign
    correction, as "branch:detector:negate(mode)" strings.
    """

    round_index: int
    success_state: PureState | None
    success_prob: float
    failure_state: PureState
    failure_prob: float
    vbs_transmission_used: float | None
    corrections_applied: tuple[str, ...]


class RoundStats(NamedTuple):
    round_index: int
    vbs_transmission: float | None
    p_conditional: float
    p_unconditional: float
    success_fidelity: float


@dataclass(frozen=True)
class Schedule:
    """Per-round statistics of a full run plus the total success probability.

    p_unconditional of round k is p_conditional scaled by the probability
    of having failed every earlier round; p_total is the sum of the
    unconditional column. success_fidelity is measured against the balanced
    target and is NaN for rounds whose success reading has zero probability.
    """

    protocol: str
    alpha: float
    n_photons: int
    per_round: tuple[RoundStats, ...]
    p_total: float


def prepare_less_entangled_noon(
    alpha: float, n_photons: int, modes: tuple[ModeId, ModeId] = SIGNAL_MODES
) -> PureState:
    """alpha|N,0> + sqrt(1-alpha^2)|0,N> on the two given modes."""
    _check_alpha(alpha)
    _check_count(n_photons, "n_photons")
    beta = math.sqrt(1.0 - alpha * alpha)
    n = n_photons
    return superpose(
        [
            (alpha, basis_state(modes, (n, 0))),
            (beta, basis_state(modes, (0, n))),
        ]
    )


def maximally_entangled_noon(
    n_photons: int, modes: tuple[ModeId, ModeId] = SIGNAL_MODES
) -> PureState:
    """The balanced target (|N,0> + |0,N>)/sqrt(2)."""
    _check_count(n_photons, "n_photons")
    r = 1.0 / math.sqrt(2.0)
    n = n_photons
    return superpose(
        [
            (r, basis_state(modes, (n, 0))),
            (r, basis_state(modes, (0, n))),
        ]
    )


def prepare_aux_ecp1(
    alpha: float, modes: tuple[ModeId, ModeId] = SHARED_AUX_MODES
) -> PureState:
    """Single photon in alpha|1,0> + sqrt(1-alpha^2)|0,1> across two modes.

    The shared scheme needs the auxiliary coefficients to match the current
    round's signal coefficients.
    """
    return prepare_less_entangled_noon(alpha, 1, modes)


def prepare_aux_ecp2(
    transmissivity: float, modes: tuple[ModeId, ModeId] = LOCAL_AUX_MODES
) -> PureState:
    """Single photon split on a variable beam splitter.

    Sends one photon into the first port; the output is
    sqrt(1-t)|1,0> + sqrt(t)|0,1> on ``modes``. t = 0 and t = 1 are allowed
    and give an unentangled photon (the round then never succeeds).
    """
    photon = basis_state(modes, (1, 0))
    spec = BeamSplitterSpec(
        mode_in_1=modes[0],
        mode_in_2=modes[1],
        mode_out_1=modes[0],
        mode_out_2=modes[1],
        transmissivity=transmissivity,
        sign_convention="ecp2",
    )
    return beam_splitter(photon, spec)


def vbs_transmission(alpha: float, round_k: int) -> float:
    """Round-k transmissivity t_k = a^(2^k) / (a^(2^k) + b^(2^k)).

    With R = r^(2^(k-1)) for the ratio r of the smaller to the larger
    squared coefficient, t_k is 1/(1+R) when a > b and R/(1+R) otherwise,
    so deep rounds cannot hit 0/0 underflow and any depth is accepted.
    ``run_round`` reads the same setting off the recycled state as ca^2.
    """
    _check_alpha(alpha)
    _check_count(round_k, "round index")
    signed, _, log_ratio = _imbalance(alpha)
    r_pow, _ = _ratio_power(log_ratio, round_k - 1)
    return (1.0 if signed > 0.0 else r_pow) / (1.0 + r_pow)


def _noon_coefficients(state: PureState) -> tuple[float, float, int]:
    """Validate a (possibly degenerate) NOON-form state and pull (ca, cb, N).

    Accepts one or two terms shaped (N,0)/(0,N) with exactly real,
    non-negative amplitudes on a two-mode register (the engine keeps them
    so); a missing term counts as coefficient zero (it may have underflowed
    to zero after deep recycling).
    """
    if len(state.register) != 2:
        raise ValueError(
            f"expected a two-mode state, got register {state.register!r}"
        )
    terms = dict(state.terms)
    if not 1 <= len(terms) <= 2:
        raise ValueError(f"expected a NOON-form state, got {state!r}")
    n = 0
    for ket in terms:
        occupied = [v for v in ket if v > 0]
        if len(occupied) != 1:
            raise ValueError(f"branch {ket!r} is not a NOON component")
        if n and occupied[0] != n:
            raise ValueError(f"mixed photon numbers in {state!r}")
        n = occupied[0]
    ca = terms.get((n, 0), 0j)
    cb = terms.get((0, n), 0j)
    for c in (ca, cb):
        if c.imag != 0.0 or c.real < 0.0:
            raise ValueError(
                f"NOON coefficients must be real and non-negative, got {state!r}"
            )
    return ca.real, cb.real, n


def _interfere_and_detect(
    branch: PureState, scheme: _Scheme, sign_mode: ModeId, label: str, notes: list[str]
) -> PureState:
    """Balanced splitter on the auxiliary pair, detect, correct, fold.

    Both detector outcomes are kept: a click on the second detector gets the
    sign correction on the N-photon mode, after which the two projected
    states agree up to a global phase. The first-detector branch (always
    present, with real non-negative amplitudes) is returned as the folded
    state; each correction is appended to ``notes``.
    """
    corrected: list[PureState] = []
    for fired, projected, _prob in detect_photon(
        beam_splitter(branch, scheme.mixer), scheme.detectors
    ):
        if fired == scheme.detectors[1]:
            projected = negate_occupied(projected, sign_mode)
            notes.append(f"{label}:{fired}:negate({sign_mode})")
        corrected.append(projected)
    for other in corrected[1:]:
        # Both branches are normalized, so |<a|b>|^2 is their fidelity.
        fid = abs(inner(corrected[0], other)) ** 2
        if abs(fid - 1.0) > _FOLD_TOLERANCE:
            raise ValueError(
                f"detector branches disagree after correction (fidelity {fid})"
            )
    return corrected[0]


def run_round(state: PureState, config: ProtocolConfig, round_k: int) -> RoundOutcome:
    """Execute one concentration round on a NOON-form input state.

    The input lives on two signal modes (register order fixes which mode
    carries the N-photon component of the first term). Auxiliary and
    detector modes use the package-default labels, so the signal register
    must not collide with them. Both schemes build the auxiliary photon from
    the input's own coefficients (ca, cb): ecp1 as ca|1,0> + cb|0,1>, ecp2 as
    cb|1,0> + ca|0,1>, the variable splitter set to t = ca^2. round_k is only
    validated and recorded.

    Returns both heralded branches; the failure branch always exists and
    carries the squared, renormalized coefficients of the input. Detection
    after the probe reading is deterministic in this idealized model, so
    the success probability equals the |theta| reading's probability.
    """
    _check_count(round_k, "round index")
    ca, cb, n = _noon_coefficients(state)
    if n != config.n_photons:
        raise ValueError(
            f"state carries N={n} photons but config expects N={config.n_photons}"
        )
    scheme = _SCHEMES[config.protocol]
    for lbl in scheme.aux_modes + scheme.detectors:
        if lbl in state.register:
            raise ValueError(
                f"signal register {state.register!r} collides with reserved label {lbl!r}"
            )
    sig_b = state.register[1]
    theta = config.theta
    first, second = (cb, ca) if scheme.swapped else (ca, cb)
    aux = PureState(scheme.aux_modes, {(1, 0): first, (0, 1): second})
    tagged = cross_kerr_tag(tensor(state, aux), sig_b, -theta / n)
    readings = homodyne_partition(cross_kerr_tag(tagged, scheme.tag_mode, theta))

    success_reading = None
    failure_reading = None
    for reading in readings:
        if reading.phase_class < PHASE_CLASS_TOLERANCE:
            failure_reading = reading
        elif abs(reading.phase_class - abs(theta)) < PHASE_CLASS_TOLERANCE:
            success_reading = reading
        else:
            raise ValueError(
                f"unexpected probe phase class {reading.phase_class!r}"
            )
    if failure_reading is None:
        raise ValueError("probe readout produced no recyclable branch")

    notes: list[str] = []
    # A reading whose probability underflowed to 0.0 counts as absent.
    success_prob = 0.0 if success_reading is None else success_reading.probability
    success_state = None
    if success_prob > 0.0:
        success_state = _interfere_and_detect(
            success_reading.branch, scheme, sig_b, "success", notes
        )
    failure_state = _interfere_and_detect(
        failure_reading.branch, scheme, sig_b, "failure", notes
    )
    return RoundOutcome(
        round_index=round_k,
        success_state=success_state,
        success_prob=success_prob,
        failure_state=failure_state,
        failure_prob=failure_reading.probability,
        vbs_transmission_used=ca * ca if config.protocol == "ecp2" else None,
        corrections_applied=tuple(notes),
    )


def run_schedule(config: ProtocolConfig) -> Schedule:
    """Run max_rounds rounds, recycling every failure branch.

    Conditional probabilities come straight from each round; unconditional
    ones are weighted by the survival product of earlier failures. The
    schedule is lossless; ``apply_loss_model`` folds channel transmission
    in afterwards.
    """
    state = prepare_less_entangled_noon(config.alpha, config.n_photons, SIGNAL_MODES)
    target = maximally_entangled_noon(config.n_photons, SIGNAL_MODES)
    rows: list[RoundStats] = []
    survival = 1.0
    p_total = 0.0
    for k in range(1, config.max_rounds + 1):
        outcome = run_round(state, config, k)
        if outcome.success_state is not None:
            fidelity = fidelity_up_to_global_phase(outcome.success_state, target)
        else:
            fidelity = math.nan
        unconditional = outcome.success_prob * survival
        rows.append(
            RoundStats(
                round_index=k,
                vbs_transmission=outcome.vbs_transmission_used,
                p_conditional=outcome.success_prob,
                p_unconditional=unconditional,
                success_fidelity=fidelity,
            )
        )
        p_total += unconditional
        survival *= outcome.failure_prob
        state = outcome.failure_state
    return Schedule(
        protocol=config.protocol,
        alpha=config.alpha,
        n_photons=config.n_photons,
        per_round=tuple(rows),
        p_total=p_total,
    )


def apply_loss_model(schedule: Schedule, config: ProtocolConfig) -> Schedule:
    """Fold heralded channel loss into a lossless schedule.

    The shared scheme's auxiliary photon crosses the lossy channel twice
    per round, so every success probability is scaled by loss_eta^2; the
    local scheme never exposes its auxiliary photon to the channel and is
    returned unchanged. Failure recycling is left untouched (loss is
    heralded away in this idealization).
    """
    if schedule.protocol != config.protocol:
        raise ValueError(
            f"schedule is for {schedule.protocol!r} but config says {config.protocol!r}"
        )
    if config.protocol == "ecp2" or config.loss_eta == 1.0:
        return schedule
    f = config.loss_eta * config.loss_eta
    rows = tuple(
        RoundStats(
            round_index=r.round_index,
            vbs_transmission=r.vbs_transmission,
            p_conditional=r.p_conditional * f,
            p_unconditional=r.p_unconditional * f,
            success_fidelity=r.success_fidelity,
        )
        for r in schedule.per_round
    )
    return replace(schedule, per_round=rows, p_total=schedule.p_total * f)
