"""Round-by-round execution of two NOON-state concentration schemes.

Both schemes start from a partially entangled N-photon state
alpha|N,0> + beta|0,N> shared on modes (a1, b1) and distill the balanced
superposition using one auxiliary photon per round:

* ``ecp1`` consumes an auxiliary photon prepared in the same alpha/beta
  superposition across two spatial modes (it has to travel alongside the
  signal, which is why channel loss hits this scheme twice per round).
* ``ecp2`` consumes a locally prepared auxiliary photon split on a variable
  beam splitter whose transmissivity is retuned every round to the current
  state's ca^2, so the photon is cb|1,0> + ca|0,1> on (c1, c2): the same
  photon as ecp1's, ca|1,0> + cb|0,1>, on the labels (c2, c1).

Both schemes run one circuit on their own labels: tag the N-photon mode
with a probe phase of -theta/N per photon and the auxiliary pair's second
mode with +theta, read the probe out, mix the pair on a balanced splitter
and detect the photon. The |theta| reading heralds success (balanced output
after a sign correction on second-detector clicks); the 0 reading leaves a
squared-coefficient copy of the input, which is recycled into the next
round. Lossless yields agree bit for bit between the schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .fock import (
    NORM_TOLERANCE,
    ModeId,
    PureState,
    _batch,
    _check_alpha,
    _check_count,
    _finite_real,
    _nonnegative_real,
    _off,
    _per_element,
    basis_state,
    fidelity_up_to_global_phase,
    inner,
    tensor,
)
from .optics import (
    PHASE_CLASS_TOLERANCE,
    BeamSplitterSpec,
    _detect,
    beam_splitter,
    cross_kerr_tag,
    homodyne_partition,
    negate_occupied,
)

__all__ = [
    "SIGNAL_MODES",
    "SHARED_AUX_MODES",
    "LOCAL_AUX_MODES",
    "ECP1_DETECTORS",
    "ECP2_DETECTORS",
    "PROTOCOLS",
    "ProtocolConfig",
    "RoundOutcome",
    "RoundStats",
    "Schedule",
    "prepare_less_entangled_noon",
    "maximally_entangled_noon",
    "prepare_aux_ecp1",
    "prepare_aux_ecp2",
    "vbs_transmission",
    "run_round",
    "run_schedule",
    "run_schedules",
    "apply_loss_model",
]

# Default mode labels: signal pair, shared-scheme auxiliary pair, local-scheme
# auxiliary pair, and the detector labels each scheme's final splitter feeds.
SIGNAL_MODES = ("a1", "b1")
SHARED_AUX_MODES = ("a2", "b2")
LOCAL_AUX_MODES = ("c1", "c2")
ECP1_DETECTORS = ("d1", "d2")
ECP2_DETECTORS = ("e1", "e2")

# Veltkamp splitting constant 2^27 + 1: splits a double into two halves
# whose products are exact.
_SPLITTER = 134217729.0


class _Scheme(NamedTuple):
    """Where one scheme's auxiliary photon lives and how it is read out.

    The photon is ca|1,0> + cb|0,1> on ``aux_modes``, tagged on
    ``aux_modes[1]``; ``mixer`` is the balanced splitter feeding the
    detectors. ``local`` marks a photon that never crosses the channel.
    """

    aux_modes: tuple[ModeId, ModeId]
    detectors: tuple[ModeId, ModeId]
    local: bool
    mixer: BeamSplitterSpec


# ecp2 labels its local pair (c2, c1), so that its photon is ecp1's.
_SCHEMES = {
    name: _Scheme(aux_modes, detectors, local, BeamSplitterSpec(*aux_modes, *detectors))
    for name, aux_modes, detectors, local in (
        ("ecp1", SHARED_AUX_MODES, ECP1_DETECTORS, False),
        ("ecp2", LOCAL_AUX_MODES[::-1], ECP2_DETECTORS, True),
    )
}
PROTOCOLS = tuple(_SCHEMES)


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


def _beta(alpha: float) -> float:
    """The |0,N> coefficient sqrt(1 - alpha^2) that goes with alpha|N,0>."""
    return math.sqrt(1.0 - alpha * alpha)


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything one concentration run depends on.

    alpha is the real positive coefficient of the |N,0> component; the
    |0,N> coefficient is sqrt(1 - alpha^2). theta is the probe phase per
    auxiliary photon (its sign and magnitude only need to keep the success
    and failure readings distinguishable, so it may not lie within
    PHASE_CLASS_TOLERANCE of a multiple of 2*pi, and N tags of -theta/N must
    cancel it within that tolerance in doubles). loss_eta is the single-pass
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
        # The failure reading's probe phase, as run_round's two tags add it up
        # on |0,N> x aux photon in the tag mode; it must land in the 0 class.
        n = self.n_photons
        try:
            residual = (0.0 + n * (-th / n)) + th
        except OverflowError:  # an N beyond the float range has no tag -theta/N
            residual = math.inf
        if abs(residual) >= PHASE_CLASS_TOLERANCE:
            raise ValueError(
                f"theta={th!r} does not split into {n} per-photon tags that cancel "
                f"it within {PHASE_CLASS_TOLERANCE} in double precision "
                f"(residual {residual!r})"
            )
        eta = self.loss_eta
        if not (_finite_real(eta) and 0.0 <= eta <= 1.0):
            raise ValueError(f"loss_eta must lie in [0, 1], got {eta!r}")

    @property
    def beta(self) -> float:
        return _beta(self.alpha)


class RoundOutcome(NamedTuple):
    """Both heralded branches of one round.

    success_state is the corrected post-detection state for the |theta|
    probe reading (None when that reading's probability is zero, or
    underflows to zero after deep recycling). failure_state is
    the recycled squared-coefficient state for the 0 reading.

    For a batched input state the probabilities and the VBS setting hold
    one value per element, and success_state is None only when
    success_prob is 0 in every element. Where success_prob is 0 in some
    elements, success_state still holds them, computed like the others from
    an absent reading: NaN where the branch's norm is exactly zero, else the
    branch rescaled from amplitudes whose squares underflow. Such elements
    carry no physics; ``run_schedules`` reports their fidelity as NaN.
    """

    round_index: int
    success_state: PureState | None
    success_prob: float
    failure_state: PureState
    failure_prob: float
    vbs_transmission_used: float | None


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
    n = n_photons
    return PureState(modes, {(n, 0): alpha, (0, n): _beta(alpha)})


def maximally_entangled_noon(
    n_photons: int, modes: tuple[ModeId, ModeId] = SIGNAL_MODES
) -> PureState:
    """The balanced target (|N,0> + |0,N>)/sqrt(2)."""
    _check_count(n_photons, "n_photons")
    r = 1.0 / math.sqrt(2.0)
    n = n_photons
    return PureState(modes, {(n, 0): r, (0, n): r})


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


def _noon_coefficients(state: PureState, n: int) -> tuple[float, float]:
    """(ca, cb) of a state ca|N,0> + cb|0,N> on a two-mode register, N = n.

    The coefficients must be exactly real and non-negative (the engine keeps
    them so); one of them may be missing, as after deep recycling squares
    it to zero.
    """
    terms = state._terms
    kets = {(n, 0), (0, n)}
    if len(state._register) != 2 or not terms or not terms.keys() <= kets:
        raise ValueError(f"expected a two-mode NOON state with N={n}, got {state!r}")
    ca = _nonnegative_real(terms.get((n, 0), 0j))
    cb = _nonnegative_real(terms.get((0, n), 0j))
    if ca is None or cb is None:
        raise ValueError(f"NOON coefficients must be real and non-negative, got {state!r}")
    return ca, cb


def _interfere_and_detect(branch: PureState, scheme: _Scheme, sign_mode: ModeId) -> PureState:
    """Balanced splitter on the auxiliary pair, detect, correct, fold.

    Both detector outcomes are kept: a click on the second detector gets the
    sign correction on the N-photon mode, after which the two projected
    states agree up to a global phase. The first-detector branch (always
    present, with real non-negative amplitudes) is returned as the folded
    state.
    """
    branches = _detect(beam_splitter(branch, scheme.mixer), scheme.detectors)
    corrected = [
        negate_occupied(projected, sign_mode) if fired == scheme.detectors[1] else projected
        for fired, projected, _norm in branches
    ]
    for other in corrected[1:]:
        # Both branches are normalized, so |<a|b>|^2 is their fidelity.
        fid = abs(inner(corrected[0], other)) ** 2
        if _off(fid, 1.0, NORM_TOLERANCE):
            raise ValueError(
                f"detector branches disagree after correction (fidelity {fid})"
            )
    return corrected[0]


def run_round(state: PureState, config: ProtocolConfig, round_k: int) -> RoundOutcome:
    """Execute one concentration round on a NOON-form input state.

    The input must be ca|N,0> + cb|0,N> on two signal modes, with N the
    config's n_photons and ca, cb exactly real and non-negative (one may be
    zero); anything else raises ValueError. Auxiliary and detector modes use
    the package-default labels, so the signal register must not hold them
    (``tensor`` and ``beam_splitter`` refuse the collision). Both schemes
    build the auxiliary photon from the input's own coefficients, as
    ca|1,0> + cb|0,1> on the scheme's auxiliary pair: (a2, b2) for ecp1 and
    (c2, c1) for ecp2, whose variable splitter is set to t = ca^2. round_k
    is only validated and recorded.

    Returns both heralded branches; the failure branch always exists and
    carries the squared, renormalized coefficients of the input. Detection
    after the probe reading is deterministic in this idealized model, so
    the success probability equals the |theta| reading's probability.
    """
    _check_count(round_k, "round index")
    n = config.n_photons
    ca, cb = _noon_coefficients(state, n)
    scheme = _SCHEMES[config.protocol]
    sig_b = state._register[1]
    theta = config.theta
    aux = PureState._derived(scheme.aux_modes, {(1, 0): ca, (0, 1): cb})
    tagged = cross_kerr_tag(tensor(state, aux), sig_b, -theta / n)
    readings = homodyne_partition(cross_kerr_tag(tagged, scheme.aux_modes[1], theta))

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

    success_prob = 0.0
    success_state = None
    # A reading whose probability underflowed to 0.0 in every run is absent.
    if success_reading is not None and success_reading.probability:
        success_prob = success_reading.probability
        success_state = _interfere_and_detect(success_reading.branch, scheme, sig_b)
    failure_state = _interfere_and_detect(failure_reading.branch, scheme, sig_b)
    return RoundOutcome(
        round_index=round_k,
        success_state=success_state,
        success_prob=success_prob,
        failure_state=failure_state,
        failure_prob=failure_reading.probability,
        vbs_transmission_used=ca * ca if scheme.local else None,
    )


def run_schedule(config: ProtocolConfig) -> Schedule:
    """Run max_rounds rounds, recycling every failure branch.

    Conditional probabilities come straight from each round; unconditional
    ones are weighted by the survival product of earlier failures. The
    schedule is lossless; ``apply_loss_model`` folds channel transmission
    in afterwards.
    """
    return run_schedules(config, [config.alpha])[0]


def run_schedules(config: ProtocolConfig, alphas: Iterable[float]) -> list[Schedule]:
    """``run_schedule`` of ``config`` at each of ``alphas``, as one engine pass.

    Every setting but alpha comes from ``config``; config.alpha is not used.
    Each alpha must lie strictly inside (0, 1) (ValueError otherwise). At
    fixed N every alpha walks through the same kets, so each round runs once
    with one amplitude batch per ket; every element sees the float
    operations of its own scalar run, so each schedule equals
    ``run_schedule`` of the config with that alpha, bit for bit.
    """
    alphas = list(alphas)
    for alpha in alphas:
        _check_alpha(alpha)
    if not alphas:
        return []
    n = config.n_photons
    state = PureState._derived(
        SIGNAL_MODES,
        {(n, 0): _batch(alphas), (0, n): _batch([_beta(alpha) for alpha in alphas])},
    )
    target = maximally_entangled_noon(n, SIGNAL_MODES)
    rows = []
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
            (k, outcome.vbs_transmission_used, outcome.success_prob, unconditional, fidelity)
        )
        p_total += unconditional
        survival *= outcome.failure_prob
        state = outcome.failure_state
    size = len(alphas)
    # A success reading of zero probability is absent: its fidelity is NaN.
    per_round = [
        [
            RoundStats(k, t, p, u, f if p > 0.0 else math.nan)
            for k, t, p, u, f in _per_element(row, size)
        ]
        for row in rows
    ]
    return [
        Schedule(
            protocol=config.protocol,
            alpha=alpha,
            n_photons=config.n_photons,
            per_round=stats,
            p_total=total,
        )
        for alpha, stats, (total,) in zip(alphas, zip(*per_round), _per_element((p_total,), size))
    ]


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
    if _SCHEMES[config.protocol].local or config.loss_eta == 1.0:
        return schedule
    f = config.loss_eta * config.loss_eta
    rows = tuple(
        RoundStats(k, t, p * f, u * f, fid) for k, t, p, u, fid in schedule.per_round
    )
    return replace(schedule, per_round=rows, p_total=schedule.p_total * f)
