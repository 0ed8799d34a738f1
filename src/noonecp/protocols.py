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
from typing import Iterator, NamedTuple, Sequence

from .fock import (
    NORM_TOLERANCE,
    _REAL_RULE,
    ModeId,
    PureState,
    _batch,
    _check_alpha,
    _check_count,
    _finite_real,
    _fold_fidelity,
    _off,
    _per_element,
    _tensor,
    basis_state,
    fidelity_up_to_global_phase,
    normalized,
)
from .optics import (
    PHASE_CLASS_TOLERANCE,
    BeamSplitterSpec,
    _detect,
    _partition,
    _split,
    _tag_phases,
    beam_splitter,
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


# A round runs on one fixed layout: the signal pair, then the scheme's
# auxiliary pair. Both schemes tag the N-photon mode and the pair's second
# mode (``_TAGS``), mix the pair in place onto the detectors (``_PORTS``) on
# the same balanced splitter (``_MIXER``: transmissivity and sign
# convention), keep the signal pair (``_KEPT``) and correct its N-photon
# mode, position 1.
_TAGS = (1, 3)
_PORTS = (2, 3)
_KEPT = (0, 1)
_MIXER = (0.5, "ecp1")


class _Scheme(NamedTuple):
    """Which labels one scheme's round uses, and whether its photon is local.

    The photon is ca|1,0> + cb|0,1> on ``aux_modes``, and the mixer feeds
    ``detectors``. ``local`` marks a photon that never crosses the channel;
    it also decides whether a round reports a VBS setting t, so one flag
    carries two facts.
    """

    aux_modes: tuple[ModeId, ModeId]
    detectors: tuple[ModeId, ModeId]
    local: bool


def _scheme(
    aux_modes: tuple[ModeId, ModeId], detectors: tuple[ModeId, ModeId], local: bool
) -> _Scheme:
    """A scheme's table entry, its labels checked once.

    The signal pair, ``aux_modes`` and ``detectors`` must be distinct
    labels, since the round's stages tag, mix and detect by position.
    """
    labels = SIGNAL_MODES + aux_modes + detectors
    if len(set(labels)) != len(labels):
        raise ValueError(f"scheme labels {labels!r} are not distinct")
    return _Scheme(aux_modes, detectors, local)


# ecp2 labels its local pair (c2, c1), so that its photon is ecp1's.
_SCHEMES = {
    "ecp1": _scheme(SHARED_AUX_MODES, ECP1_DETECTORS, False),
    "ecp2": _scheme(LOCAL_AUX_MODES[::-1], ECP2_DETECTORS, True),
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
    """The concentration circuit's settings, and optionally its input alpha.

    alpha is the real positive coefficient of the input's |N,0> component;
    its |0,N> coefficient is sqrt(1 - alpha^2). alpha is the input, not a
    setting: only ``run_schedule`` reads a config's alpha, and a grid takes
    its alphas apart, so a grid's config leaves it None. The other fields
    are checked either way. theta is the probe phase per auxiliary photon.
    Its sign and magnitude only need to keep the success and failure
    readings apart, so each of a round's four kets must
    read out, within PHASE_CLASS_TOLERANCE and modulo 2*pi, as its reading
    says: |N,0> with the auxiliary photon out of the tag mode reads 0 by
    construction; theta itself, on |N,0> with the photon in it, must not
    read as 0; N tags of -theta/N on |0,N> must not read as 0 either, and
    adding theta to them must give 0, both in doubles. Those doubles are
    the phases the round's tags give, so every tag phase of a valid config
    is finite, and the round does not check them again. loss_eta is the
    single-pass channel transmission: ``apply_loss_model`` and the
    ``compare-loss`` command's ecp1 column scale by it, through
    ``_loss_factor``.
    """

    protocol: str
    alpha: float | None = None
    n_photons: int = 1
    max_rounds: int = 10
    theta: float = 0.1
    loss_eta: float = 1.0

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.alpha is not None:
            _check_alpha(self.alpha)
        _check_count(self.n_photons, "n_photons")
        _check_count(self.max_rounds, "max_rounds")
        th = self.theta
        if not _finite_real(th):
            raise ValueError(f"theta must be {_REAL_RULE}, got {th!r}")
        if abs(math.remainder(th, math.tau)) < PHASE_CLASS_TOLERANCE:
            raise ValueError(
                "theta must stay at least the homodyne phase tolerance "
                f"{PHASE_CLASS_TOLERANCE} away from every multiple of 2*pi, got {th!r}"
            )
        # The probe phases run_round's two tags give |0,N>: ``success`` with the
        # aux photon out of the tag mode, which must read apart from 0, and
        # ``residual`` with it in the tag mode, which must read as 0.
        n = self.n_photons
        try:
            success = 0.0 + n * (-th / n)
        except OverflowError:  # an N beyond the float range has no tag -theta/N
            success = math.inf
        residual = success + th
        if abs(residual) >= PHASE_CLASS_TOLERANCE:
            raise ValueError(
                f"theta={th!r} does not split into {n} per-photon tags that cancel "
                f"it within {PHASE_CLASS_TOLERANCE} in double precision "
                f"(residual {residual!r})"
            )
        if abs(math.remainder(success, math.tau)) < PHASE_CLASS_TOLERANCE:
            raise ValueError(
                f"theta={th!r} split into {n} per-photon tags puts the success reading "
                f"at probe phase {success!r}, within {PHASE_CLASS_TOLERANCE} of the "
                "failure reading's 0 modulo 2*pi"
            )
        eta = self.loss_eta
        if not (_finite_real(eta) and 0.0 <= eta <= 1.0):
            raise ValueError(f"loss_eta must lie in [0, 1] as {_REAL_RULE}, got {eta!r}")


class RoundOutcome(NamedTuple):
    """Both heralded branches of one round.

    success_state is the corrected post-detection state for the |theta|
    probe reading (None when that reading's probability is zero, or
    underflows to zero after deep recycling). failure_state is
    the recycled squared-coefficient state for the 0 reading.
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
    alpha = _check_alpha(alpha)
    _check_count(round_k, "round index")
    signed, _, log_ratio = _imbalance(alpha)
    r_pow, _ = _ratio_power(log_ratio, round_k - 1)
    return (1.0 if signed > 0.0 else r_pow) / (1.0 + r_pow)


def _noon_pair(state: PureState, config: ProtocolConfig) -> PureState:
    """``state``, a ca|N,0> + cb|0,N> on a two-mode register with N the
    config's n_photons, as the engine's pair: the same kets, in the same
    order, as real floats.

    The coefficients must be exactly real and non-negative; one of them may
    be missing, as after deep recycling squares it to zero. The register
    must hold none of the scheme's auxiliary labels, which the probe stage
    joins without checking, nor, by contract, its detector labels.
    """
    n, terms = config.n_photons, state._terms
    if len(state._register) != 2 or not terms or not terms.keys() <= {(n, 0), (0, n)}:
        raise ValueError(f"expected a two-mode NOON state with N={n}, got {state!r}")
    pair = {k: a.real for k, a in terms.items() if a.imag == 0.0 and a.real >= 0.0}
    if len(pair) != len(terms):
        raise ValueError(f"NOON coefficients must be real and non-negative, got {state!r}")
    scheme = _SCHEMES[config.protocol]
    taken = scheme.aux_modes + scheme.detectors
    for mode in state._register:
        if mode in taken:
            raise ValueError(
                f"signal mode {mode!r} is one of {config.protocol}'s auxiliary or "
                f"detector labels {taken!r}"
            )
    return PureState._derived(state._register, pair)


def _interfere_and_detect(branch: PureState) -> PureState:
    """Normalize, balanced splitter on the auxiliary pair, detect, correct, fold.

    ``branch`` is a probe reading's branch from ``_probe_round``, not
    normalized, on the signal pair and then a scheme's auxiliary pair. This
    is the engine's one normalization site: the branch, then the detector
    group the round keeps. Nothing is read off a config: the pair is mixed
    in place and detected by position. Each ket of the normalized branch
    splits onto both detectors with weight +-1/sqrt(2), and one has
    |amplitude| >= 1/sqrt(2), so both fire; the first group (real
    non-negative amplitudes), normalized, is returned. A second-detector
    click calls for the sign correction on the N-photon mode, position 1,
    which the fold check (``_fold_fidelity``) folds into the signed overlap
    <kept|corrected second>, taken from the raw second group over its norm,
    so no corrected or normalized copy of that group is formed.
    """
    mixed = _split(normalized(branch), *_MIXER, *_PORTS, branch._register)
    (_, first), (_, other) = _detect(mixed, _PORTS, _KEPT)
    kept = normalized(first)
    fid = _fold_fidelity(kept, other, 1)
    if _off(fid, 1.0, NORM_TOLERANCE):
        raise ValueError(f"detector branches disagree after correction (fidelity {fid})")
    return kept


def _probe_round(state: PureState, config: ProtocolConfig) -> tuple:
    """``run_round`` up to the probe readout, with the failure branch detected.

    The input is the engine's own pair of real floats, from ``_noon_pair``,
    ``_rounds`` or the previous round, and is not checked again; it may be a
    batch (see ``_rounds``). Returns (t, success_prob, success_branch,
    failure_state, failure_prob): the VBS setting (None for ecp1), the
    |theta| reading's probability and its branch as the readout leaves it,
    neither normalized nor detected (None where the reading is absent in
    every element), and the recycled 0 reading's branch after
    ``_interfere_and_detect``, with its probability. Only ``run_round`` and
    ``run_schedule``, which form success states, detect the success branch.
    This is the stage that reads the config's scheme: its auxiliary labels,
    and ``local`` for t; the detection stage takes the branch alone. t =
    ca^2 is read off the joint state's |N,0>|1,0> amplitude, the product
    ``_tensor`` forms. ``_partition`` takes the joint state and phase map,
    not a ``TaggedState``, and sorts its classes; ``ProtocolConfig`` proves
    once that they are the 0 class and at most the |theta| class next, so
    the round reads them by position and refuses only another shape.
    """
    n = config.n_photons
    ca, cb = state._terms.get((n, 0), 0.0), state._terms.get((0, n), 0.0)
    scheme = _SCHEMES[config.protocol]
    theta = config.theta
    aux = PureState._derived(scheme.aux_modes, {(1, 0): ca, (0, 1): cb})
    joint = _tensor(state, aux)
    # one pass adds both tags' phases, the N-photon mode's first
    phases = _tag_phases(joint, {}, ((_TAGS[0], -theta / n), (_TAGS[1], theta)))

    (zero, failure_branch, failure_prob), *success = _partition(joint, phases)
    if zero >= PHASE_CLASS_TOLERANCE:
        raise ValueError("probe readout produced no recyclable branch")
    if len(success) > 1:
        raise ValueError(f"unexpected probe phase class among {[c[0] for c in success]!r}")
    # A reading whose probability underflowed to 0.0 in every run is absent.
    _, success_branch, success_prob = success[0] if success and success[0][2] else (0, None, 0.0)
    return (
        joint._terms.get((n, 0, 1, 0), 0.0) if scheme.local else None,
        success_prob,
        success_branch,
        _interfere_and_detect(failure_branch),
        failure_prob,
    )


def run_round(state: PureState, config: ProtocolConfig, round_k: int) -> RoundOutcome:
    """Execute one concentration round on a NOON-form input state.

    The input must be ca|N,0> + cb|0,N> on two signal modes, with N the
    config's n_photons and ca, cb exactly real and non-negative (one may be
    zero); anything else raises ValueError. It must also be normalized: the
    photon is built from the same coefficients, so the readout weighs a
    joint mass of norm^2 * norm^2 and refuses it (ValueError) when that is
    off 1 by more than NORM_TOLERANCE. Auxiliary and detector modes use
    the package-default labels, so the signal register must not hold them:
    a register that does is refused, naming the label, before any optics
    run. Both schemes build the auxiliary photon from the input's own
    coefficients, as ca|1,0> + cb|0,1> on the scheme's auxiliary pair:
    (a2, b2) for ecp1 and (c2, c1) for ecp2, whose variable splitter is set
    to t = ca^2. round_k is only validated and recorded.

    Returns both heralded branches, in real floats like every engine state
    (the input is checked only here); the failure branch always exists and
    carries the squared, renormalized coefficients of the input. Detection
    after the probe reading is deterministic in this idealized model, so
    the success probability equals the probability of the reading at
    |theta| modulo 2*pi.
    """
    _check_count(round_k, "round index")
    pair = _noon_pair(state, config)
    t, success_prob, success_branch, failure_state, failure_prob = _probe_round(pair, config)
    success_state = None
    if success_branch is not None:
        success_state = _interfere_and_detect(success_branch)
    return RoundOutcome(
        round_index=round_k,
        success_state=success_state,
        success_prob=success_prob,
        failure_state=failure_state,
        failure_prob=failure_prob,
        vbs_transmission_used=t,
    )


def run_schedule(config: ProtocolConfig) -> Schedule:
    """Run max_rounds rounds from config.alpha, recycling every failure branch.

    Conditional probabilities come straight from each round; unconditional
    ones are weighted by the survival product of earlier failures. The
    schedule is lossless; ``apply_loss_model`` folds channel transmission
    in afterwards. The input is config.alpha, so a config without one is
    refused (ValueError); a grid runs one schedule per alpha. This is the
    one consumer of ``_rounds`` that detects the success branch, to take the
    fidelity column, so the detector-fold check runs on it here; a round
    whose success reading is absent (p = 0) heralds nothing and its
    fidelity is NaN.
    """
    target = maximally_entangled_noon(config.n_photons)
    per_round = []
    p_total = 0.0
    for k, t, p, u, success_branch in _rounds(config, [config.alpha]):
        fidelity = math.nan
        if success_branch is not None:
            success_state = _interfere_and_detect(success_branch)
            fidelity = fidelity_up_to_global_phase(success_state, target)
        per_round.append(RoundStats(k, t, p, u, fidelity))
        p_total += u
    return Schedule(
        protocol=config.protocol,
        alpha=config.alpha,
        n_photons=config.n_photons,
        per_round=tuple(per_round),
        p_total=p_total,
    )


def _grid_totals(config: ProtocolConfig, alphas: Sequence[float]) -> list[float]:
    """Each alpha's ``run_schedule(replace(config, alpha=alpha)).p_total``,
    lossless whatever the config's loss_eta.

    Folds only the unconditional column as the rounds stream by; no
    success branch is normalized, no success state, schedule or fidelity
    is formed, and no round is kept. A caller that prints a lossy total
    scales it by ``_loss_factor``, as ``apply_loss_model`` does.
    """
    p_total = 0.0
    for *_, u, _success_branch in _rounds(config, alphas):
        p_total += u
    return _per_element(p_total, len(alphas))


def _rounds(config: ProtocolConfig, alphas: Sequence[float]) -> Iterator[tuple]:
    """The engine's recycling loop over ``alphas``, one round at a time.

    Yields each round's (k, t, p, u, success_branch): the VBS setting, the
    success probability, its share after the earlier rounds' failures, and
    the success reading's branch as ``_probe_round`` leaves it: its norm^2
    is p, and it is neither normalized nor run through the final splitter
    and detection (None where every element's reading is absent). Each
    round runs ``_probe_round``, which detects only the recycled failure
    branch; a consumer that prints a fidelity passes the success branch to
    ``_interfere_and_detect``. Past rounds are not kept: only the recycled
    state carries over. Each alpha is checked by ``_check_alpha``.

    The alphas run as one batch of Python floats (a ``numpy.float64`` as its
    float): each number holds one value per alpha (a plain float for one
    alpha). Where p is 0 in some elements, the success branch still holds
    them, with a zero or underflowed norm, so a batch's success branch is
    never detected: only ``run_schedule`` detects one, and it runs a single
    alpha.
    """
    alphas = [_check_alpha(alpha) for alpha in alphas]
    if not alphas:
        return
    n = config.n_photons
    state = PureState._derived(
        SIGNAL_MODES,
        {(n, 0): _batch(alphas), (0, n): _batch([_beta(alpha) for alpha in alphas])},
    )
    survival = 1.0
    for k in range(1, config.max_rounds + 1):
        t, p, success_branch, state, failure_prob = _probe_round(state, config)
        yield k, t, p, p * survival, success_branch
        survival *= failure_prob


def _loss_factor(config: ProtocolConfig) -> float:
    """The factor ``apply_loss_model`` scales success probabilities by.

    loss_eta^2 for the shared scheme, whose photon crosses the channel
    twice; 1.0, no change, for the local scheme and for loss_eta = 1.
    """
    return 1.0 if _SCHEMES[config.protocol].local else config.loss_eta * config.loss_eta


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
    f = _loss_factor(config)
    if f == 1.0:
        return schedule
    rows = tuple(
        RoundStats(k, t, p * f, u * f, fid) for k, t, p, u, fid in schedule.per_round
    )
    return replace(schedule, per_round=rows, p_total=schedule.p_total * f)
