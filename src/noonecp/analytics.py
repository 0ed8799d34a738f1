"""Closed-form success probabilities for the iterated concentration schemes.

With x = alpha^2, y = 1 - x and r = min(x, y) / max(x, y), round k succeeds
unconditionally with

    P_k = 2 (x y)^(2^(k-1)) / prod_{j=2..k} (x^(2^(j-1)) + y^(2^(j-1)))
        = 2 |x - y| r^(2^(k-1)) / (1 - r^(2^k)),

because the product telescopes: prod_{i=1..k-1} (1 + r^(2^i)) =
(1 - r^(2^k)) / (1 - r^2). Summing the rounds telescopes too:

    p_total(K) = 2 min(x, y) - 2 |x - y| R / (1 - R),   R = r^(2^K).

At x = y these reduce to 2^-k and 1 - 2^-K. p_total rises to 2 min(x, y),
the most any LOCC protocol distills from one copy (Vidal, PRL 83, 1046
(1999); Lo and Popescu, PRA 63, 022301 (2001)), and each round keeps that
ceiling: p + f 2 min(x', y') = 2 min(x, y), with p and f its success and
failure probabilities and (x', y') its recycled squares. Both forms cost
O(1) per call and accept any k: r^(2^k) is exp(-2^k L) with L = -ln r,
which is exactly 0 once it underflows. ``run`` and ``figure3_sweep`` take
P_1..P_K in one pass, where each round's r^(2^k) is the next round's
r^(2^(k-1)). These forms are the oracle the engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .fock import _REAL_RULE, _check_alpha, _check_count, _finite_real, _per_element
from .protocols import ProtocolConfig, _imbalance, _ratio_power, _rounds

__all__ = [
    "ORACLE_MATCH_TOLERANCE",
    "SweepPoint",
    "p_round_closed_form",
    "p_total_closed_form",
    "default_alpha_grid",
    "figure3_sweep",
]

# Simulation and closed form must agree at least this tightly.
ORACLE_MATCH_TOLERANCE = 1e-12


@dataclass(frozen=True)
class SweepPoint:
    alpha: float
    p_total: float
    per_round_p: tuple[float, ...]


def p_round_closed_form(alpha: float, round_k: int) -> float:
    """Unconditional success probability of round K for initial alpha."""
    return _round_yields(alpha, round_k, round_k)[0]


def _round_yields(alpha: float, first: int, last: int) -> list[float]:
    """P_first..P_last for initial alpha, validating and splitting alpha once.

    Round k's R = r^(2^k) is round k + 1's r_half = r^(2^(k-1)), so each
    power is formed once.
    """
    alpha = _check_alpha(alpha)
    _check_count(first, "round index")
    signed, _, log_ratio = _imbalance(alpha)
    r_half, _ = _ratio_power(log_ratio, first - 1)
    yields = []
    for k in range(first, last + 1):
        r_pow, one_minus_r = _ratio_power(log_ratio, k)
        yields.append(2.0 * abs(signed) * r_half / one_minus_r)
        r_half = r_pow
    return yields


def p_total_closed_form(alpha: float, k_max: int) -> float:
    """Total success probability of a k_max-round schedule."""
    alpha = _check_alpha(alpha)
    _check_count(k_max, "k_max")
    signed, small, log_ratio = _imbalance(alpha)
    r_pow, one_minus_r = _ratio_power(log_ratio, k_max)
    return 2.0 * small - 2.0 * abs(signed) * r_pow / one_minus_r


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``numpy.linspace(start, stop, num)`` as a list of floats, bit for bit."""
    if num < 2:
        return [start] * num
    div, delta = num - 1, stop - start
    step = delta / div
    # numpy scales by i / div instead where the step underflows to 0
    return [i * step + start if step else i / div * delta + start for i in range(div)] + [stop]


def default_alpha_grid() -> list[float]:
    """199 uniform alpha points spanning [0.01, 0.999], as numpy.linspace spaces them."""
    return _linspace(0.01, 0.999, 199)


def figure3_sweep(
    k_max: int = 10,
    grid: Iterable[float] | None = None,
    cross_check: bool = False,
    n_photons: int = 1,
    protocol: str = "ecp2",
) -> list[SweepPoint]:
    """Closed-form total-success curve over an alpha grid.

    The settings are checked as a ``ProtocolConfig`` even for an empty
    grid. Each grid entry must be an int or float, as every alpha the
    package takes, and its range is checked by the closed form. With
    ``cross_check`` set, the whole grid is also simulated in one engine pass
    whose rounds are checked as they stream: each round's unconditional
    probabilities, then, after the last round, the totals. A disagreement
    beyond ORACLE_MATCH_TOLERANCE raises ValueError at the first round that
    has one (no later round runs), and within that round at the first point
    in grid order.
    """
    _check_count(k_max, "k_max")
    settings = ProtocolConfig(protocol, n_photons=n_photons, max_rounds=k_max)
    points: list[SweepPoint] = []
    for a in default_alpha_grid() if grid is None else grid:
        if not _finite_real(a):
            raise ValueError(
                f"grid entries must be real numbers, each alpha {_REAL_RULE}, got {a!r}"
            )
        per_round = tuple(_round_yields(a, 1, k_max))
        points.append(SweepPoint(a, p_total_closed_form(a, k_max), per_round))
    if cross_check:
        size = len(points)
        p_total = 0.0
        for k, *_, u, _success_branch in _rounds(settings, [point.alpha for point in points]):
            for point, got in zip(points, _per_element(u, size)):
                _check_against_engine(f"round {k}", point.alpha, got, point.per_round_p[k - 1])
            p_total += u
        for point, got in zip(points, _per_element(p_total, size)):
            _check_against_engine("p_total", point.alpha, got, point.p_total)
    return points


def _check_against_engine(what: str, alpha: float, simulated: float, expected: float) -> None:
    if abs(simulated - expected) > ORACLE_MATCH_TOLERANCE:
        raise ValueError(
            f"{what} at alpha={alpha}: simulated {simulated} vs closed form {expected}"
        )
