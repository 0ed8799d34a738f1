"""Closed-form success probabilities for the iterated concentration schemes.

With x = alpha^2, y = 1 - x and r = min(x, y) / max(x, y), round k succeeds
unconditionally with

    P_k = 2 (x y)^(2^(k-1)) / prod_{j=2..k} (x^(2^(j-1)) + y^(2^(j-1)))
        = 2 |x - y| r^(2^(k-1)) / (1 - r^(2^k)),

because the product telescopes: prod_{i=1..k-1} (1 + r^(2^i)) =
(1 - r^(2^k)) / (1 - r^2). Summing the rounds telescopes too:

    p_total(K) = 2 min(x, y) - 2 |x - y| R / (1 - R),   R = r^(2^K).

At x = y these reduce to 2^-k and 1 - 2^-K. Both forms cost O(1) per call
and accept any k: r^(2^k) is exp(-2^k L) with L = -ln r, which is exactly
0 once it underflows. These forms are the oracle the simulation engine is
checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .protocols import _check_alpha, _check_count

# Simulation and closed form must agree at least this tightly.
ORACLE_MATCH_TOLERANCE = 1e-12

# Veltkamp splitting constant 2^27 + 1: splits a double into two halves
# whose products are exact.
_SPLITTER = 134217729.0


@dataclass(frozen=True)
class SweepPoint:
    alpha: float
    p_total: float
    per_round_p: tuple[float, ...]


def _imbalance(alpha: float) -> tuple[float, float, float]:
    """(|x - y|, min(x, y), L = ln(max/min)) for x = alpha^2, y = 1 - x.

    x is carried exactly as hi + lo (Dekker's two-product), so |x - y| and
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
    diff = abs(signed)
    if diff < 0.5:
        # atanh is well conditioned here; ln(max/min) = 2 atanh|x - y|.
        return diff, small, 2.0 * math.atanh(diff)
    if small == 0.0:
        return diff, small, math.inf
    # Lopsided: atanh is ill-conditioned near 1, the logarithms are not.
    return diff, small, math.log1p(-small) - math.log(small)


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


def p_round_closed_form(alpha: float, round_k: int) -> float:
    """Unconditional success probability of round K for initial alpha."""
    _check_alpha(alpha)
    _check_count(round_k, "round index")
    diff, _, log_ratio = _imbalance(alpha)
    r_half, _ = _ratio_power(log_ratio, round_k - 1)
    _, one_minus_r = _ratio_power(log_ratio, round_k)
    return 2.0 * diff * r_half / one_minus_r


def p_total_closed_form(alpha: float, k_max: int) -> float:
    """Total success probability of a k_max-round schedule."""
    _check_alpha(alpha)
    _check_count(k_max, "k_max")
    diff, small, log_ratio = _imbalance(alpha)
    r_pow, one_minus_r = _ratio_power(log_ratio, k_max)
    return 2.0 * small - 2.0 * diff * r_pow / one_minus_r


def default_alpha_grid() -> np.ndarray:
    """199 uniform alpha points spanning [0.01, 0.999]."""
    return np.linspace(0.01, 0.999, 199)


def figure3_sweep(
    k_max: int = 10,
    grid: Sequence[float] | Iterable[float] | None = None,
    cross_check: bool = False,
    n_photons: int = 1,
    protocol: str = "ecp2",
) -> list[SweepPoint]:
    """Closed-form total-success curve over an alpha grid.

    With ``cross_check`` set, every point is also simulated with
    ``run_schedule`` and a disagreement beyond ORACLE_MATCH_TOLERANCE on
    any unconditional round probability or on the total raises ValueError.
    """
    _check_count(k_max, "k_max")
    alphas = default_alpha_grid() if grid is None else np.asarray(list(grid), dtype=float)
    points: list[SweepPoint] = []
    for a in alphas:
        a = float(a)
        if not (0.0 < a < 1.0):
            raise ValueError(f"grid values must lie strictly inside (0, 1), got {a!r}")
        per_round = tuple(p_round_closed_form(a, k) for k in range(1, k_max + 1))
        point = SweepPoint(alpha=a, p_total=sum(per_round), per_round_p=per_round)
        if cross_check:
            _check_against_engine(point, n_photons, protocol)
        points.append(point)
    return points


def _check_against_engine(point: SweepPoint, n_photons: int, protocol: str) -> None:
    from .protocols import ProtocolConfig, run_schedule

    config = ProtocolConfig(
        protocol=protocol,
        alpha=point.alpha,
        n_photons=n_photons,
        max_rounds=len(point.per_round_p),
    )
    schedule = run_schedule(config)
    for row, expected in zip(schedule.per_round, point.per_round_p):
        if abs(row.p_unconditional - expected) > ORACLE_MATCH_TOLERANCE:
            raise ValueError(
                f"round {row.round_index} at alpha={point.alpha}: simulated "
                f"{row.p_unconditional} vs closed form {expected}"
            )
    if abs(schedule.p_total - point.p_total) > ORACLE_MATCH_TOLERANCE:
        raise ValueError(
            f"p_total at alpha={point.alpha}: simulated {schedule.p_total} "
            f"vs closed form {point.p_total}"
        )
