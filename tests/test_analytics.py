"""Tests for the closed-form success probabilities and the sweep helper."""

import math

import mpmath
import numpy as np
import pytest

from noonecp import (
    default_alpha_grid,
    figure3_sweep,
    p_round_closed_form,
    p_total_closed_form,
)

BALANCED = 1 / math.sqrt(2)


_REFERENCE_CASES = [(float(a), 30) for a in np.linspace(0.01, 0.999, 200)] + [
    (math.sqrt(alpha_sq), 1000)
    for alpha_sq in (0.5, 0.5 + 1e-15, 0.5 - 1e-15, 0.499999, 0.8, 1e-4)
]


def test_round_one_closed_form():
    for alpha_sq in (0.1, 0.25, 0.5, 0.8, 0.9):
        x = alpha_sq
        assert p_round_closed_form(math.sqrt(x), 1) == pytest.approx(
            2 * x * (1 - x), abs=1e-14
        )


def test_round_two_closed_form():
    # x=0.8: P2 = 2 x^2 y^2 / (x^2 + y^2) = 0.0512/0.68
    assert p_round_closed_form(math.sqrt(0.8), 2) == pytest.approx(
        2 * 0.64 * 0.04 / 0.68, abs=1e-14
    )


def test_balanced_rounds_halve():
    for k in range(1, 11):
        assert p_round_closed_form(BALANCED, k) == pytest.approx(2.0**-k, abs=1e-13)


def test_deep_round_no_underflow():
    # the naive product underflows near the balanced point well before k=12
    p = p_round_closed_form(BALANCED, 12)
    assert p == pytest.approx(2.0**-12, abs=1e-13)
    p40 = p_round_closed_form(BALANCED, 40)
    assert p40 == pytest.approx(2.0**-40, rel=1e-9)


def test_round_symmetry_in_alpha():
    for alpha_sq in (0.1, 0.3, 0.45):
        for k in (1, 2, 3, 5):
            a = p_round_closed_form(math.sqrt(alpha_sq), k)
            b = p_round_closed_form(math.sqrt(1 - alpha_sq), k)
            assert a == pytest.approx(b, rel=1e-12)


def test_round_validation():
    with pytest.raises(ValueError):
        p_round_closed_form(0.0, 1)
    with pytest.raises(ValueError):
        p_round_closed_form(1.0, 1)
    with pytest.raises(ValueError):
        p_round_closed_form(0.6, 0)
    for k_max in (0, -3, 2.0, True):
        with pytest.raises(ValueError):
            p_total_closed_form(0.6, k_max)


def test_round_decreases_with_k():
    for alpha_sq in (0.1, 0.3, 0.5, 0.7, 0.9):
        probs = [p_round_closed_form(math.sqrt(alpha_sq), k) for k in range(1, 7)]
        for earlier, later in zip(probs, probs[1:]):
            assert later < earlier


def test_total_is_round_sum():
    for alpha_sq in (0.2, 0.5, 0.8):
        alpha = math.sqrt(alpha_sq)
        total = p_total_closed_form(alpha, 6)
        parts = sum(p_round_closed_form(alpha, k) for k in range(1, 7))
        assert total == pytest.approx(parts, abs=1e-14)


def test_total_balanced_ten_rounds():
    assert p_total_closed_form(BALANCED, 10) == pytest.approx(
        1.0 - 2.0**-10, abs=1e-12
    )


def test_total_single_round():
    assert p_total_closed_form(math.sqrt(0.8), 1) == pytest.approx(0.32, abs=1e-14)


def test_total_bounded_by_one():
    for alpha_sq in np.linspace(0.05, 0.95, 19):
        assert p_total_closed_form(math.sqrt(alpha_sq), 12) <= 1.0 + 1e-12
    alphas = [math.sqrt(a) for a in np.linspace(0.05, 0.95, 19)] + [BALANCED]
    for k_max in (12, 60, 1000, 5000):
        for alpha in alphas:
            assert p_total_closed_form(alpha, k_max) <= 1.0


def test_round_matches_mpmath_reference(reference_rounds):
    checked = 0
    for alpha, k_max in _REFERENCE_CASES:
        for k, ref in enumerate(reference_rounds(alpha, k_max), start=1):
            if ref < 1e-300:
                continue
            got = p_round_closed_form(alpha, k)
            assert abs(got - ref) <= 1e-12 * ref, (alpha, k, got, float(ref))
            checked += 1
    assert checked > 2000


def test_total_matches_mpmath_reference(reference_rounds):
    for alpha, k_max in _REFERENCE_CASES:
        total = mpmath.mpf(0)
        for k, ref in enumerate(reference_rounds(alpha, k_max), start=1):
            total += ref
            got = p_total_closed_form(alpha, k)
            assert abs(got - total) <= 1e-14 * total, (alpha, k, got, float(total))


def test_any_depth_is_accepted():
    # 2^k leaves the float range near k = 1024; the forms return the limits
    for k in (1024, 1025, 5000, 10**6):
        assert p_round_closed_form(math.sqrt(0.8), k) == 0.0
        assert p_total_closed_form(math.sqrt(0.8), k) == pytest.approx(0.4, rel=1e-15)
        assert p_total_closed_form(BALANCED, k) == pytest.approx(1.0, rel=1e-15)


def test_alpha_squaring_to_zero_gives_zero_yield():
    # alpha^2 underflows to 0.0; the true yields are far below the smallest double
    assert p_round_closed_form(1e-200, 1) == 0.0
    assert p_total_closed_form(1e-200, 10) == 0.0


def test_default_grid_shape():
    grid = default_alpha_grid()
    assert len(grid) == 199
    assert grid[0] == pytest.approx(0.01, abs=1e-15)
    assert grid[-1] == pytest.approx(0.999, abs=1e-15)
    assert np.all(np.diff(grid) > 0)


def test_sweep_matches_pointwise_totals():
    grid = np.array([0.3, BALANCED, 0.95])
    points = figure3_sweep(k_max=5, grid=grid)
    assert len(points) == 3
    for pt, alpha in zip(points, grid):
        assert pt.alpha == pytest.approx(alpha, abs=1e-15)
        assert pt.p_total == pytest.approx(p_total_closed_form(alpha, 5), abs=1e-14)
        assert len(pt.per_round_p) == 5
        assert sum(pt.per_round_p) == pytest.approx(pt.p_total, abs=1e-13)


def test_sweep_default_grid_peaks_at_balanced():
    points = figure3_sweep(k_max=10)
    totals = np.array([pt.p_total for pt in points])
    grid = default_alpha_grid()
    peak = int(np.argmax(totals))
    assert abs(grid[peak] - BALANCED) == pytest.approx(
        min(abs(grid - BALANCED)), abs=1e-15
    )
    # unimodal: rises to the peak, falls after it
    assert np.all(np.diff(totals[: peak + 1]) > 0)
    assert np.all(np.diff(totals[peak:]) < 0)


def test_sweep_cross_check_against_engine():
    grid = np.array([0.45, BALANCED, 0.9])
    points = figure3_sweep(k_max=3, grid=grid, cross_check=True)
    assert len(points) == 3


def test_sweep_cross_check_both_protocols():
    grid = np.array([0.6])
    for protocol in ("ecp1", "ecp2"):
        points = figure3_sweep(k_max=2, grid=grid, cross_check=True, protocol=protocol)
        assert points[0].p_total == pytest.approx(
            p_total_closed_form(0.6, 2), abs=1e-14
        )


def test_sweep_rejects_out_of_range_grid():
    with pytest.raises(ValueError):
        figure3_sweep(k_max=3, grid=np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        figure3_sweep(k_max=3, grid=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        figure3_sweep(k_max=0)
