"""Tests for the closed-form success probabilities and the sweep helper."""

import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from noonecp import (
    analytics,
    default_alpha_grid,
    protocols,
    figure3_sweep,
    p_round_closed_form,
    p_total_closed_form,
)
from noonecp.fock import _Batch

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


def _bits(values):
    return [v.hex() for v in values]


def test_one_pass_yields_are_the_per_round_yields_bit_for_bit():
    extra = [(math.sqrt(0.8), 2000), (BALANCED, 2000), (1e-200, 60)]
    for alpha, k_max in _REFERENCE_CASES + extra:
        one_pass = analytics._round_yields(alpha, 1, k_max)
        per_round = [p_round_closed_form(alpha, k) for k in range(1, k_max + 1)]
        assert _bits(one_pass) == _bits(per_round), (alpha, k_max)


@pytest.mark.parametrize("alpha_sq", [0.5, 0.5 + 5e-15, 0.8, 1e-4, 1 - 1e-8])
def test_a_pass_may_start_at_any_round(alpha_sq):
    alpha = math.sqrt(alpha_sq)
    deep = analytics._round_yields(alpha, 1, 1025)
    for k in (1, 1024, 1025):
        assert _bits(analytics._round_yields(alpha, k, k)) == _bits(deep[k - 1 : k])
    k = 10**6
    window = analytics._round_yields(alpha, k - 2, k)
    assert _bits(analytics._round_yields(alpha, k, k)) == _bits(window[-1:])


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
        min(abs(a - BALANCED) for a in grid), abs=1e-15
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


def _skew_rounds(monkeypatch, skew):
    """Make the engine's rounds report skew(k, u) for point 1's u of round k."""
    engine = protocols._rounds

    def disagreeing(config, alphas):
        for k, t, p, u, success_branch in engine(config, alphas):
            u = list(u)
            u[1] = skew(k, u[1])
            yield k, t, p, _Batch(u), success_branch

    monkeypatch.setattr(analytics, "_rounds", disagreeing)


def _skew_round(k, u):
    return u + 1e-9 if k == 2 else u


def _skew_total(k, u):
    # within the tolerance in every round, beyond it once three rounds add up
    return u + 0.6 * analytics.ORACLE_MATCH_TOLERANCE


@pytest.mark.parametrize(
    "skew, message", [(_skew_round, "round 2 at alpha"), (_skew_total, "p_total at alpha")]
)
def test_sweep_cross_check_raises_when_the_engine_disagrees(monkeypatch, skew, message):
    _skew_rounds(monkeypatch, skew)
    with pytest.raises(ValueError, match=message):
        figure3_sweep(k_max=3, grid=[0.45, BALANCED, 0.9], cross_check=True)


SEVEN_POINTS = [0.15, 0.3, 0.45, BALANCED, 0.75, 0.9, 0.95]


def test_sweep_cross_check_stops_at_the_first_round_that_disagrees(monkeypatch):
    engine_round = protocols._probe_round
    rounds_run = []

    def counting(state, config):
        rounds_run.append(len(rounds_run) + 1)
        return engine_round(state, config)

    monkeypatch.setattr(protocols, "_probe_round", counting)
    _skew_rounds(monkeypatch, _skew_round)
    with pytest.raises(ValueError, match=re.escape(f"round 2 at alpha={SEVEN_POINTS[1]}:")):
        figure3_sweep(k_max=10, grid=SEVEN_POINTS, cross_check=True)
    assert rounds_run == [1, 2]


def _spy_on_passes(monkeypatch):
    """Record the number of alphas of each engine pass."""
    sizes = []
    engine = protocols._rounds

    def spy(config, alphas):
        sizes.append(len(alphas))
        return engine(config, alphas)

    monkeypatch.setattr(analytics, "_rounds", spy)
    return sizes


@pytest.mark.parametrize("grid", [None, SEVEN_POINTS], ids=["default", "seven-points"])
def test_sweep_cross_check_returns_the_closed_form_points(grid):
    assert figure3_sweep(grid=grid, cross_check=True) == figure3_sweep(grid=grid)


def test_deep_sweep_cross_check_runs_the_whole_grid_in_one_pass(monkeypatch):
    sizes = _spy_on_passes(monkeypatch)
    grid = [0.1 * i for i in range(1, 10)]
    assert len(figure3_sweep(k_max=1000, grid=grid, cross_check=True)) == 9
    assert sizes == [9]


def test_sweep_rejects_out_of_range_grid():
    with pytest.raises(ValueError):
        figure3_sweep(k_max=3, grid=np.array([0.0, 0.5]))
    with pytest.raises(ValueError):
        figure3_sweep(k_max=3, grid=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        figure3_sweep(k_max=0)


BAD_SETTINGS = [
    ({"protocol": "bogus"}, "protocol must be one of"),
    ({"n_photons": 0}, "n_photons must be a positive integer"),
    ({"n_photons": True}, "n_photons must be a positive integer"),
]


@pytest.mark.parametrize("cross_check", [False, True])
@pytest.mark.parametrize("setting, message", BAD_SETTINGS)
def test_sweep_refuses_bad_settings_whether_or_not_it_cross_checks(setting, message, cross_check):
    with pytest.raises(ValueError, match=message):
        figure3_sweep(k_max=2, grid=[0.5], cross_check=cross_check, **setting)


@pytest.mark.parametrize("setting, message", BAD_SETTINGS)
def test_sweep_refuses_bad_settings_on_an_empty_grid(setting, message):
    with pytest.raises(ValueError, match=message):
        figure3_sweep(k_max=2, grid=[], **setting)


def test_sweep_of_an_empty_grid_with_valid_settings_is_empty():
    assert figure3_sweep(k_max=2, grid=[], cross_check=True, protocol="ecp1") == []


@pytest.mark.parametrize(
    "entry",
    ["0.5", b"0.5", True, np.bool_(True), 0.5 + 0j, None],
    ids=["str", "bytes", "bool", "numpy-bool", "complex", "None"],
)
def test_sweep_rejects_grid_entries_that_are_not_real_numbers(entry):
    with pytest.raises(ValueError, match="real numbers"):
        figure3_sweep(k_max=3, grid=[0.5, entry])


@pytest.mark.parametrize(
    "entry", [Fraction(3, 5), np.float32(0.6)], ids=["Fraction", "numpy-float32"]
)
def test_sweep_refuses_the_alphas_every_other_entry_point_refuses(entry):
    # ProtocolConfig, run_schedule and p_total_closed_form refuse both: an
    # alpha is an int or a float, and numpy.float64 is a float subclass
    with pytest.raises(ValueError, match="real numbers"):
        figure3_sweep(k_max=2, grid=[entry], cross_check=True)
    with pytest.raises(ValueError, match="alpha"):
        p_total_closed_form(entry, 2)
    assert figure3_sweep(k_max=2, grid=[np.float64(0.6)]) == figure3_sweep(k_max=2, grid=[0.6])


@pytest.mark.parametrize("alpha_sq", [1e-4, 0.36, 0.5 + 1e-15, 0.9999])
def test_a_numpy_alpha_gives_the_closed_forms_of_its_python_float(alpha_sq):
    # each closed form runs on the float the alpha check returns, so a
    # numpy.float64 gives a Python float with the bits of the float input
    alpha = math.sqrt(alpha_sq)
    for closed_form, depth in [
        (p_total_closed_form, 7),
        (p_round_closed_form, 3),
        (protocols.vbs_transmission, 3),
    ]:
        got, want = closed_form(np.float64(alpha), depth), closed_form(alpha, depth)
        assert type(got) is float and got.hex() == want.hex(), closed_form.__name__
    # a sweep point echoes its alpha as given and holds Python floats
    [point] = figure3_sweep(k_max=7, grid=np.array([alpha]))
    assert type(point.alpha) is np.float64
    assert all(type(p) is float for p in (point.p_total, *point.per_round_p))


# p_total(K) = 2 min(x, y) - 2 |x - y| R / (1 - R) climbs to the optimal
# single-copy yield 2 min(x, y) (Vidal, PRL 83, 1046 (1999); Lo and Popescu, PRA
# 63, 022301 (2001)) and never passes it. Both sides are compared exactly, with x
# = alpha^2 taken exactly, to 4 ulps relative.
_BOUND_ULPS = Fraction(4 * np.finfo(float).eps)
_CEILING_ALPHA_SQ = (0.01, 0.1, 0.6, 0.8, 0.97, 0.99, 0.5 + 1e-6, 0.5 + 5.2e-15, 0.5)


def _ceiling(alpha):
    x = Fraction(alpha) ** 2
    return 2 * min(x, 1 - x)


@pytest.mark.parametrize("alpha_sq", _CEILING_ALPHA_SQ)
def test_the_total_never_passes_the_optimal_single_copy_yield(alpha_sq):
    alpha = math.sqrt(alpha_sq)
    ceiling = _ceiling(alpha)
    for k_max in [*range(1, 100), 1000, 10**6]:
        total = Fraction(p_total_closed_form(alpha, k_max))
        assert total <= ceiling * (1 + _BOUND_ULPS), k_max
    # at K = 10^6 the total is its 2 min(x, y) term alone
    assert abs(total - ceiling) <= ceiling * _BOUND_ULPS


@pytest.mark.parametrize("alpha_sq", _CEILING_ALPHA_SQ)
def test_the_rounds_add_up_to_the_optimal_single_copy_yield(alpha_sq):
    # p_total(infinity) = sum of P_k = 2 min(x, y): the iterated schemes are
    # asymptotically optimal. By round 80, R has underflowed at every point, the
    # double nearest balance too, since no double squares to exactly 1/2. Each
    # P_k's error grows with L = ln(max/min) through exp (15 ulps near alpha^2 =
    # 3e-11), so the points keep L <= ln 99.
    alpha = math.sqrt(alpha_sq)
    ceiling = _ceiling(alpha)
    total = Fraction(math.fsum(analytics._round_yields(alpha, 1, 80)))
    assert abs(total - ceiling) <= ceiling * _BOUND_ULPS
