"""Shared fixtures: the high-precision reference the engine and closed forms meet."""

import mpmath
import pytest


def _reference_rounds(alpha, k_max):
    """P_1..P_k_max at 60 digits by recycling the failure branch round by round.

    Round k succeeds with 2 x_k y_k on the surviving branch; failure keeps
    probability x_k^2 + y_k^2 and squares the renormalized coefficients.
    Independent of the telescoped forms and of the engine under test.
    """
    with mpmath.workdps(60):
        x = mpmath.mpf(alpha) ** 2
        y = 1 - x
        survival = mpmath.mpf(1)
        rounds = []
        for _ in range(k_max):
            rounds.append(2 * x * y * survival)
            fail = x * x + y * y
            survival *= fail
            x, y = x * x / fail, y * y / fail
        return rounds


@pytest.fixture
def reference_rounds():
    """The unconditional per-round yields for a float alpha, as mpmath numbers."""
    return _reference_rounds
