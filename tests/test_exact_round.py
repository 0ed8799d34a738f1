"""The paper's round and its yield formulas, derived exactly from the circuit.

``dense_round``'s description of a round (``basis``, ``generator_terms``,
``tag_phase`` and ``correction_sign``) is evaluated here over sympy's exact
numbers, sharing only mode labels with the package:

* The mixer is exp(phi G) for its generator G at t = sin(phi)^2 = 1/2, taken
  exactly on each signal occupation's block a branch holds, so its entries
  hold sqrt(2).
* Each ket's probe phase is a linear form c theta in a symbol theta. For a
  generic theta the readout reads |c theta| modulo 2 pi as 0 only where c = 0
  and as |theta| only where |c| = 1, so the readings are projectors on those
  kets: 0 recycles and |theta| heralds.
* Detection is the projector on one photon in one detector, and the second
  click's correction is ``correction_sign``.

The input is the normalized ca|N,0> + cb|0,N> with x = ca^2 = 1/(1 + r) and
y = cb^2 = r/(1 + r) for a positive symbol r = y/x, so r < 1, r > 1 and
r = 1 are x > y, x < y and balance. For both schemes and N in {1, 2, 3} one
round gives, exactly, p = 2xy, f = x^2 + y^2, a heralded state with
fidelity 1 on the balanced target, a recycled state (x, y)/sqrt(f), a
detector-fold fidelity of 1 on both readings, and ecp2's t = x. So the next
round's squares are (x^2, y^2)/f, and its ratio is r^2.

On that map the closed forms of ``analytics`` and ``vbs_transmission`` are
proved for every round by induction, with m = 2^(k-1) a positive symbol:
each form's base case is round 1's derived value, and its value at 2m from
r is the one-round map applied to its value at m from r^2. The forms are
written as the code takes them, on r = min/max; their x < y branch equals
their x > y branch as a function of r, which covers x < y, and their limit
r -> 1 is the derived fixed point x = y = 1/2. Evaluating the package's
closed forms at a few doubles against the map iterated on exact rationals
ties the proof to the code.
"""

import math
from fractions import Fraction
from functools import cache

import pytest
import sympy as sp
from dense_round import (
    CA,
    MIXER_T,
    PHOTON_MODES,
    basis,
    correction_sign,
    generator_terms,
    tag_phase,
)

from noonecp import p_round_closed_form, p_total_closed_form, vbs_transmission
from noonecp.protocols import LOCAL_AUX_MODES, SHARED_AUX_MODES

R, M = sp.symbols("r m", positive=True)
THETA = sp.Symbol("theta", real=True)
X, Y = 1 / (1 + R), R / (1 + R)
_PHI = sp.asin(sp.sqrt(sp.Rational(MIXER_T)))
_CLICKS = ((1, 0), (0, 1))
_CASES = [(protocol, n) for protocol in ("ecp1", "ecp2") for n in (1, 2, 3)]


def _canonical(expr):
    """``expr`` as one reduced fraction: exactly 0 where it is identically 0."""
    return sp.cancel(sp.expand(expr))


def _zero(expr) -> bool:
    return _canonical(expr) == 0


def _photon(protocol: str, ca, cb):
    """The ca mode's and the cb mode's amplitude of the scheme's documented
    photon for the input ca|N,0> + cb|0,N>, and the t it reports (or None)."""
    if protocol == "ecp1":
        # prepare_aux_ecp1: ca|1,0> + cb|0,1> on (a2, b2)
        t, amps = None, dict(zip(SHARED_AUX_MODES, (ca, cb)))
    else:
        # prepare_aux_ecp2 at t = ca^2: sqrt(1 - t)|1,0> + sqrt(t)|0,1> on (c1, c2)
        t = ca**2
        amps = dict(zip(LOCAL_AUX_MODES, (sp.sqrt(sp.factor(1 - t)), sp.sqrt(t))))
    return amps[PHOTON_MODES[protocol][0]], amps[PHOTON_MODES[protocol][1]], t


@cache
def _block_exp(generator: sp.ImmutableMatrix) -> sp.Matrix:
    return (_PHI * generator).exp()


def _mix(kets, branch: dict) -> dict:
    """exp(phi G) applied to ``branch``, exponentiated on each block it holds."""
    g: dict = {}
    for row, column, sign, radicand in generator_terms(kets):
        g[row, column] = g.get((row, column), 0) + sign * sp.sqrt(radicand)
    out = {}
    for block in {ket[:2] for ket in branch}:
        idx = [i for i, ket in enumerate(kets) if ket[:2] == block]
        gen = sp.ImmutableMatrix(len(idx), len(idx), lambda i, j: g.get((idx[i], idx[j]), 0))
        column = sp.Matrix([branch.get(kets[i], 0) for i in idx])
        out.update(zip([kets[i] for i in idx], _block_exp(gen) * column))
    return out


def _norm2(state: dict):
    return _canonical(sum(amp**2 for amp in state.values()))


def _overlap(a: dict, b: dict):
    return _canonical(sum(amp * b.get(ket, 0) for ket, amp in a.items()))


def _herald(kets, branch: dict):
    """(probability, heralded state, detector-fold fidelity) of one reading:
    the branch normalized, mixed and detected, the first group normalized,
    and its fidelity with the second group after the correction."""
    mass = _norm2(branch)
    mixed = _mix(kets, {ket: amp / sp.sqrt(mass) for ket, amp in branch.items()})
    first, second = ({k[:CA]: a for k, a in mixed.items() if k[CA:] == c} for c in _CLICKS)
    scale = sp.sqrt(_norm2(first))
    state = {ket: _canonical(amp / scale) for ket, amp in first.items()}
    corrected = {ket: correction_sign(ket) * amp for ket, amp in second.items()}
    return mass, state, _canonical(_overlap(state, corrected) ** 2 / _norm2(corrected))


@cache
def _derive(protocol: str, n: int):
    """(p, f, t, success, recycled, fold fidelities) of one round from (x, y)."""
    kets = basis(n)
    ca, cb = sp.sqrt(X), sp.sqrt(Y)
    photon_ca, photon_cb, t = _photon(protocol, ca, cb)
    readings: dict = {0: {}, 1: {}}
    for (a, b), amp in (((n, 0), ca), ((0, n), cb)):
        for ket, aux in (((a, b, 1, 0), photon_ca), ((a, b, 0, 1), photon_cb)):
            phase = sp.sympify(tag_phase(ket, n, THETA))
            c = phase.coeff(THETA)
            assert sp.expand(phase - c * THETA) == 0 and abs(c) in readings, (ket, phase)
            readings[abs(c)][ket] = amp * aux
    f, recycled, fold_f = _herald(kets, readings[0])
    p, success, fold_p = _herald(kets, readings[1])
    return p, f, t, success, recycled, (fold_p, fold_f)


def _map():
    """The derived one-round map of ecp2 at N = 1: p, f, the recycled squares
    (x', y') and t, each a function of r (``test_one_round_from_the_circuit``
    shows that every scheme and N give this map)."""
    p, f, t, _, recycled, _ = _derive("ecp2", 1)
    return p, f, recycled[(1, 0)] ** 2, recycled[(0, 1)] ** 2, t


@pytest.mark.parametrize("protocol, n", _CASES)
def test_one_round_from_the_circuit(protocol, n):
    p, f, t, success, recycled, folds = _derive(protocol, n)
    assert _zero(p - 2 * X * Y)
    assert _zero(f - (X**2 + Y**2))
    target = {(n, 0): 1 / sp.sqrt(2), (0, n): 1 / sp.sqrt(2)}
    assert success.keys() <= target.keys() and _zero(_overlap(target, success) ** 2 - 1)
    want = {(n, 0): X / sp.sqrt(f), (0, n): Y / sp.sqrt(f)}
    assert recycled.keys() == want.keys()
    assert all(_zero(recycled[ket] - want[ket]) for ket in want)
    assert folds == (1, 1)
    assert t is None if protocol == "ecp1" else _zero(t - X)


def _round_form(big, small, m):
    rho = small / big
    return 2 * (big - small) * rho**m / (1 - rho ** (2 * m))


def _total_form(big, small, m):
    rho = small / big
    return 2 * small - 2 * (big - small) * rho ** (2 * m) / (1 - rho ** (2 * m))


def _vbs_form(big, small, m, x_is_big):
    rho_m = (small / big) ** m
    return (1 if x_is_big else rho_m) / (1 + rho_m)


def _conditional_form(big, small, m):
    rho_m = (small / big) ** m
    return 2 * rho_m / (1 + rho_m) ** 2


# Each form as analytics' docstring and vbs_transmission write it, at
# m = 2^(k-1) for round k (or for a schedule of K = k rounds), on either
# branch of min/max: (x > y, x < y).
_FORMS = {
    "P_k": lambda m: (_round_form(X, Y, m), _round_form(Y, X, m)),
    "p_total": lambda m: (_total_form(X, Y, m), _total_form(Y, X, m)),
    "vbs_transmission": lambda m: (_vbs_form(X, Y, m, True), _vbs_form(Y, X, m, False)),
    "p_conditional": lambda m: (_conditional_form(X, Y, m), _conditional_form(Y, X, m)),
}


@pytest.mark.parametrize("name", _FORMS)
def test_each_closed_form_holds_for_every_round_by_induction(name):
    p, f, x_next, y_next, t = _map()
    r_next = _canonical(y_next / x_next)
    assert _zero(r_next - R**2)
    above, below = _FORMS[name](M)
    # x < y: the form's other branch is the same function of r
    assert _zero(below - above)
    form = sp.Lambda((R, M), _canonical(above))
    # round 1; round k + 1 from r as the map applied to round k from r^2; and
    # the balanced value, from the map's fixed point r = 1 where p = f = t =
    # 1/2: P_k = 2^-k = 1/(2m), p_total 1 - 1/(2m), t and p_conditional 1/2
    half = sp.Rational(1, 2)
    assert [e.subs(R, 1) for e in (p, f, r_next, t)] == [half, half, 1, half]
    base, step, balanced = {
        "P_k": (p, f * form(R**2, M), 1 / (2 * M)),
        "p_total": (p, p + f * form(R**2, M), 1 - 1 / (2 * M)),
        "vbs_transmission": (t, form(R**2, M), half),
        "p_conditional": (p, form(R**2, M), half),
    }[name]
    assert _zero(form(R, 1) - base)
    assert _zero(form(R, 2 * M) - step)
    assert _zero(sp.limit(form(R, M), R, 1) - balanced)


def test_each_round_keeps_the_optimal_single_copy_yield():
    # p + f 2 min(x', y') = 2 min(x, y): with r' = r^2 the smaller square
    # stays on the same side, y' for x > y and x' for x < y
    p, f, x_next, y_next, _ = _map()
    assert _zero(p + f * 2 * y_next - 2 * Y)
    assert _zero(p + f * 2 * x_next - 2 * X)


# alpha is math.sqrt of the double nearest alpha^2, on both sides of balance.
# The closed forms take r^(2^(k-1)) as exp(-2^(k-1) L) for L = ln(max/min), so
# L's rounding error grows 2^(k-1)-fold: measured 8.2 ulps at round 4 (31 at
# round 6), at alpha^2 = 4/5.
_TIE_ALPHA_SQ = (Fraction(1, 10), Fraction(1, 3), Fraction(4, 5), Fraction(97, 100))
_TIE_ROUNDS = 4
_TIE_ULPS = 16


def _exact_rounds(alpha: float, rounds: int):
    """(P_k, p_total(k), x_k) for k = 1..rounds, from the derived map
    iterated on the double alpha's exact square."""
    x = Fraction(alpha) ** 2
    y, survival, total, out = 1 - x, Fraction(1), Fraction(0), []
    for _ in range(rounds):
        p, f = 2 * x * y, x * x + y * y
        total += survival * p
        out.append((survival * p, total, x))
        survival *= f
        x, y = x * x / f, y * y / f
    return out


@pytest.mark.parametrize("alpha_sq", _TIE_ALPHA_SQ, ids=str)
def test_the_closed_forms_in_the_code_meet_the_derived_map(alpha_sq):
    alpha = math.sqrt(alpha_sq)
    for k, (yield_k, total, x) in enumerate(_exact_rounds(alpha, _TIE_ROUNDS), start=1):
        for got, want in (
            (p_round_closed_form(alpha, k), yield_k),
            (p_total_closed_form(alpha, k), total),
            (vbs_transmission(alpha, k), x),
        ):
            assert abs(Fraction(got) - want) <= _TIE_ULPS * 2.0**-52 * want, (k, got, want)
