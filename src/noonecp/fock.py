"""Sparse Fock-state algebra over a fixed register of named bosonic modes.

A pure state is a sparse map from occupation-number tuples to complex
amplitudes. The concentration protocols handled by this package keep at most
a handful of branches alive at any photon number N, so sparse maps stay
exact where dense mode tensors would grow as N^modes. Every nonzero
amplitude is kept, however small; only exact zeros are dropped.

Every operation here is a pure function returning a new state. Instances are
treated as immutable values and are safe to share between threads. Each
invariant is checked once, where it is set up. The registers and kets of a
state built by ``PureState(...)`` are checked there, and the operations
derive their results from such states without checking them again. The
public operations check their labels, mode indices and phases at entry,
then call a private core that does not check and works by position. The
round engine calls those cores directly, on one fixed layout: the signal
pair, then the auxiliary pair. ``protocols._SCHEMES`` checks at import
that each scheme's labels are distinct, ``ProtocolConfig`` proves every
probe-tag phase finite, and ``run_round`` checks a caller's register.

The engine may also run a batch of inputs at once: every ket then carries a
``_Batch`` of real amplitudes, one per input. Batches add, multiply and
negate element by element, and every place where a scalar and a batch
differ goes through the number seam at the end of this module: squaring
(``_norm_sq``, ``_abs_sq``), the detector-fold check's signed overlap
(``_flipped_inner``), normalization, tolerance checks (``_off``) and
splitting a result per input. So every element sees exactly the float
operations of its own run. Which readings are absent is the caller's to
decide: the engine detects a batch's recycled branch, which is present in
every element, and never its success branch, so a batch with a zero,
subnormal or NaN norm is never normalized.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from functools import reduce
from itertools import repeat
from numbers import Number
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

__all__ = [
    "ModeId",
    "BasisKet",
    "NORM_TOLERANCE",
    "PureState",
    "vacuum",
    "basis_state",
    "create",
    "superpose",
    "tensor",
    "norm_sq",
    "normalized",
    "inner",
    "fidelity_up_to_global_phase",
]

ModeId = str
BasisKet = tuple[int, ...]

# Tolerance for "this state must be normalized" preconditions.
NORM_TOLERANCE = 1e-10


class PureState:
    """Pure bosonic state on a register of uniquely labeled modes.

    ``terms`` maps occupation tuples (one entry per register mode, in
    register order) to finite complex amplitudes. Terms whose amplitude is
    exactly zero are dropped at construction. States with batched
    amplitudes are built only inside the engine, through ``_derived``.
    """

    __slots__ = ("_register", "_terms")

    def __init__(self, register: Iterable[ModeId], terms: Mapping[BasisKet, complex]):
        reg = tuple(register)
        if not reg:
            raise ValueError("register must contain at least one mode")
        if len(set(reg)) != len(reg):
            raise ValueError(f"duplicate mode labels in register {reg!r}")
        width = len(reg)
        kept: dict[BasisKet, complex] = {}
        for ket, amp in terms.items():
            kt = tuple(ket)
            if len(kt) != width:
                raise ValueError(
                    f"occupation tuple {kt!r} does not match register width {width}"
                )
            for n in kt:
                if isinstance(n, bool) or not isinstance(n, int) or n < 0:
                    raise ValueError(f"occupations must be non-negative ints, got {kt!r}")
            a = _finite_number(amp)
            if a is None:
                raise ValueError(f"amplitude of {kt!r} must be a finite number, got {amp!r}")
            if a:
                kept[kt] = a
        self._register = reg
        self._terms = kept

    @classmethod
    def _derived(cls, register: tuple[ModeId, ...], terms: dict[BasisKet, complex]) -> PureState:
        """Unchecked state from kets derived from valid states; owns ``terms``, drops zeros.

        A batched ket is dropped only when every element is zero.
        """
        state = object.__new__(cls)
        state._register = register
        state._terms = terms if all(terms.values()) else {k: a for k, a in terms.items() if a}
        return state

    @property
    def register(self) -> tuple[ModeId, ...]:
        return self._register

    @property
    def terms(self) -> Mapping[BasisKet, complex]:
        """Read-only view of the sparse amplitude map."""
        return MappingProxyType(self._terms)

    def amplitude(self, ket: Iterable[int]) -> complex:
        """Amplitude of one occupation tuple, 0 if absent."""
        return self._terms.get(tuple(ket), 0j)

    def num_terms(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PureState):
            return NotImplemented
        return self._register == other._register and self._terms == other._terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        labels = ",".join(self._register)
        parts = []
        for ket in sorted(self._terms):
            amp = self._terms[ket]
            occ = ",".join(str(n) for n in ket)
            parts.append(f"({amp:.6g})|{occ}>")
        body = " + ".join(parts) if parts else "0"
        return f"PureState[{labels}]({body})"


# --- Input checks shared by every layer's public boundary. ---


def _finite_number(value: object) -> complex | None:
    """``value`` as a finite complex, or None; bool and str are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, Number):
        return None
    try:
        c = complex(value)
    except OverflowError:  # an int beyond the float range
        return None
    return c if cmath.isfinite(c) else None


# What ``_finite_real`` accepts, as every refusal that rests on it states it.
_REAL_RULE = "a finite real (an int or float, not a bool)"


def _finite_real(value: object) -> bool:
    """A finite int or float; bool is an int subclass but never a real setting."""
    try:
        return type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check_count(value: int, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")


def _check_alpha(alpha: float) -> float:
    """``alpha`` as a Python float, if it lies strictly inside (0, 1)."""
    if not (_finite_real(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly inside (0, 1) as {_REAL_RULE}, got {alpha!r}")
    return float(alpha)


def _mode_index(register: tuple[ModeId, ...], mode: ModeId) -> int:
    """Position of ``mode`` in ``register``; ValueError if it is absent."""
    try:
        return register.index(mode)
    except ValueError:
        raise ValueError(f"mode {mode!r} not in register {register!r}") from None


def vacuum(register: Iterable[ModeId]) -> PureState:
    """All modes empty, amplitude 1."""
    reg = tuple(register)
    return PureState(reg, {(0,) * len(reg): 1.0 + 0j})


def basis_state(register: Iterable[ModeId], occupations: Iterable[int]) -> PureState:
    """Single occupation-number basis ket with amplitude 1."""
    reg = tuple(register)
    return PureState(reg, {tuple(occupations): 1.0 + 0j})


def create(state: PureState, mode: ModeId, n: int = 1) -> PureState:
    """Apply the creation operator on ``mode`` n times.

    A term with occupation m in that mode picks up the bosonic factor
    sqrt((m+n)! / m!), so n quanta on vacuum give amplitude sqrt(n!). The
    factor is the exact integer (m+n)!/m! rounded once before the square
    root; a factor beyond the float range raises ValueError, as soon for a
    large n as for n = 302: no more than 302 factors are multiplied.

    Args:
        state: input state.
        mode: label of the mode to populate; must be in the register.
        n: how many quanta to add, positive integer.

    Returns:
        New state; the result is not renormalized.
    """
    _check_count(n, "quanta count")
    idx = _mode_index(state._register, mode)
    out: dict[BasisKet, complex] = {}
    for ket, amp in state._terms.items():
        m = ket[idx]
        try:
            # 302! > 2**2050, so the root of 302 factors or more leaves the float range
            factor = _sqrt_ratio(math.perm(m + n, min(n, 302)), 1)
        except OverflowError:
            raise ValueError(
                f"bosonic factor sqrt({m + n}!/{m}!) exceeds the float range"
            ) from None
        out[ket[:idx] + (m + n,) + ket[idx + 1 :]] = amp * factor
    return PureState._derived(state._register, out)


def superpose(terms: Iterable[tuple[complex, PureState]]) -> PureState:
    """Linear combination sum(c_i * state_i) over a shared register.

    The result is not renormalized; callers wanting a unit vector compose
    with ``normalized``.
    """
    items = list(terms)
    if not items:
        raise ValueError("superpose needs at least one (coefficient, state) pair")
    reg = items[0][1]._register
    acc: dict[BasisKet, complex] = {}
    for coeff, st in items:
        if st._register != reg:
            raise ValueError(
                f"register mismatch in superpose: {st._register!r} vs {reg!r}"
            )
        c = _finite_number(coeff)
        if c is None:
            raise ValueError(f"superpose coefficients must be finite numbers, got {coeff!r}")
        for ket, amp in st._terms.items():
            _add_into(acc, ket, c * amp)
    return PureState._derived(reg, acc)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product on the concatenated register; labels must not collide."""
    if not set(a._register).isdisjoint(b._register):
        raise ValueError(f"registers {a._register!r} and {b._register!r} share mode labels")
    return _tensor(a, b)


def _tensor(a: PureState, b: PureState) -> PureState:
    """``tensor`` of two states whose registers are known to be disjoint."""
    out = {ka + kb: va * vb for ka, va in a._terms.items() for kb, vb in b._terms.items()}
    return PureState._derived(a._register + b._register, out)


def norm_sq(state: PureState) -> float:
    """Sum of squared amplitude magnitudes, in term order.

    A batch's real elements need no abs before the even power.
    """
    return _norm_sq(state._terms.values())


def normalized(state: PureState) -> PureState:
    """Scale to unit norm; zero states cannot be normalized.

    The norm comes from ``math.hypot``, which neither underflows nor
    overflows, so a state of tiny nonzero amplitudes still normalizes.
    """
    return PureState._derived(state._register, _normalized(state._terms)[0])


def inner(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>; registers must match exactly."""
    if a._register != b._register:
        raise ValueError(f"register mismatch: {a._register!r} vs {b._register!r}")
    small, large = (a, b) if len(a._terms) <= len(b._terms) else (b, a)
    total = None
    for ket, amp in small._terms.items():
        other = large._terms.get(ket)
        if other is not None:
            term = amp.conjugate() * other if small is a else other.conjugate() * amp
            total = term if total is None else total + term
    return 0j if total is None else total


def fidelity_up_to_global_phase(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, insensitive to any unit-modulus global factor.

    Both inputs must already be normalized within NORM_TOLERANCE.
    """
    for name, st in (("first", a), ("second", b)):
        if _off(norm_sq(st), 1.0, NORM_TOLERANCE):
            raise ValueError(f"{name} argument is not normalized")
    return min(max(_abs_sq(inner(a, b)), 0.0), 1.0)


# --- Number seam: the only code that tells a plain amplitude from a batch. ---


class _Batch(tuple):
    """The amplitudes of one ket across a batch of runs, one float per run.

    Addition, multiplication and negation act element by element, and a
    plain number operand of + or * acts on every element (in a
    comprehension, with no operator call per element), so each element sees
    exactly the float operations of its own scalar run. A batch has no
    power or abs: squares and magnitudes are left to the seam's folds
    (``_norm_sq``, ``_normalized``, ``_off``, ``_abs_sq``), which work
    through a batch in per-element passes and build one batch per result,
    not one per intermediate step. A batch is true when any element is
    nonzero. Elements are real floats: the engine's amplitudes are exactly
    real.
    """

    __slots__ = ()

    def __add__(self, other: object) -> _Batch:
        if type(other) is _Batch:
            return _Batch(map(operator.add, self, other))
        return _Batch([x + other for x in self])

    def __mul__(self, other: object) -> _Batch:
        if type(other) is _Batch:
            return _Batch(map(operator.mul, self, other))
        return _Batch([x * other for x in self])

    # IEEE + and * commute, so a plain left operand gives the same bits.
    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self) -> _Batch:
        return _Batch(map(operator.neg, self))

    def __bool__(self) -> bool:
        return any(self)

    def __format__(self, spec: str) -> str:
        return "[" + ", ".join(format(x, spec) for x in self) + "]"


def _batch(values: list[float]) -> float | _Batch:
    """One amplitude across a batch of runs; a batch of one is its plain float."""
    return values[0] if len(values) == 1 else _Batch(values)


def _add_into(acc: dict, key: BasisKet, value) -> None:
    """acc[key] += value, where an absent key counts as zero."""
    acc[key] = acc[key] + value if key in acc else value


def _batched(amps: Collection) -> bool:
    """Whether a state's amplitudes are batches.

    A state's amplitudes are all plain numbers or all batches of one size.
    """
    return type(next(iter(amps), None)) is _Batch


def _norm_sq(amps: Collection):
    """Sum of the amplitudes' squared magnitudes, added left to right.

    The adds are a left-to-right fold, not ``sum``, which compensates floats
    since Python 3.12. A batch is folded one ket at a time, each pass
    squaring that ket's elements into the running sums, so each element
    squares and adds as its scalar run does; its real elements square
    without abs, to the same bits. The square stays ``**2``, libm
    ``pow``, and is not rewritten as ``x*x``, which would change printed
    digits: with glibc 2.36 the two differ on about 1 in 1,200
    ``random.random()`` draws and on about half of the squares that fall
    exactly halfway between two doubles, where ``pow`` need not round to
    even. x = 1.5 + 2**-26 is one: ``x**2`` ends in ...0001p+1, ``x*x`` in
    ...0000p+1. A square beyond the float range gives inf; no kets give 0.
    A batch's first two kets share one pass, ``x**2 + y**2``: the same
    operations in the same order.
    """
    try:
        if _batched(amps):
            kets = iter(amps)
            first, second = next(kets), next(kets, None)
            if second is None:
                return _Batch([x**2 for x in first])
            total = [x**2 + y**2 for x, y in zip(first, second)]
            for amp in kets:
                total = [t + x**2 for t, x in zip(total, amp)]
            return _Batch(total)
        squares = [abs(a) ** 2 for a in amps]
    except OverflowError:
        return math.inf
    return reduce(operator.add, squares) if squares else 0


def _flipped_inner(a: PureState, b: PureState, idx: int):
    """``inner(a, b')`` of two real states, where b' is ``b`` with every ket
    that holds a photon at position ``idx`` negated, without forming b'.

    The terms come in ``inner``'s ket order, and each is the product a·b:
    where b' would hold -b, it is subtracted (negated if it comes first),
    which rounds as adding a·(-b) does, so the result has ``inner``'s bits.
    A batch folds each later ket's multiply-add in one pass over its
    elements.
    """
    small, large = (a._terms, b._terms) if len(a._terms) <= len(b._terms) else (b._terms, a._terms)
    total = None
    for ket, x in small.items():
        y = large.get(ket)
        if y is None:
            continue
        flip = ket[idx] > 0
        if total is None:
            total = -(x * y) if flip else x * y
        elif type(x) is _Batch:
            total = _Batch(
                [t - u * v for t, u, v in zip(total, x, y)]
                if flip
                else [t + u * v for t, u, v in zip(total, x, y)]
            )
        else:
            total = total - x * y if flip else total + x * y
    return 0.0 if total is None else total


def _normalized(terms: Mapping[BasisKet, complex]) -> tuple[dict[BasisKet, complex], float]:
    """``terms`` scaled to unit norm, and that norm; ValueError if it is zero.

    The one normalization in the package. The norm is the hypot of the
    magnitudes, which neither underflows nor overflows. Each amplitude is
    multiplied by 1/norm. A subnormal norm keeps too few bits for that, so a
    plain state with one is first scaled by 2**600, which is exact, and then
    multiplied by 1/hypot of the scaled magnitudes. A batch whose norms'
    ``min`` is not normal (zero, subnormal, a leading NaN) is refused; the
    engine detects only present readings.
    """
    amps = terms.values()
    batched = _batched(amps)
    norm = _Batch(map(math.hypot, *amps)) if batched else math.hypot(*map(abs, amps))
    if not norm:
        raise ValueError("cannot normalize a state with zero norm")
    if not batched:
        if norm < sys.float_info.min:
            terms = {k: a * 2.0**600 for k, a in terms.items()}
            scale = 1.0 / math.hypot(*map(abs, terms.values()))
        else:
            scale = 1.0 / norm
    elif min(norm) >= sys.float_info.min:
        # min skips a NaN norm unless it leads; one further on comes out NaN.
        scale = _Batch([1.0 / n for n in norm])
    else:
        raise ValueError(f"cannot normalize a batch: smallest norm {min(norm)!r} is not normal")
    return {k: a * scale for k, a in terms.items()}, norm


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num / den) for non-negative ints, the ratio rounded once.

    A ratio beyond the float range is scaled by an even power of two before
    its one rounding; OverflowError if the root itself leaves the range.
    """
    try:
        return math.sqrt(num / den)
    except OverflowError:
        half = (num.bit_length() - den.bit_length() - 1000) // 2
        return math.ldexp(math.sqrt(num / (den << 2 * half)), half)


def _off(value, expected: float, tolerance: float) -> bool:
    """|value - expected| > tolerance for some element; NaN never is.

    A batch compares only its extremes: rounding is monotone and
    e - v == -(v - e), so some element is off exactly when the largest is
    above or the smallest below by more than the tolerance. A NaN is
    skipped by max and min unless it leads, and then hides the extremes, so
    that batch is checked element by element.
    """
    if type(value) is _Batch:
        high, low = max(value), min(value)
        if high == high and low == low:
            return high - expected > tolerance or expected - low > tolerance
        return any(map(tolerance.__lt__, map(abs, map(operator.sub, value, repeat(expected)))))
    return abs(value - expected) > tolerance


def _abs_sq(value):
    """abs(value) ** 2, per element for a batch, in one pass.

    A batch's elements are real floats, which square without abs, as in
    ``_norm_sq``: an even power gives the same bits either way.
    """
    if type(value) is _Batch:
        return _Batch([x**2 for x in value])
    return abs(value) ** 2


def _per_element(value, size: int) -> list:
    """A plain number or a batch of ``size``, as one number per element."""
    if type(value) is _Batch:
        return list(value)
    return [value] * size
