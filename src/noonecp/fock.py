"""Sparse Fock-state algebra over a fixed register of named bosonic modes.

A pure state is a sparse map from occupation-number tuples to complex
amplitudes. The concentration protocols handled by this package keep at most
a handful of branches alive at any photon number N, so sparse maps stay
exact where dense mode tensors would grow as N^modes. Every nonzero
amplitude is kept, however small; only exact zeros are dropped.

Every operation here is a pure function returning a new state. Instances are
treated as immutable values and are safe to share between threads. The
registers and kets of a state built by ``PureState(...)`` are checked once
there; the operations below derive their results from such states and build
them without checking again.

The engine may also run a batch of inputs at once: every ket then carries a
``_Batch`` of real amplitudes, one per input. Batches combine element by
element under the usual operators, and the few places where a scalar and a
batch differ (normalization, tolerance checks and splitting a result per
input) go through the number seam at the end of this module, so
every element sees exactly the float operations of its own run. The seam
does not decide which readings are absent: an element whose reading has
zero probability runs on like the others, and the caller that splits a
batch per input discards what it computed there.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import repeat
from numbers import Number
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Mapping

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


def _finite_real(value: object) -> bool:
    """A finite int or float; bool is an int subclass but never a real setting."""
    try:
        return type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _check_count(value: int, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")


def _check_alpha(alpha: float) -> None:
    if not (_finite_real(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha!r}")


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
    root; a factor beyond the float range raises ValueError.

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
            factor = _sqrt_ratio(math.perm(m + n, n), 1)
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

    Both inputs must already be normalized within NORM_TOLERANCE (a NaN
    element of a batch passes and gives NaN).
    """
    for name, st in (("first", a), ("second", b)):
        if _off(norm_sq(st), 1.0, NORM_TOLERANCE):
            raise ValueError(f"{name} argument is not normalized")
    return _clip_unit(abs(inner(a, b)) ** 2)


# --- Number seam: the only code that tells a plain amplitude from a batch. ---


class _Batch(tuple):
    """The amplitudes of one ket across a batch of runs, one float per run.

    Operators act element by element, and a plain number operand acts on
    every element, so each element sees exactly the float operations of its
    own scalar run. A batch is true when any element is nonzero. Amplitude
    elements are real floats (the engine's amplitudes are exactly real), so
    ``conjugate`` is the identity; only an inner product with a complex state
    holds complex elements.
    """

    __slots__ = ()

    def _map(self, op: Callable, other: object) -> _Batch:
        return _Batch(map(op, self, other if type(other) is _Batch else repeat(other)))

    def __add__(self, other: object) -> _Batch:
        return self._map(operator.add, other)

    def __mul__(self, other: object) -> _Batch:
        return self._map(operator.mul, other)

    # IEEE + and * commute, so a plain left operand gives the same bits.
    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, other: object) -> _Batch:
        return self._map(operator.pow, other)

    def __neg__(self) -> _Batch:
        return _Batch(map(operator.neg, self))

    def __abs__(self) -> _Batch:
        return _Batch(map(abs, self))

    def __bool__(self) -> bool:
        return any(self)

    def conjugate(self) -> _Batch:
        return self

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
    """Sum of the amplitudes' squared magnitudes, in order.

    A batch sum starts from its first square, not from 0: squares are >= +0,
    so 0 + x is x, and that pass over the batch would change no bit. A
    plain square beyond the float range makes the sum inf.
    """
    if _batched(amps):
        squares = [_Batch(map(operator.pow, a, repeat(2))) for a in amps]
        return sum(squares[1:], squares[0])
    try:
        return sum([abs(a) ** 2 for a in amps])
    except OverflowError:
        return math.inf


def _normalized(terms: Mapping[BasisKet, complex]) -> tuple[dict[BasisKet, complex], float]:
    """``terms`` scaled to unit norm, and that norm; ValueError if it is zero.

    The one normalization in the package. The norm is the hypot of the
    magnitudes, which neither underflows nor overflows. Each amplitude is
    multiplied by 1/norm, or divided by norm where 1/norm overflows (a
    subnormal norm). A batch element whose norm is zero comes out NaN.
    """
    amps = terms.values()
    batched = _batched(amps)
    norm = _Batch(map(math.hypot, *amps)) if batched else math.hypot(*map(abs, amps))
    if not norm:
        raise ValueError("cannot normalize a state with zero norm")
    if not batched:
        scale = 1.0 / norm
        if math.isinf(scale):
            return {k: a / norm for k, a in terms.items()}, norm
    else:
        scale = _Batch([1.0 / n if n else math.nan for n in norm])
        if any(map(math.isinf, scale)):
            return {
                k: _Batch(x / n if math.isinf(s) else x * s for x, n, s in zip(a, norm, scale))
                for k, a in terms.items()
            }, norm
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
    """|value - expected| > tolerance for some element; NaN never is."""
    if type(value) is _Batch:
        return any(map(tolerance.__lt__, map(abs, map(operator.sub, value, repeat(expected)))))
    return abs(value - expected) > tolerance


def _nonnegative_real(amp):
    """The real value of an exactly real, non-negative amplitude, else None."""
    if type(amp) is _Batch:
        return amp if all(map((0.0).__le__, amp)) else None
    return amp.real if amp.imag == 0.0 and amp.real >= 0.0 else None


def _clip_unit(value):
    """min(max(value, 0.0), 1.0), per element for a batch; NaN stays NaN."""
    if type(value) is _Batch:
        return _Batch(map(min, map(max, value, repeat(0.0)), repeat(1.0)))
    return min(max(value, 0.0), 1.0)


def _per_element(values: tuple, size: int) -> list[tuple]:
    """A tuple of plain numbers and batches, as one tuple per element of a batch."""
    if size == 1:
        return [values]
    return list(zip(*(v if type(v) is _Batch else repeat(v, size) for v in values)))
