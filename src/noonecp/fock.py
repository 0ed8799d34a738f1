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
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterable, Mapping

ModeId = str
BasisKet = tuple[int, ...]

# Tolerance for "this state must be normalized" preconditions.
NORM_TOLERANCE = 1e-10


class PureState:
    """Pure bosonic state on a register of uniquely labeled modes.

    ``terms`` maps occupation tuples (one entry per register mode, in
    register order) to complex amplitudes. Terms whose amplitude is exactly
    zero are dropped at construction.
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
                if not isinstance(n, int) or n < 0:
                    raise ValueError(f"occupations must be non-negative ints, got {kt!r}")
            a = complex(amp)
            if a:
                kept[kt] = a
        self._register = reg
        self._terms = kept

    @classmethod
    def _derived(cls, register: tuple[ModeId, ...], terms: dict[BasisKet, complex]) -> PureState:
        """Unchecked state from kets derived from valid states; owns ``terms``, drops zeros."""
        state = object.__new__(cls)
        state._register = register
        state._terms = {k: a for k, a in terms.items() if a} if 0 in terms.values() else terms
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
    sqrt((m+n)! / m!), so n quanta on vacuum give amplitude sqrt(n!).

    Args:
        state: input state.
        mode: label of the mode to populate; must be in the register.
        n: how many quanta to add, positive integer.

    Returns:
        New state; the result is not renormalized.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"quanta count must be a positive integer, got {n!r}")
    try:
        idx = state.register.index(mode)
    except ValueError:
        raise ValueError(f"mode {mode!r} not in register {state.register!r}") from None
    out: dict[BasisKet, complex] = {}
    for ket, amp in state.terms.items():
        m = ket[idx]
        factor = math.sqrt(math.factorial(m + n) / math.factorial(m))
        new_ket = ket[:idx] + (m + n,) + ket[idx + 1 :]
        out[new_ket] = out.get(new_ket, 0j) + amp * factor
    return PureState._derived(state.register, out)


def superpose(terms: Iterable[tuple[complex, PureState]]) -> PureState:
    """Linear combination sum(c_i * state_i) over a shared register.

    The result is not renormalized; callers wanting a unit vector compose
    with ``normalized``.
    """
    items = list(terms)
    if not items:
        raise ValueError("superpose needs at least one (coefficient, state) pair")
    reg = items[0][1].register
    acc: dict[BasisKet, complex] = {}
    for coeff, st in items:
        if st.register != reg:
            raise ValueError(
                f"register mismatch in superpose: {st.register!r} vs {reg!r}"
            )
        c = complex(coeff)
        for ket, amp in st.terms.items():
            acc[ket] = acc.get(ket, 0j) + c * amp
    return PureState._derived(reg, acc)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product on the concatenated register; labels must not collide."""
    if set(a.register) & set(b.register):
        raise ValueError(f"registers {a.register!r} and {b.register!r} share mode labels")
    out = {ka + kb: va * vb for ka, va in a._terms.items() for kb, vb in b._terms.items()}
    return PureState._derived(a.register + b.register, out)


def norm_sq(state: PureState) -> float:
    """Sum of squared amplitude magnitudes."""
    return sum([abs(a) ** 2 for a in state._terms.values()])


def normalized(state: PureState) -> PureState:
    """Scale to unit norm; zero states cannot be normalized.

    The norm comes from ``math.hypot``, which neither underflows nor
    overflows, so a state of tiny nonzero amplitudes still normalizes.
    """
    terms = state._terms
    norm = math.hypot(*map(abs, terms.values()))
    if norm == 0.0:
        raise ValueError("cannot normalize a state with zero norm")
    scale = 1.0 / norm
    if math.isinf(scale):  # subnormal norm: divide, 1/norm overflows
        return PureState._derived(state.register, {k: a / norm for k, a in terms.items()})
    return PureState._derived(state.register, {k: a * scale for k, a in terms.items()})


def inner(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>; registers must match exactly."""
    if a.register != b.register:
        raise ValueError(f"register mismatch: {a.register!r} vs {b.register!r}")
    small, large = (a, b) if a.num_terms() <= b.num_terms() else (b, a)
    total = 0j
    for ket, amp in small.terms.items():
        other = large.terms.get(ket)
        if other is not None:
            if small is a:
                total += amp.conjugate() * other
            else:
                total += other.conjugate() * amp
    return total


def fidelity_up_to_global_phase(a: PureState, b: PureState) -> float:
    """|<a|b>|^2, insensitive to any unit-modulus global factor.

    Both inputs must already be normalized within NORM_TOLERANCE.
    """
    for name, st in (("first", a), ("second", b)):
        if abs(norm_sq(st) - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"{name} argument is not normalized")
    f = abs(inner(a, b)) ** 2
    return min(max(f, 0.0), 1.0)
