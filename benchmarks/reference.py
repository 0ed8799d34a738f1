"""High-precision reference yields and the checks run on every CLI output.

The reference evaluates the closed-form yield

    P_k = 2 (x y)^(2^(k-1)) / prod_{j=2..k} (x^(2^(j-1)) + y^(2^(j-1)))

in mpmath at ``DPS`` digits from the float alpha the CLI actually received,
with x = mpf(alpha)^2 and y = 1 - x, updating x^(2^(k-1)), y^(2^(k-1)) and
the denominator once per round (O(K)). mpmath exponents are unbounded, so
nothing underflows at K = 1000.

A checked output row yields three kinds of count:

* operations: one row of ``sweep`` / ``compare-loss`` or one ``run``
  invocation. An operation fails if the command exits non-zero, its row is
  missing or malformed, the row's own ``delta`` exceeds
  ``ORACLE_MATCH_TOLERANCE``, or (``compare-loss``) a total disagrees with
  the package closed form (times eta^2 for ecp1) beyond that tolerance.
  Only the rounds of operations that pass count as verified.
* engine values (per-round yields of ``run``, totals otherwise) and
* closed-form values (the oracle column ``sweep`` and ``run`` print) of
  every well-formed row, each compared with the reference to ``REL_TOL``
  relative wherever the reference is at least ``FLOOR``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

DPS = 60
REL_TOL = 1e-9
FLOOR = mpmath.mpf("1e-300")

_HEADERS = {
    "sweep": "alpha,alpha_sq,k_max,p_total,p_total_oracle,delta",
    "compare-loss": "alpha,eta,p_total_ecp1,p_total_ecp2,advantage",
    "run": "round,vbs_t,p_conditional,p_unconditional,p_round_oracle,delta,success_fidelity",
}


def yields_at(x: mpmath.mpf, k_max: int) -> list[mpmath.mpf]:
    """P_1 .. P_k_max for alpha^2 = x, at DPS digits."""
    with mpmath.workdps(DPS):
        y = 1 - x
        u, v, denom = x, y, mpmath.mpf(1)
        out = [2 * u * v]
        for _ in range(2, k_max + 1):
            u, v = u * u, v * v
            denom *= u + v
            out.append(2 * u * v / denom)
    return out


def reference_yields(alpha: float, k_max: int) -> list[mpmath.mpf]:
    """P_1 .. P_k_max for the float ``alpha`` the CLI ran with."""
    with mpmath.workdps(DPS):
        return yields_at(mpmath.mpf(alpha) ** 2, k_max)


def alpha_grid(text: str) -> list[float]:
    """The alphas ``--grid start:stop:steps`` gives, computed as the CLI does."""
    start, stop, steps = text.split(":")
    return [float(a) for a in np.linspace(float(start), float(stop), int(steps))]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _off(value: float, ref: mpmath.mpf) -> bool:
    with mpmath.workdps(DPS):
        return abs(mpmath.mpf(value) - ref) > REL_TOL * ref


def _flags(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


@dataclass
class Tally:
    """Counts from checking one or more CLI outputs."""

    ops: int = 0
    ops_failed: int = 0
    rounds_verified: int = 0
    engine_checked: int = 0
    engine_off: int = 0
    closed_form_checked: int = 0
    closed_form_off: int = 0
    detail: list[dict] = field(default_factory=list)

    def add(self, other: Tally) -> None:
        self.ops += other.ops
        self.ops_failed += other.ops_failed
        self.rounds_verified += other.rounds_verified
        self.engine_checked += other.engine_checked
        self.engine_off += other.engine_off
        self.closed_form_checked += other.closed_form_checked
        self.closed_form_off += other.closed_form_off
        self.detail.extend(other.detail)

    def count_engine(self, value: float, ref: mpmath.mpf) -> None:
        if ref >= FLOOR:
            self.engine_checked += 1
            self.engine_off += _off(value, ref)

    def count_closed_form(self, value: float, ref: mpmath.mpf) -> None:
        if ref >= FLOOR:
            self.closed_form_checked += 1
            self.closed_form_off += _off(value, ref)


def _numbers(fields: list[str]) -> list[float] | None:
    try:
        return [float(f) for f in fields]
    except ValueError:
        return None


class Checker:
    """Checks CLI outputs; references and verdicts are cached per input."""

    def __init__(self, tolerance: float, closed_form_total):
        self._tolerance = tolerance
        self._closed_form_total = closed_form_total
        self._yields: dict[tuple[float, int], list[mpmath.mpf]] = {}
        self._totals: dict[tuple[float, int], mpmath.mpf] = {}
        self._verdicts: dict[tuple, Tally] = {}

    def _ref(self, alpha: float, k_max: int) -> list[mpmath.mpf]:
        key = (alpha, k_max)
        if key not in self._yields:
            self._yields[key] = reference_yields(alpha, k_max)
        return self._yields[key]

    def _ref_total(self, alpha: float, k_max: int) -> mpmath.mpf:
        key = (alpha, k_max)
        if key not in self._totals:
            with mpmath.workdps(DPS):
                self._totals[key] = mpmath.fsum(self._ref(alpha, k_max))
        return self._totals[key]

    def check(self, argv: list[str], exit_code: int, csv_text: str) -> Tally:
        """Tally one invocation's output (``csv_text`` is what ``--out`` holds)."""
        key = (tuple(argv), exit_code, csv_text)
        if key not in self._verdicts:
            lines = csv_text.split("\n")
            if exit_code != 0 or lines[0] != _HEADERS[argv[0]] or lines[-1] != "":
                rows = None
            else:
                rows = [line.split(",") for line in lines[1:-1]]
            check = {"sweep": self._sweep, "compare-loss": self._loss, "run": self._run}
            self._verdicts[key] = check[argv[0]](_flags(argv), rows)
        return self._verdicts[key]

    def _sweep(self, flags: dict[str, str], rows: list[list[str]] | None) -> Tally:
        k_max = int(flags["--rounds"])
        alphas = alpha_grid(flags["--grid"])
        tally = Tally()
        rows = rows if rows is not None else []
        tally.ops = max(len(alphas), len(rows))
        tally.ops_failed = tally.ops - len(alphas)
        for i, alpha in enumerate(alphas):
            row = rows[i] if i < len(rows) else []
            values = _numbers(row) if len(row) == 6 else None
            if (
                values is None
                or row[0] != _fmt(alpha)
                or row[2] != str(k_max)
                or not all(map(math.isfinite, values))
            ):
                tally.ops_failed += 1
                continue
            ref = self._ref_total(alpha, k_max)
            tally.count_engine(values[3], ref)
            tally.count_closed_form(values[4], ref)
            if values[5] > self._tolerance:
                tally.ops_failed += 1
            else:
                tally.rounds_verified += k_max
        return tally

    def _loss(self, flags: dict[str, str], rows: list[list[str]] | None) -> Tally:
        k_max = int(flags["--rounds"])
        eta = float(flags["--eta"])
        alphas = alpha_grid(flags["--grid"])
        tally = Tally()
        rows = rows if rows is not None else []
        tally.ops = max(len(alphas), len(rows))
        tally.ops_failed = tally.ops - len(alphas)
        for i, alpha in enumerate(alphas):
            row = rows[i] if i < len(rows) else []
            values = _numbers(row) if len(row) == 5 else None
            if (
                values is None
                or row[0] != _fmt(alpha)
                or row[1] != _fmt(eta)
                or not all(map(math.isfinite, values))
            ):
                tally.ops_failed += 1
                continue
            ref = self._ref_total(alpha, k_max)
            with mpmath.workdps(DPS):
                ref_lossy = ref * mpmath.mpf(eta) ** 2
            tally.count_engine(values[2], ref_lossy)
            tally.count_engine(values[3], ref)
            closed = self._closed_form_total(alpha, k_max)
            if (
                abs(values[2] - closed * eta * eta) > self._tolerance
                or abs(values[3] - closed) > self._tolerance
            ):
                tally.ops_failed += 1
            else:
                tally.rounds_verified += 2 * k_max
        return tally

    def _run(self, flags: dict[str, str], rows: list[list[str]] | None) -> Tally:
        k_max = int(flags["--rounds"])
        alpha_sq = flags["--alpha-sq"]
        alpha = math.sqrt(float(alpha_sq))
        tally = Tally(ops=1, ops_failed=1)
        parsed = []
        for k, row in enumerate(rows if rows is not None else [], start=1):
            values = _numbers(row[2:]) if len(row) == 7 and row[0] == str(k) else None
            if values is None or not all(map(math.isfinite, values[:4])):
                return tally
            parsed.append(values)
        if len(parsed) != k_max:
            return tally
        first_off = None
        for k, (values, ref) in enumerate(zip(parsed, self._ref(alpha, k_max)), start=1):
            before = tally.engine_off
            tally.count_engine(values[1], ref)
            tally.count_closed_form(values[2], ref)
            if first_off is None and tally.engine_off > before:
                first_off = k
        max_delta = max(values[3] for values in parsed)
        if max_delta <= self._tolerance:
            tally.ops_failed = 0
            tally.rounds_verified = k_max
        tally.detail.append({
            "alpha_sq": alpha_sq,
            "checked": tally.engine_checked,
            "engine_off": tally.engine_off,
            "first_engine_off_round": first_off,
            "closed_form_off": tally.closed_form_off,
            "max_delta": max_delta,
        })
        return tally
