"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces each public function listed in ``LAYERS`` with
a recording wrapper, both in its defining module and in every ``noonecp``
module that imported it by name (``protocols`` binds names from ``optics``
and ``fock``, ``cli`` from ``protocols`` and ``analytics``, the package
from all of them); a binding left unpatched would let calls slip past the
trace. ``PureState`` is traced through its ``__init__``, so every
construction is a span whichever module builds it.

A span is (name, start, end, parent), kept in flat arrays while the run
lasts and written as JSON lines afterwards. A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

LAYERS: dict[str, tuple[str, ...]] = {
    "fock": (
        "PureState", "tensor", "superpose", "basis_state", "normalized",
        "norm_sq", "fidelity_up_to_global_phase",
    ),
    "optics": (
        "beam_splitter", "cross_kerr_tag", "homodyne_partition",
        "detect_photon", "negate_occupied",
    ),
    "protocols": (
        "run_schedule", "run_round", "vbs_transmission",
        "prepare_less_entangled_noon", "maximally_entangled_noon",
        "prepare_aux_ecp2", "apply_loss_model",
    ),
    "analytics": ("p_round_closed_form", "p_total_closed_form"),
    "cli": ("main",),
}

# Counts taken from a function's result, where the work happens.
_RESULT_COUNTERS: dict[str, tuple[str, Callable[[object], int]]] = {
    "optics.detect_photon": ("optics.detect_photon.branches_out", len),
    "optics.beam_splitter": ("optics.beam_splitter.terms_out", lambda s: s.num_terms()),
    "protocols.run_round": (
        "protocols.run_round.success_readings",
        lambda outcome: outcome.success_state is not None,
    ),
}


def self_times(parent: list[int], start: list[float], end: list[float]) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so overlapping or
    overhanging children are never counted twice.
    """
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        covered = 0.0
        reach = start[p]
        for k in sorted(kids, key=start.__getitem__):
            lo = max(start[k], reach)
            hi = min(end[k], end[p])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[p] -= covered
    return out


class Tracer:
    """Records spans and result counters for the functions in ``LAYERS``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        module = name.split(".", 1)[0]
        counter = _RESULT_COUNTERS.get(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[module] += 1
                raise
            finally:
                self.end[span] = clock()
                stack.pop()
            if counter is not None:
                self.counters[counter[0]] += counter[1](result)
            return result

        return traced

    @contextmanager
    def install(self) -> Iterator[None]:
        """Patch every binding of every traced function; restore on exit."""
        modules = [
            m for n, m in list(sys.modules.items())
            if (n == "noonecp" or n.startswith("noonecp.")) and m is not None
        ]
        restore: list[tuple[object, str, object]] = []
        try:
            for layer, functions in LAYERS.items():
                home = sys.modules[f"noonecp.{layer}"]
                for fn_name in functions:
                    name = f"{layer}.{fn_name}"
                    original = getattr(home, fn_name)
                    if isinstance(original, type):
                        init = original.__init__
                        restore.append((original, "__init__", init))
                        original.__init__ = self._wrap(name, init)
                        continue
                    wrapper = self._wrap(name, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                restore.append((module, attr, original))
                                setattr(module, attr, wrapper)
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per function, self_s and errors per layer, ratios."""
        selfs = self_times(list(self.parent), list(self.start), list(self.end))
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        for name_id, s in zip(self.name_id, selfs):
            calls[self.names[name_id]] += 1
            self_s[self.names[name_id]] += s
        metrics: dict[str, float] = {}
        for layer, functions in LAYERS.items():
            layer_self = 0.0
            for fn_name in functions:
                name = f"{layer}.{fn_name}"
                metrics[f"{name}.calls"] = calls[name]
                metrics[f"{name}.self_s"] = self_s[name]
                layer_self += self_s[name]
            metrics[f"{layer}.self_s"] = layer_self
            metrics[f"{layer}.errors"] = self.errors[layer]
        branches = self.counters["optics.detect_photon.branches_out"]
        rounds = calls["protocols.run_round"]
        metrics["optics.detector_branch_keep_frac"] = (
            calls["optics.detect_photon"] / branches if branches else 0.0
        )
        metrics["protocols.success_reading_frac"] = (
            self.counters["protocols.run_round.success_readings"] / rounds if rounds else 0.0
        )
        metrics["optics.beam_splitter.terms_out"] = self.counters["optics.beam_splitter.terms_out"]
        return metrics

    def write_jsonl(self, path: str) -> None:
        """One span per line: id, trace (root span id), name, start, end, parent."""
        root: list[int] = []
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name_id, p, s, e) in enumerate(
                zip(self.name_id, self.parent, self.start, self.end)
            ):
                root.append(i if p < 0 else root[p])
                fh.write(json.dumps({
                    "id": i, "trace": root[i], "name": self.names[name_id],
                    "start": s, "end": e, "parent": p,
                }, separators=(",", ":")) + "\n")
