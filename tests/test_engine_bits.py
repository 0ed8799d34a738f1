"""The engine's outputs, pinned bit for bit.

The golden CSVs print 12 significant digits, so a change of an ulp in a
VBS setting, a conditional yield, a fidelity or a recycled state can pass
them. This test hashes ``float.hex`` of every field the engine returns on a
fixed set of inputs instead, so a change to the engine that claims to keep
every float operation in order must keep this digest too.
"""

import hashlib
import math
import random
from dataclasses import replace

from noonecp import ProtocolConfig, prepare_less_entangled_noon, protocols, run_round

# alpha^2: lopsided on both sides, and near-balanced to within 1e-14 of 1/2
# and further out; the near-balanced ones keep a present success reading for
# dozens of rounds, the lopsided ones reach the fixed point within a few.
_ALPHA_SQ = (1e-4, 0.1, 0.5 - 7e-15, 0.5 + 3e-15, 0.5 + 1e-9, 0.7, 0.9999)
# and drawn ones, so that a change in the last bit of a rare square shows
_DRAWN = random.Random(20121209)
_GRID = [math.sqrt(x) for x in _ALPHA_SQ] + [math.sqrt(_DRAWN.random()) for _ in range(17)]
# the input of each theta's run_round chain: near-balanced, so that dozens of
# success states are formed, or lopsided, so that the fixed point comes early
_CHAIN = {0.1: math.sqrt(0.5 + 3e-15), -2.0: math.sqrt(0.9)}
_K = 60

# sha256 of the stream below, restated when every square became one multiply
# (24 floats moved, each nearer its 60-digit reference; see CHANGES.md).
_DIGEST = "3ae3bc4db93a9c43bc3b20873d9895dc6875eb2ea93178cb88491903826de17a"


def _bits(value):
    """A field as text that tells every float bit apart."""
    if isinstance(value, float):
        return value.hex()
    if value is None or isinstance(value, (int, str)):
        return repr(value)
    raise TypeError(f"unexpected engine field {value!r}")


def _state_bits(state):
    if state is None:
        return ["None"]
    return [f"{ket}:{_bits(amp)}" for ket, amp in state.terms.items()]


def _stream():
    for protocol in protocols.PROTOCOLS:
        for n in (1, 3, 100):
            for theta, alpha in _CHAIN.items():
                config = ProtocolConfig(
                    protocol, n_photons=n, max_rounds=_K, theta=theta, loss_eta=0.9
                )
                yield f"{protocol} N={n} theta={theta!r}"
                for grid_alpha in _GRID:
                    schedule = protocols.run_schedule(replace(config, alpha=grid_alpha))
                    yield _bits(schedule.alpha)
                    yield _bits(schedule.p_total)
                    for row in schedule.per_round:
                        yield ",".join(map(_bits, row))
                # the grid fold is lossless; a lossy total is it times the loss factor
                factor = protocols._loss_factor(config)
                totals = protocols._grid_totals(config, _GRID)
                yield ",".join(_bits(total * factor) for total in totals)
                state = prepare_less_entangled_noon(alpha, n)
                for k in range(1, _K + 1):
                    out = run_round(state, config, k)
                    yield ",".join(map(_bits, (
                        out.round_index, out.success_prob, out.failure_prob,
                        out.vbs_transmission_used,
                    )))
                    yield ",".join(_state_bits(out.success_state))
                    yield ",".join(_state_bits(out.failure_state))
                    state = out.failure_state


def test_the_engine_keeps_every_output_bit():
    digest = hashlib.sha256("\n".join(_stream()).encode()).hexdigest()
    assert digest == _DIGEST
