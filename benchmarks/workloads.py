"""Seeded inputs for the three benchmark workloads.

A workload is a pool of *passes*; a pass is a short list of ``noonecp``
argv lists that the benchmark runs back to back and times as one sample.
Everything here is a pure function of (workload, seed, out path), uses the
standard library only, and formats every number so that the CLI parses
back exactly the float the generator drew.

* ``sweep``: ``sweep --protocol ecp2 --n 1 --rounds 10`` over a jittered
  0.05:0.95 alpha grid (the paper's Fig. 3 curve; engine-bound).
* ``deep``: ``run --protocol ecp2 --rounds 1000`` at one alpha^2 from a
  near-balanced band and one from a lopsided band per pass. 1000 is the
  deepest K the roadmap names; ``--rounds`` >= 1025 crashes today because
  ``p_round_closed_form`` evaluates ``float(2**1024)``.
* ``loss``: ``compare-loss --n 100 --eta 0.9 --rounds 10`` over a jittered
  grid: both protocols, the loss model, no closed form.
"""

from __future__ import annotations

import random

WORKLOADS = ("sweep", "deep", "loss")

# Distinct passes per seed; the timed loop cycles through them.
POOL_PASSES = 8

DEEP_ROUNDS = 1000
GRID_ROUNDS = 10
LOSS_PHOTONS = 100
LOSS_ETA = "0.9"

# Near-balanced alpha^2 sits 1e-15..1e-14 away from 1/2, so the success
# branch survives 50-55 rounds. Within about 6e-16 of 1/2 (alpha within
# four ulps of sqrt(1/2)) the closed form's cancellation puts run's own
# delta column above ORACLE_MATCH_TOLERANCE (4.9e-4 at round 54 for
# alpha^2 = 0.5), so every such run is a failed operation; a workload must
# run without failures, so collect.py records alpha^2 = 0.5 on its own.
NEAR_OFFSET_LOG10 = (-15.0, -14.0)
LOPSIDED_BAND = (0.7, 0.9)


def _grid(rng: random.Random) -> str:
    start = 0.05 + rng.uniform(-0.01, 0.01)
    stop = 0.95 + rng.uniform(-0.01, 0.01)
    steps = rng.randint(180, 220)
    return f"{start:.4f}:{stop:.4f}:{steps}"


def _near_balanced(rng: random.Random) -> str:
    offset = 10.0 ** rng.uniform(*NEAR_OFFSET_LOG10)
    return repr(0.5 + offset if rng.random() < 0.5 else 0.5 - offset)


def _lopsided(rng: random.Random) -> str:
    return f"{rng.uniform(*LOPSIDED_BAND):.6f}"


def _sweep_pass(rng: random.Random, out: str) -> list[list[str]]:
    return [[
        "sweep", "--protocol", "ecp2", "--n", "1", "--rounds", str(GRID_ROUNDS),
        "--grid", _grid(rng), "--out", out,
    ]]


def _deep_pass(rng: random.Random, out: str) -> list[list[str]]:
    return [
        ["run", "--protocol", "ecp2", "--rounds", str(DEEP_ROUNDS),
         "--alpha-sq", x, "--out", out]
        for x in (_near_balanced(rng), _lopsided(rng))
    ]


def _loss_pass(rng: random.Random, out: str) -> list[list[str]]:
    return [[
        "compare-loss", "--n", str(LOSS_PHOTONS), "--eta", LOSS_ETA,
        "--rounds", str(GRID_ROUNDS), "--grid", _grid(rng), "--out", out,
    ]]


_PASS_MAKERS = {"sweep": _sweep_pass, "deep": _deep_pass, "loss": _loss_pass}


def make_passes(workload: str, seed: int, out: str) -> list[list[list[str]]]:
    """The seeded pool of passes; each CLI call writes its CSV to ``out``."""
    if workload not in _PASS_MAKERS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return [_PASS_MAKERS[workload](rng, out) for _ in range(POOL_PASSES)]
