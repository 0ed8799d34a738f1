"""Compare the two schemes when the shared channel is lossy.

Both schemes produce identical lossless statistics. They differ in what
the auxiliary photon is exposed to: the shared-aux scheme sends it
across the lossy channel twice per round, so each success probability
picks up a factor eta^2, while the local-aux scheme keeps its photon
inside one lab and pays nothing.
"""

import math

from noonecp import ProtocolConfig, apply_loss_model, run_schedule, run_schedules

ETA = 0.9
ROUNDS = 6
ALPHA_SQ = (0.1, 0.3, 0.5, 0.7, 0.9)

# one config of settings per scheme, and one schedule per alpha
alphas = [math.sqrt(alpha_sq) for alpha_sq in ALPHA_SQ]
totals = {}
for protocol in ("ecp1", "ecp2"):
    cfg = ProtocolConfig(protocol=protocol, max_rounds=ROUNDS, loss_eta=ETA)
    schedules = run_schedules(cfg, alphas)
    lossless = [s.p_total for s in schedules]
    totals[protocol] = [apply_loss_model(s, cfg).p_total for s in schedules]

print(f"channel transmission eta = {ETA}, {ROUNDS} rounds\n")
print("alpha^2   lossless   shared(eta)  local(eta)  advantage")
for alpha_sq, p, shared, local in zip(ALPHA_SQ, lossless, totals["ecp1"], totals["ecp2"]):
    print(f"{alpha_sq:>7.2f}   {p:.6f}   {shared:.6f}     {local:.6f}    {local - shared:+.6f}")

# the gap closes as the channel improves and vanishes at eta = 1
print("\nbalanced start, single round:")
for eta in (1.0, 0.95, 0.9, 0.8, 0.5):
    cfg = ProtocolConfig(
        protocol="ecp1", alpha=1 / math.sqrt(2), max_rounds=1, loss_eta=eta
    )
    lossy = apply_loss_model(run_schedule(cfg), cfg)
    print(f"  eta={eta:.2f}: shared-aux p_total = {lossy.p_total:.6f} (= eta^2 / 2)")
