"""Recycle failures over many rounds and sweep the total yield.

Each failed round squares the coefficient imbalance, so the per-round
success probability decays, but the running total still approaches 1 at
the balanced starting point: p_total(K) = 1 - 2^-K there. Away from it
the total saturates at a curve maximized at alpha = 1/sqrt(2).
"""

import math

from noonecp import (
    ProtocolConfig,
    figure3_sweep,
    p_total_closed_form,
    run_schedule,
)

alpha = math.sqrt(0.8)
cfg = ProtocolConfig(protocol="ecp2", alpha=alpha, n_photons=2, max_rounds=6)
schedule = run_schedule(cfg)

print(f"schedule for alpha^2=0.8, N=2, {cfg.max_rounds} rounds ({cfg.protocol}):")
print("round  t_k        p_cond      p_uncond    fidelity")
for row in schedule.per_round:
    t = "-" if row.vbs_transmission is None else f"{row.vbs_transmission:.6f}"
    print(
        f"{row.round_index:>5}  {t:>9}  {row.p_conditional:.8f}  "
        f"{row.p_unconditional:.8f}  {row.success_fidelity:.10f}"
    )
print("p_total =", schedule.p_total)
print("closed form =", p_total_closed_form(alpha, cfg.max_rounds))

# at the balanced point every round succeeds with conditional
# probability 1/2, so K rounds reach 1 - 2^-K
balanced = ProtocolConfig(protocol="ecp2", alpha=1 / math.sqrt(2), max_rounds=10)
print("\nbalanced start, 10 rounds: p_total =", run_schedule(balanced).p_total)
print("1 - 2^-10 =", 1 - 2**-10)

# sweep the closed form over the full parameter range; cross_check=True
# also runs the whole grid through the engine in one batched pass and raises
# at the first round where the two disagree
points = figure3_sweep(k_max=10)
best = max(points, key=lambda p: p.p_total)
print(f"\nsweep over {len(points)} grid points, K=10:")
print(f"  max p_total = {best.p_total:.10f} at alpha = {best.alpha:.6f}")
print(f"  (1/sqrt(2) = {1 / math.sqrt(2):.6f})")
for alpha_sq in (0.1, 0.3, 0.5, 0.7, 0.9):
    print(f"  alpha^2={alpha_sq}: p_total = {p_total_closed_form(math.sqrt(alpha_sq), 10):.6f}")

checked = figure3_sweep(k_max=4, grid=[0.4, 1 / math.sqrt(2), 0.9], cross_check=True)
print("\nsimulator agrees with the closed form at", len(checked), "cross-checked points")
