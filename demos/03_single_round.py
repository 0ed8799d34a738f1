"""Walk through one concentration round, element by element.

The round takes a lopsided N-photon two-mode state, couples it to a
single auxiliary photon, reads the joint photon-number parity with a
probe phase, and keeps the branch where the reading is +/- theta. That
branch interferes the auxiliary photon into two detectors; either click
heralds the balanced target, one of them after a sign correction.
"""

import math

from noonecp import (
    BeamSplitterSpec,
    ProtocolConfig,
    beam_splitter,
    cross_kerr_tag,
    detect_photon,
    fidelity_up_to_global_phase,
    homodyne_partition,
    maximally_entangled_noon,
    negate_occupied,
    prepare_aux_ecp2,
    prepare_less_entangled_noon,
    run_round,
    tensor,
    vbs_transmission,
)

alpha_sq = 0.8
n = 2
theta = 0.1
alpha = math.sqrt(alpha_sq)

signal = prepare_less_entangled_noon(alpha, n)
print("input signal:", signal)

# the local scheme conditions a single photon on a variable splitter
# whose transmissivity matches the current coefficient imbalance
t1 = vbs_transmission(alpha, 1)
aux = prepare_aux_ecp2(t1)
print(f"aux photon (t1={t1}):", aux)

joint = tensor(signal, aux)
print("joint state has", joint.num_terms(), "kets")

# probe phases: each signal photon in b1 contributes -theta/N, the aux
# photon in c1 contributes +theta, so the readings are -theta, 0, +theta
tagged = cross_kerr_tag(cross_kerr_tag(joint, "b1", -theta / n), "c1", theta)
readings = homodyne_partition(tagged)
print("\nhomodyne reading classes (|phase| is all the probe resolves):")
for r in readings:
    print(f"  |phase|={r.phase_class:.3f}: probability {r.probability:.6f}")

success = next(r for r in readings if abs(r.phase_class - theta) < 1e-9)
print("\nkept branch:", success.branch)

# the aux photon is erased in a balanced splitter and detected
mixed = beam_splitter(
    success.branch,
    BeamSplitterSpec("c1", "c2", "e1", "e2", 0.5, "ecp2"),
)
target = maximally_entangled_noon(n)
for fired, branch, prob in detect_photon(mixed, ["e1", "e2"]):
    fixed = negate_occupied(branch, "b1") if fired == "e2" else branch
    fid = fidelity_up_to_global_phase(fixed, target)
    note = " (after sign correction)" if fired == "e2" else ""
    print(f"detector {fired}: p={prob:.3f}, fidelity to target {fid:.12f}{note}")

# the round engine does all of the above in one call and also returns
# the recyclable branch
cfg = ProtocolConfig(protocol="ecp2", alpha=alpha, n_photons=n)
out = run_round(signal, cfg, 1)
print("\nengine round 1:")
print("  success probability:", out.success_prob, "(expected", 2 * alpha_sq * (1 - alpha_sq), ")")
print("  success state:", out.success_state)
print("  failure state:", out.failure_state)
