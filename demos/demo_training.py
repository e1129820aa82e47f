"""Short policy-improvement run on the handover task.

Learns a via-point reach with variable impedance: the trajectory weights
and both gain-slack blocks are perturbed, rolled out on the point-mass
plant, and recombined with cost-softmax weights.  Every exploration
rollout is certified by construction.  Ten updates are enough to see the
cost drop; the full 50-update protocol runs from the command line
(cgms train).

Run: python3 demos/demo_training.py
"""

import time

import numpy as np

from cgms.config import compile_setup, load_config
from cgms.learning import train


def main():
    cfg = load_config(overrides={"run_seed": 0, "run_updates": 10})
    setup, noise = compile_setup(cfg)
    t0 = time.perf_counter()
    result = train(setup, noise=noise, updates=cfg.run_updates,
                   rollouts_per_update=cfg.run_rollouts,
                   beta_softmax=cfg.learning_softmax_sharpness)
    wall = time.perf_counter() - t0
    print(f"{wall:.1f} s for {cfg.run_updates} updates x "
          f"{cfg.run_rollouts} rollouts")
    print(f"initial mean cost: {result.initial_mean_cost:.1f}")
    print(f"final mean cost:   {result.final_mean_cost:.1f} "
          f"(ratio {result.final_mean_cost / result.initial_mean_cost:.3f})")
    rows = result.rows
    lam = max(max(r["lamA_max"], r["lamC_max"]) for r in rows)
    print(f"worst certificate eigenvalue over all rollouts: {lam:.3g}")
    print(f"saturation events: {len(result.saturation_events)}")
    per_update = {}
    for r in rows:
        per_update.setdefault(r["update"], []).append(r["cost"])
    for u in sorted(per_update):
        print(f"  update {u:2d}: mean cost {np.mean(per_update[u]):12.1f}")


if __name__ == "__main__":
    main()
