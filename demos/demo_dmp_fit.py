"""Fit a dynamic movement primitive to a minimum-jerk reach and replay it.

The reach, the basis, the DMP stiffness and the fit's regularizer are the
default configuration's handover task.

Run: python3 demos/demo_dmp_fit.py
"""

import numpy as np

from cgms.config import compile_setup, load_config
from cgms.dmp import fit_min_jerk, min_jerk, rollout_reference


def main():
    setup, _ = compile_setup(load_config())
    params, start, tgrid = setup.dmp, setup.start, setup.tgrid
    goal, T = params.goal, params.tau

    theta = fit_min_jerk(start, tgrid, params)
    x, xd, _ = rollout_reference(params, start, theta, tgrid)
    x_ref, _, _ = min_jerk(start, goal, T, tgrid)

    rmse = np.sqrt(((x - x_ref) ** 2).mean(axis=0))
    print(f"forcing weights: {theta.shape[0]} basis functions x "
          f"{theta.shape[1]} axes")
    print(f"per-axis RMSE vs minimum jerk: {rmse}")
    print(f"endpoint error: {np.linalg.norm(x[-1] - goal):.2e} m")
    print(f"peak speed: {np.linalg.norm(xd, axis=1).max():.3f} m/s")


if __name__ == "__main__":
    main()
