"""Fit a dynamic movement primitive to a minimum-jerk reach and replay it.

Run: python3 demos/demo_dmp_fit.py
"""

import numpy as np

from cgms.dmp import DmpParams, build_basis, fit_min_jerk, min_jerk, rollout_reference


def main():
    start = np.array([0.55, 0.0, 0.11])
    goal = np.array([0.05, 0.72, 0.11])
    T = 5.0

    basis = build_basis(51, 0.95)
    params = DmpParams(tau=T, goal=goal, basis=basis)
    theta = fit_min_jerk(start, T, params)

    tgrid = np.arange(0.0, T + 5e-4, 1e-3)
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
