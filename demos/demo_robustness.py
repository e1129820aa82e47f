"""Ultimate boundedness of the tracking error under a bounded residual.

Builds a certified schedule with comfortable margins, extracts the
dissipation constants, prints the resulting error bound, and checks it on
the error loop a rollout executes (the plant's semi-implicit Euler step
under the schedule's gains) driven by zero, constant, and sinusoidal
residual forces.

Run: python3 demos/demo_robustness.py
"""

import numpy as np

from cgms.dmp import build_basis
from cgms.gains import SlackParams, build_gain_schedule, vec_triangle
from cgms.robustness import (
    inputs_from_schedule,
    simulate_error_dynamics,
    standard_residuals,
    uub_constants,
    uub_empirical,
)

ALPHA = 0.05


def build_demo_schedule(rng, T=2.0, dt=1e-4):
    """Moderate stiffness with generous slack, so the margins are strict."""
    basis = build_basis(7, 0.7)
    k0 = 50.0
    row_d = vec_triangle(np.sqrt(8.0 - ALPHA) * np.eye(3))
    row_k = vec_triangle(np.sqrt(2 * ALPHA * k0 * 1.8) * np.eye(3))
    sp = SlackParams(
        theta_d=np.tile(row_d, (7, 1)) + 0.05 * rng.standard_normal((7, 6)),
        theta_k=np.tile(row_k, (7, 1)) + 0.05 * rng.standard_normal((7, 6)),
        basis=basis, m=3)
    tgrid = np.arange(0.0, T + dt / 2, dt)
    return build_gain_schedule(sp, ALPHA, np.eye(3), T, k0 * np.eye(3), tgrid)


def main():
    sched = build_demo_schedule(np.random.default_rng(1))
    rep = sched.report()
    print(f"schedule margins: eps_D = {rep.eps_D:.3f}, eps_K = {rep.eps_K:.3f}")
    u_bar = 0.01
    inp = inputs_from_schedule(sched, u_bar, optimize=True)
    res = uub_constants(inp)
    print(f"dissipation constants: c1 = {res.c1:.3f}, c2 = {res.c2:.3f}")
    print(f"ultimate bound on ||(xdot_err, x_err)||: {res.radius:.4f} "
          f"for ||u|| <= {u_bar}")
    residuals = standard_residuals(u_bar, sched.m)
    inside, margin = uub_empirical(sched, inp, residuals)
    print(f"simulated trajectories inside the bound: {inside} "
          f"(worst margin {margin:.4f})")
    _, (XT,), (XTD,) = simulate_error_dynamics(sched, [residuals[1]])
    peak = np.sqrt((XT ** 2 + XTD ** 2).sum(axis=1)).max()
    print(f"peak error under the constant residual: {peak:.5f} "
          f"({peak / res.radius:.1%} of the bound)")


if __name__ == "__main__":
    main()
