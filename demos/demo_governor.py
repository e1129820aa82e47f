"""Closed-form torque governor: scale the gain profile back to the limits.

The commanded torque is affine in the scaling factor beta between a floor
schedule (beta = 0) and the learned schedule (beta = 1), so the largest
feasible beta has a closed form per joint.  The demo sweeps an aggressive
stiffness against a tight torque box and prints the resulting scaling.

Run: python3 demos/demo_governor.py
"""

import numpy as np

from cgms.governor import TorqueLimits, beta_star_detail


def main():
    half = np.array([43.5, 43.5, 43.5, 43.5, 6.0, 6.0, 6.0])   # 7-joint arm
    limits = TorqueLimits(tau_min=-half, tau_max=half)
    print(f"torque box: +/- {limits.tau_max} Nm")
    rng = np.random.default_rng(3)
    for trial in range(5):
        tau0 = rng.uniform(0.3 * limits.tau_min, 0.3 * limits.tau_max)
        tau1 = rng.uniform(-60.0, 60.0, 7)
        beta, joint = beta_star_detail(tau0, tau1, limits)
        tag = "no scaling needed" if beta == 1.0 else f"limited by joint {joint}"
        print(f"trial {trial}: beta* = {beta:.6f}  ({tag})")
        tau = tau0 + beta * tau1
        assert limits.contains(tau, tol=1e-9)
        print(f"  governed torque: {np.round(tau, 2)}")


if __name__ == "__main__":
    main()
