"""Plant models, the operational-space control law, and the integrators."""

import numpy as np
import pytest

from cgms import plants
from cgms.errors import SingularConfigurationError
from cgms.plants import (
    PlantModel,
    PlantState,
    ReferenceSample,
    closed_loop_error_step,
    commanded_accel,
    forward_kinematics,
    initial_state,
    joint_space_terms,
    operational_space_terms,
    osid_wrench,
    plant_step,
    plant_step_rk4,
    wrench_to_torque,
)


def random_two_link_state(rng):
    model = PlantModel.planar_two_link()
    q = rng.uniform([-1.0, 0.4], [1.0, 2.5])
    qdot = rng.standard_normal(2)
    return model, initial_state(model, q, qdot)


# ---------------------------------------------------------------------------
# operational_space_terms
# ---------------------------------------------------------------------------

def test_point_mass_terms_are_identity():
    model = PlantModel.point_mass(m=3)
    state = initial_state(model, np.array([0.1, 0.2, 0.3]))
    Lam, mu, p, J = operational_space_terms(model, state)
    assert np.array_equal(Lam, np.eye(3))
    assert np.array_equal(mu, np.zeros(3))
    assert np.array_equal(p, np.zeros(3))
    assert np.array_equal(J, np.eye(3))


def test_two_link_zero_velocity_has_no_coriolis():
    model = PlantModel.planar_two_link()
    state = initial_state(model, np.array([0.3, 0.9]))
    _, mu, _, _ = operational_space_terms(model, state)
    assert np.allclose(mu, 0.0, atol=1e-12)


def kinetic_energy(model, q, qdot):
    """Sum of point-mass kinetic energies at the link tips."""
    m1, m2 = model.link_masses
    l1, l2 = model.link_lengths
    v1 = l1 * qdot[0]
    tip1 = np.array([-l1 * np.sin(q[0]) * qdot[0], l1 * np.cos(q[0]) * qdot[0]])
    J = plants._two_link_jacobian(model, q)
    tip2 = J @ qdot
    return 0.5 * m1 * v1 ** 2 + 0.5 * m2 * tip2 @ tip2


def test_two_link_inertia_matches_energy_oracle(rng):
    # M(q) is the Hessian of the kinetic energy in qdot; recover it by
    # evaluating T on basis velocities and compare Lam to (J M^-1 J^T)^-1.
    for _ in range(10):
        model, state = random_two_link_state(rng)
        q = state.q
        e = np.eye(2)
        M_oracle = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                tij = kinetic_energy(model, q, e[i] + e[j])
                tii = kinetic_energy(model, q, e[i])
                tjj = kinetic_energy(model, q, e[j])
                M_oracle[i, j] = tij - tii - tjj
        M, _, _ = joint_space_terms(model, q, state.qdot)
        assert np.allclose(M, M_oracle, atol=1e-8)
        Lam, _, _, J = operational_space_terms(model, state)
        Lam_oracle = np.linalg.inv(J @ np.linalg.inv(M_oracle) @ J.T)
        assert np.allclose(Lam, Lam_oracle, atol=1e-8)


def test_two_link_coriolis_matches_energy_rate(rng):
    # d/dt (M qdot) - dT/dq = C qdot along any (q, qdot); finite-difference
    # the identity M_dot qdot - dT/dq = C(q, qdot) qdot.
    h = 1e-6
    for _ in range(5):
        model, state = random_two_link_state(rng)
        q, qdot = state.q, state.qdot
        M_plus, _, _ = joint_space_terms(model, q + h * qdot, qdot)
        M_minus, _, _ = joint_space_terms(model, q - h * qdot, qdot)
        Mdot = (M_plus - M_minus) / (2 * h)
        dTdq = np.empty(2)
        for i in range(2):
            dq = np.zeros(2)
            dq[i] = h
            dTdq[i] = (kinetic_energy(model, q + dq, qdot)
                       - kinetic_energy(model, q - dq, qdot)) / (2 * h)
        _, Cqd, _ = joint_space_terms(model, q, qdot)
        assert np.allclose(Mdot @ qdot - dTdq, Cqd, atol=1e-5)


def test_lambda_symmetric_spd(rng):
    for _ in range(10):
        model, state = random_two_link_state(rng)
        Lam, _, _, _ = operational_space_terms(model, state)
        assert np.abs(Lam - Lam.T).max() < 1e-12
        assert np.linalg.eigvalsh(Lam).min() > 0


def test_singular_configuration_rejected():
    model = PlantModel.planar_two_link()
    state = initial_state(model, np.array([0.3, 0.0]))   # fully stretched
    with pytest.raises(SingularConfigurationError):
        operational_space_terms(model, state)


# ---------------------------------------------------------------------------
# commanded_accel / osid_wrench / wrench_to_torque
# ---------------------------------------------------------------------------

def make_spd(rng, m):
    A = rng.standard_normal((m, m))
    return A @ A.T + m * np.eye(m)


def test_commanded_accel_zero_error_returns_reference():
    state = PlantState(q=np.zeros(3), qdot=np.zeros(3),
                       x=np.array([1.0, 2.0, 3.0]), xdot=np.zeros(3))
    ref = ReferenceSample(x_d=state.x, xdot_d=state.xdot,
                          xddot_d=np.array([0.5, -0.5, 0.0]))
    acc = commanded_accel(state, ref, 30 * np.eye(3), 200 * np.eye(3), np.eye(3))
    assert np.allclose(acc, ref.xddot_d)


def test_commanded_accel_unit_stiffness():
    state = PlantState(q=np.zeros(3), qdot=np.zeros(3),
                       x=np.array([1.0, 0.0, 0.0]), xdot=np.zeros(3))
    ref = ReferenceSample(x_d=np.zeros(3), xdot_d=np.zeros(3),
                          xddot_d=np.zeros(3))
    acc = commanded_accel(state, ref, np.zeros((3, 3)), np.eye(3), np.eye(3))
    assert np.allclose(acc, [-1.0, 0.0, 0.0])


def test_commanded_accel_matches_linear_solve(rng):
    for _ in range(10):
        H = make_spd(rng, 3)
        D = make_spd(rng, 3)
        K = make_spd(rng, 3)
        state = PlantState(q=np.zeros(3), qdot=np.zeros(3),
                           x=rng.standard_normal(3),
                           xdot=rng.standard_normal(3))
        ref = ReferenceSample(x_d=rng.standard_normal(3),
                              xdot_d=rng.standard_normal(3),
                              xddot_d=rng.standard_normal(3))
        acc = commanded_accel(state, ref, D, K, H)
        xt = state.x - ref.x_d
        xtd = state.xdot - ref.xdot_d
        oracle = np.linalg.solve(H, H @ ref.xddot_d - (D @ xtd + K @ xt))
        assert np.allclose(acc, oracle, atol=1e-12)


def test_osid_feedforward_vanishes_when_lambda_equals_h(rng):
    H = make_spd(rng, 3)
    fe = rng.standard_normal(3)
    acc = rng.standard_normal(3)
    mu = rng.standard_normal(3)
    p = rng.standard_normal(3)
    fc = osid_wrench(H, mu, p, fe, H, acc)
    assert np.allclose(fc, H @ acc + mu + p, atol=1e-12)


def test_osid_free_space():
    fc = osid_wrench(np.eye(3), np.zeros(3), np.zeros(3), np.zeros(3),
                     np.eye(3), np.array([1.0, 2.0, 3.0]))
    assert np.allclose(fc, [1.0, 2.0, 3.0])


def test_osid_substitution_reproduces_error_dynamics(rng):
    # Substituting the commanded wrench into the task dynamics
    # Lam xdd + mu + p = f_c + f_e must reduce to
    # H xtdd + D xtd + K xt = f_e.
    for _ in range(10):
        H = make_spd(rng, 3)
        Lam = make_spd(rng, 3)
        D = make_spd(rng, 3)
        K = make_spd(rng, 3)
        mu = rng.standard_normal(3)
        p = rng.standard_normal(3)
        fe = rng.standard_normal(3)
        state = PlantState(q=np.zeros(3), qdot=np.zeros(3),
                           x=rng.standard_normal(3),
                           xdot=rng.standard_normal(3))
        ref = ReferenceSample(x_d=rng.standard_normal(3),
                              xdot_d=rng.standard_normal(3),
                              xddot_d=rng.standard_normal(3))
        acc_cmd = commanded_accel(state, ref, D, K, H)
        fc = osid_wrench(Lam, mu, p, fe, H, acc_cmd)
        xdd = np.linalg.solve(Lam, fc + fe - mu - p)
        xt = state.x - ref.x_d
        xtd = state.xdot - ref.xdot_d
        residual = H @ (xdd - ref.xddot_d) + D @ xtd + K @ xt - fe
        assert np.abs(residual).max() < 1e-10


def test_wrench_to_torque(rng):
    f = rng.standard_normal(2)
    assert np.allclose(wrench_to_torque(np.eye(2), f), f)
    assert np.allclose(wrench_to_torque(np.eye(2), np.zeros(2)), 0.0)
    model = PlantModel.planar_two_link()
    J = plants._two_link_jacobian(model, np.array([0.4, 1.1]))
    assert np.array_equal(wrench_to_torque(J, f), J.T @ f)


# ---------------------------------------------------------------------------
# Integrators
# ---------------------------------------------------------------------------

def test_gravity_equilibrium_step():
    model = PlantModel.planar_two_link()
    q = np.array([0.4, 1.0])
    state = initial_state(model, q)
    _, _, grav = joint_space_terms(model, q, np.zeros(2))
    nxt = plant_step(model, state, grav, np.zeros(2), 1e-3)
    assert np.abs(nxt.q - q).max() < 1e-6


def simulate(model, stepper, tau_fn, state, dt, T):
    t = 0.0
    while t < T - dt / 2:
        state = stepper(model, state, tau_fn(state), np.zeros(2), dt)
        t += dt
    return state


def test_plant_step_first_order_convergence():
    model = PlantModel.planar_two_link()
    state0 = initial_state(model, np.array([0.3, 1.2]))

    def tau_fn(state):
        _, _, grav = joint_space_terms(model, state.q, state.qdot)
        return grav + np.array([0.5, -0.3]) - 2.0 * state.qdot

    ref = simulate(model, plant_step_rk4, tau_fn, state0, 1e-5, 0.2)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        end = simulate(model, plant_step, tau_fn, state0, dt, 0.2)
        errs.append(np.linalg.norm(end.q - ref.q))
    # Halving dt should roughly halve the global error.
    assert errs[1] < 0.7 * errs[0]
    assert errs[2] < 0.7 * errs[1]


def test_point_mass_osid_matches_error_dynamics():
    # Closed loop on the exact point-mass plant vs. direct integration of
    # the error dynamics; identical update ordering makes them agree to
    # round-off over 1 s.
    model = PlantModel.point_mass(m=3)
    H = np.eye(3)
    D = 30 * np.eye(3)
    K = 200 * np.eye(3)
    dt = 1e-3
    ref = ReferenceSample(x_d=np.zeros(3), xdot_d=np.zeros(3),
                          xddot_d=np.zeros(3))
    state = initial_state(model, np.array([0.1, -0.05, 0.02]))
    xt, xtd = state.x.copy(), state.xdot.copy()
    for _ in range(1000):
        Lam, mu, p, J = operational_space_terms(model, state)
        acc = commanded_accel(state, ref, D, K, H)
        fc = osid_wrench(Lam, mu, p, np.zeros(3), H, acc)
        tau = wrench_to_torque(J, fc)
        state = plant_step(model, state, tau, np.zeros(3), dt)
        xt, xtd = closed_loop_error_step(xt, xtd, H, D, K, np.zeros(3), dt)
        assert np.abs(state.x - xt).max() < 1e-6


def test_error_step_equilibrium_and_spring_balance():
    H = np.eye(3)
    D = 30 * np.eye(3)
    K = 200 * np.eye(3)
    xt, xtd = np.zeros(3), np.zeros(3)
    xt, xtd = closed_loop_error_step(xt, xtd, H, D, K, np.zeros(3), 1e-3)
    assert np.array_equal(xt, np.zeros(3))
    # Constant f_e = K x_star converges to the offset x_star.
    x_star = np.array([0.02, -0.01, 0.03])
    fe = K @ x_star
    xt, xtd = np.zeros(3), np.zeros(3)
    for _ in range(5000):
        xt, xtd = closed_loop_error_step(xt, xtd, H, D, K, fe, 1e-3)
    assert np.abs(xt - x_star).max() < 1e-6


def test_error_decay_constant_gains():
    H = np.eye(3)
    D = 30 * np.eye(3)
    K = 200 * np.eye(3)
    xt = np.array([0.1, 0.0, 0.0])
    xtd = np.zeros(3)
    norms = []
    for _ in range(2000):
        xt, xtd = closed_loop_error_step(xt, xtd, H, D, K, np.zeros(3), 1e-3)
        norms.append(np.linalg.norm(xt))
    assert norms[-1] < 1e-6
    # Monotone decay after the initial transient.
    tail = np.array(norms[200:])
    assert np.all(np.diff(tail) <= 1e-12)


def test_energy_nonincreasing_constant_certified_gains():
    H = np.eye(3)
    D = 30 * np.eye(3)
    K = 200 * np.eye(3)
    alpha = 0.05
    xt = np.array([0.08, -0.03, 0.05])
    xtd = np.array([0.2, 0.1, -0.1])
    prev = None
    for _ in range(3000):
        # V = 1/2 (xtd + alpha xt)^T H (xtd + alpha xt) + ... the storage of
        # the stability argument reduces to the standard quadratic form for
        # constant gains; use V = 1/2 xtd'H xtd + 1/2 xt'K xt + alpha xt'H xtd.
        V = (0.5 * xtd @ H @ xtd + 0.5 * xt @ K @ xt + alpha * xt @ H @ xtd)
        if prev is not None:
            assert V <= prev + 1e-8
        prev = V
        xt, xtd = closed_loop_error_step(xt, xtd, H, D, K, np.zeros(3), 1e-3)


def test_plant_state_consistency():
    model = PlantModel.planar_two_link()
    state = initial_state(model, np.array([0.5, 1.0]), np.array([0.2, -0.1]))
    x, xdot = forward_kinematics(model, state.q, state.qdot)
    assert np.allclose(state.x, x, atol=1e-12)
    assert np.allclose(state.xdot, xdot, atol=1e-12)
