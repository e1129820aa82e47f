"""The rollout's arithmetic on rows with time on the last axis against the
(n, m) arithmetic it replaced.

The oracles below are the earlier layouts: the closed-form audit in blocks
of 2048 matrices written to (b, 3) columns, the feed-forward torque, box
test, reference defects and zero-error prefix on (n, m) and (n, 2m)
arrays, and the cost reduced over the joints of (n, m) arrays.  The library
does the same elementwise arithmetic in the same summation order, so every
result must agree with its oracle byte for byte.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cgms import learning, plants
from cgms.config import compile_setup, load_config
from cgms.errors import InfeasibleFloorError
from cgms.gains import EIG_REPEAT_TOL, EIG_ZERO_TOL, eigvalsh_rows
from cgms.learning import initial_policy, rollout, sample_noise
from test_gains import rotated
from test_learning import (
    model_terms_setup,
    offset_reference,
    tight_box_samples,
)


# ---------------------------------------------------------------------------
# The (n, m) oracles
# ---------------------------------------------------------------------------

ORACLE_EIG_BLOCK = 2048


def _blocked_eigvalsh_block(rows, out):
    """The closed form on one block of rows (6, b), into out (b, 3)."""
    v = rows.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        q = v[:3].sum(axis=0) / 3.0
        v[:3] -= q
        p = np.sqrt((np.einsum("ij,ij->j", v, v)
                     + np.einsum("ij,ij->j", v[3:], v[3:])) / 6.0)
        v /= np.where(p > 0.0, p, 1.0)
        b0, b1, b2, c0, c1, c2 = v
        r = 0.5 * (b0 * (b1 * b2 - c2 * c2) - c0 * (c0 * b2 - c1 * c2)
                   + c1 * (c0 * c2 - c1 * b1))
        phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
        out[:, 2] = q + 2.0 * p * np.cos(phi)
        out[:, 0] = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
        out[:, 1] = 3.0 * q - out[:, 2] - out[:, 0]
        tol = EIG_ZERO_TOL * np.maximum(1.0, np.sqrt(6 * p * p + 3 * q * q))
        w = np.abs(out).T
        w = np.minimum(np.minimum(w[0], w[1]), w[2])
        redo = np.flatnonzero(~(w > tol) | (np.abs(r) > 1.0 - EIG_REPEAT_TOL))
    if redo.size:
        out[redo] = np.linalg.eigvalsh(rows[:, redo].T[:, [[0, 3, 4],
                                                           [3, 1, 5],
                                                           [4, 5, 2]]])


def blocked_eigvalsh_rows(P):
    w = np.empty((P.shape[1], 3))
    for i in range(0, len(w), ORACLE_EIG_BLOCK):
        _blocked_eigvalsh_block(P[:, i:i + ORACLE_EIG_BLOCK],
                                w[i:i + ORACLE_EIG_BLOCK])
    return w


def stacked_defects(x_d, xd_d, u_ff, g, P, Q):
    """delta as (k, 2m) for the k steps of u_ff (k, m)."""
    r = np.hstack([x_d, xd_d])
    return r[1:] - r[:-1] @ P.T - (u_ff - g) @ Q.T


def stacked_prefix(x_d, xd_d, xdd_d, Lam, g, P, Q, limits):
    """(u_ff, i, j): the feed-forward torque (n, m), its first step out of
    the box and the end of the zero-error prefix."""
    n = len(x_d)
    u_ff = xdd_d @ Lam.T
    u_ff += g
    i = int(np.append(limits.outside(u_ff).any(axis=1), True).argmax())
    k = min(i, n - 1)
    tol = 32.0 * np.finfo(float).eps * max(np.abs(x_d).max(),
                                           np.abs(xd_d).max())
    d = stacked_defects(x_d[:k + 1], xd_d[:k + 1], u_ff[:k], g, P, Q)
    over = ~(np.abs(d) <= tol).all(axis=1)
    return u_ff, i, int(np.append(over, True).argmax()) + 1


def stacked_cost(t, x, x_ref, accel, K_trace, weights):
    cost_k = weights.lam_k * float(np.trace(K_trace, axis1=1, axis2=2).sum())
    cost_acc = weights.lam_acc * float((accel ** 2).sum())
    w = learning.via_weight(t, weights)
    cost_track = float((w * ((x - x_ref) ** 2).sum(axis=1)).sum())
    return cost_k + cost_acc + cost_track, {
        "cost_K": cost_k, "cost_acc": cost_acc, "cost_track": cost_track}


def same_bytes(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == \
        np.ascontiguousarray(b).tobytes()


# ---------------------------------------------------------------------------
# The certificate audit
# ---------------------------------------------------------------------------

def packed(A):
    return A[:, [0, 1, 2, 1, 2, 2], [0, 1, 2, 0, 0, 1]].T


@pytest.mark.parametrize("n", [1, 2, 2047, 2048, 2049, 5001])
def test_audit_matches_the_blocked_oracle(n, rng):
    S = rng.standard_normal((n, 3, 2))
    stacks = [-(S @ np.swapaxes(S, 1, 2))]
    for scale in (1e-300, 1e-6, 1.0, 216.0, 1e300):
        A = scale * rng.standard_normal((n, 3, 3))
        stacks.append(A + np.swapaxes(A, 1, 2))
    for A in stacks:
        got = eigvalsh_rows(packed(A))
        assert same_bytes(got, blocked_eigvalsh_rows(packed(A)))


@pytest.mark.parametrize("branch", ["repeated", "near_zero"])
def test_audit_redo_branches_match_the_blocked_oracle(branch, rng):
    # Each stack mixes matrices that the closed form keeps with matrices
    # of one eigvalsh redo branch, the latter across two oracle blocks.
    lam = np.sort(rng.uniform(-200.0, 200.0, (3000, 3)), axis=1)
    redo = rng.random(3000) < 0.3
    if branch == "repeated":
        lam[redo, 2] = lam[redo, 1] * (1.0 + 1e-9)
    else:
        lam[redo, 2] = 1e-14
    A = rotated(rng, lam)
    got = eigvalsh_rows(packed(A))
    assert same_bytes(got, blocked_eigvalsh_rows(packed(A)))
    assert same_bytes(got[redo], np.linalg.eigvalsh(A[redo]))


def test_audit_nan_raises_like_the_blocked_oracle(rng):
    A = rng.standard_normal((2100, 3, 3))
    A = A + np.swapaxes(A, 1, 2)
    A[2090, 1, 0] = np.nan
    for audit in (blocked_eigvalsh_rows, eigvalsh_rows):
        with pytest.raises(np.linalg.LinAlgError):
            audit(packed(A))


# ---------------------------------------------------------------------------
# The rollout's prefix, defects and cost
# ---------------------------------------------------------------------------

def handover_case():
    setup, noise = compile_setup(load_config())
    policy = initial_policy(setup)
    return setup, policy, [None] + [sample_noise(noise, policy, 0, r)
                                    for r in range(4)]


def model_terms_case():
    setup = model_terms_setup()
    _, noise = compile_setup(load_config())
    policy = initial_policy(setup)
    return setup, policy, [None] + [sample_noise(noise, policy, 0, r)
                                    for r in range(3)]


CASES = {
    "handover": handover_case,
    "offset_1cm": handover_case,
    "tight_box": lambda: tight_box_samples(range(12)),
    "model_terms": model_terms_case,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_prefix_defects_and_cost_match_the_stacked_oracle(case, monkeypatch):
    # Every defect the rollout forms, in its prefix or in its loop, the
    # feed-forward torque and prefix end it reaches, the error it raises
    # and the cost of every accepted rollout are the (n, m) oracle's.
    setup, policy, noises = CASES[case]()
    if case == "offset_1cm":
        offset_reference(monkeypatch, np.array([0.01, -0.01, 0.01]))
    formed, prefixes = [], []
    defects, prefix = learning._reference_defects, learning._zero_error_prefix

    def checked_defects(x_d, xd_d, u_ff, g, P, Q):
        d = defects(x_d, xd_d, u_ff, g, P, Q)
        u_ff = np.ascontiguousarray(u_ff)
        assert same_bytes(d.T, stacked_defects(x_d, xd_d, u_ff, g, P, Q))
        formed.append(u_ff)
        return d

    def recorded_prefix(*args):
        prefixes.append(args)
        return prefix(*args)

    monkeypatch.setattr(learning, "_reference_defects", checked_defects)
    monkeypatch.setattr(learning, "_zero_error_prefix", recorded_prefix)
    Lam, g = plants.operational_space_terms(setup.model)
    Minv = np.linalg.inv(Lam)
    P, Q = learning.euler_step(setup.dt, Minv)
    verdicts = []
    for xi in noises:
        formed.clear()
        prefixes.clear()
        theta = policy.theta_traj + (0.0 if xi is None else xi.theta_traj)
        x_d, xd_d, xdd_d = learning.rollout_reference(
            setup.dmp, setup.start, theta, setup.tgrid, setup.dmp_phi,
            setup.dmp_ops)
        u_ff, i, j = stacked_prefix(x_d, xd_d, xdd_d, Lam, g, P, Q,
                                    setup.limits)
        try:
            ro = rollout(policy, xi, setup)
        except InfeasibleFloorError as exc:
            ro = exc
        if case == "offset_1cm":
            assert prefixes == []
        else:
            (args,) = prefixes
            assert same_bytes(args[2], u_ff)
        if isinstance(ro, InfeasibleFloorError):
            assert i < j
            with pytest.raises(InfeasibleFloorError) as want:
                learning._check_feedforward(u_ff[:i + 1], setup.tgrid,
                                            setup.limits)
            assert str(ro) == str(want.value)
            verdicts.append("infeasible")
            continue
        verdicts.append("accepted")
        # The loop runs from step 0 under the offset, and forms no map on
        # the others: every defect is formed once, from the oracle's u_ff.
        assert same_bytes(np.concatenate(formed), u_ff[:-1])
        if case != "offset_1cm":
            assert i == j == len(u_ff) and same_bytes(ro.torque, u_ff)
        accel = (ro.torque - g) @ Minv.T
        assert (ro.cost, ro.cost_terms) == stacked_cost(
            setup.tgrid, ro.x, setup.x_ref, accel, ro.schedule.K,
            setup.weights)
    assert verdicts.count("infeasible") == (10 if case == "tight_box" else 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cost_matches_the_stacked_oracle(m, rng, handover_setup):
    # On C-ordered (n, m, m) stacks and on stacks that view (m, m, n) rows,
    # as a schedule's traces do.
    n = 1001
    t = np.arange(n) * 1e-3
    x, x_ref, accel = (rng.standard_normal((n, m)) * 10.0 ** k
                       for k in (-2, -3, 1))
    K = rng.standard_normal((n, m, m)) * 300.0
    weights = replace(handover_setup.weights, t_hat=0.5)
    for stack in (K, np.ascontiguousarray(K.transpose(1, 2, 0))
                  .transpose(2, 0, 1)):
        got = learning.trajectory_cost(t, x, x_ref, accel, stack, weights)
        assert got == stacked_cost(t, x, x_ref, accel, stack, weights)
