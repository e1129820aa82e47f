"""The packed-row schedule build against the (n, m, m) arithmetic it
replaced.

The oracle below is the stacked build: the slack products written to both
halves of (n, m, m) stacks, the stiffness flow and its floor on those
stacks, and the audits through conftest.eigvalsh_stack.  The library
does the same arithmetic on each lower-triangle entry, as rows
(tri_dim(m), n) with time on the last axis, so every trace of a schedule
must agree with the oracle's byte for byte, and every failure must be of
the same class.
"""

import math

import numpy as np
import pytest

from cgms.errors import CertifiedFloorError, IntegrationDivergedError
from cgms.gains import (
    K_EIG_FLOOR,
    _tri_index_arrays,
    schedule_from_products,
    slack_products,
    tri_dim,
)
from conftest import eigvalsh_stack

TRACES = ("K", "D", "Kdot", "Ddot", "lam_A", "lam_C")


# ---------------------------------------------------------------------------
# The (n, m, m) oracle
# ---------------------------------------------------------------------------

def _column_dot(x, y, pairs):
    out = x[pairs[0][0]] * y[pairs[0][1]]
    for p, q in pairs[1:]:
        out += x[p] * y[q]
    return out


def stacked_slack_products(S_D, S_K, Sd_D):
    """(G_D, G_K, Ddot) as (n, m, m) stacks, each lower entry written to
    (i, j) and (j, i)."""
    a, b, c = (np.ascontiguousarray(np.transpose(S)) for S in (S_D, S_K, Sd_D))
    d, n = a.shape
    m = (math.isqrt(8 * d + 1) - 1) // 2
    at = dict(zip(zip(*_tri_index_arrays(m)), range(d)))
    G_D, G_K, Ddot = (np.empty((n, m, m)) for _ in range(3))
    for i in range(m):
        for j in range(i + 1):
            pairs = [(at[i, k], at[j, k]) for k in range(j + 1)]
            G_D[:, i, j] = G_D[:, j, i] = _column_dot(a, a, pairs)
            G_K[:, i, j] = G_K[:, j, i] = _column_dot(b, b, pairs)
            Ddot[:, i, j] = Ddot[:, j, i] = (_column_dot(c, a, pairs)
                                             + _column_dot(a, c, pairs))
    return G_D, G_K, Ddot


def stacked_clears_floor(K):
    with np.errstate(all="ignore"):
        a00, a11, a22 = (K[:, i, i] - K_EIG_FLOOR for i in range(3))
        a10, a20, a21 = K[:, 1, 0], K[:, 2, 0], K[:, 2, 1]
        l20 = a20 / a00
        d1 = a11 - a10 / a00 * a10
        e21 = a21 - l20 * a10
        d2 = a22 - l20 * a20 - e21 / d1 * e21
        tol = 1e-9 * np.maximum(1.0, np.diagonal(K, 0, 1, 2).max(axis=1))
        return bool(((a00 > tol) & (d1 > tol) & (d2 > tol)).all())


def stacked_floor(K, clamp=False):
    if not np.isfinite(K).all():
        raise IntegrationDivergedError("stiffness flow diverged to a non-finite K")
    if ((K.shape[-1] == 3 and stacked_clears_floor(K))
            or (eigvalsh_stack(K)[:, 0] >= K_EIG_FLOOR).all()):
        return K
    if not clamp:
        raise CertifiedFloorError("below the floor")
    w, V = np.linalg.eigh(K)
    w = np.maximum(w, K_EIG_FLOOR)
    K = np.einsum("nij,nj,nkj->nik", V, w, V)
    return 0.5 * (K + np.swapaxes(K, 1, 2))


def stacked_flow(B, alpha, K0, dt, clamp=False):
    n, m = B.shape[0], B.shape[-1]
    r = np.exp(2.0 * alpha * dt)
    c = (r - 1.0) / (2.0 * alpha) if alpha != 0.0 else dt
    K = np.empty((n, m, m))
    K[0] = K0
    if 2.0 * alpha * dt * (n - 1) <= 2.0:
        idx = np.arange(1, n)[:, None, None]
        Kt = K[1:]
        np.multiply(r ** -idx, B[:-1], out=Kt)
        np.cumsum(Kt, axis=0, out=Kt)
        Kt *= c
        Kt += K0
        Kt *= r ** idx
    else:
        from scipy.signal import lfilter
        K[1:] = lfilter([c], [1.0, -r], B[:-1].reshape(n - 1, -1), axis=0,
                        zi=r * K0.reshape(1, -1))[0].reshape(n - 1, m, m)
    return stacked_floor(K, clamp)


def stacked_schedule(G_D, G_K, Ddot, alpha, H, K0, tgrid, clamp=False):
    """The traces of TRACES, built on (n, m, m) stacks."""
    lam_C = eigvalsh_stack(np.negative(G_K, out=G_K))[..., -1].copy()
    B = np.add(-alpha * Ddot, G_K, out=G_K)
    K = stacked_flow(B, alpha, K0, tgrid[1] - tgrid[0], clamp=clamp)
    lam_A = eigvalsh_stack(np.negative(G_D, out=G_D))[..., -1].copy()
    D = np.subtract(alpha * H, G_D, out=G_D)
    with np.errstate(over="ignore"):
        Kdot = np.add(2.0 * alpha * K, B, out=B)
    if not np.isfinite(Kdot).all():
        raise IntegrationDivergedError("non-finite Kdot")
    return dict(K=K, D=D, Kdot=Kdot, Ddot=Ddot, lam_A=lam_A, lam_C=lam_C)


# ---------------------------------------------------------------------------
# Row pipeline against the oracle
# ---------------------------------------------------------------------------

def symmetric(rng, m, scale):
    X = rng.standard_normal((m, m))
    return scale * np.eye(m) + 0.5 * (X + X.T)


def slacks(rng, m, n, scale=0.5):
    """Smooth random packed slacks (S_D, S_K, Sd_D), (n, tri_dim(m)) each."""
    s = 2.0 * np.pi * np.linspace(0.0, 1.0, n)[:, None]
    return tuple(scale * (rng.standard_normal(tri_dim(m))
                          + np.sin((1 + k) * s + rng.uniform(0, 1)))
                 for k in range(3))


def outcome(build, *args, **kwargs):
    """The build's traces as bytes, or the class of the error it raised."""
    try:
        traces = build(*args, **kwargs)
    except (CertifiedFloorError, IntegrationDivergedError) as exc:
        return type(exc)
    if not isinstance(traces, dict):
        traces = {name: getattr(traces, name) for name in TRACES}
    return {name: traces[name].tobytes() for name in TRACES}


def both_outcomes(S, alpha, H, K0, tgrid, clamp=False, lin=None):
    """(rows, oracle) outcomes of one slack triple.  lin = (after, S')
    subtracts the products of the slacks S' on the steps after, as the
    ablation does."""
    got_products = slack_products(*S)
    ref_products = stacked_slack_products(*S)
    if lin is not None:
        after, S_lin = lin
        for G, dG in zip(got_products, slack_products(*S_lin)):
            G[:, after] -= dG
        for G, dG in zip(ref_products, stacked_slack_products(*S_lin)):
            G[after] -= dG
    got = outcome(schedule_from_products, *got_products, alpha, H, K0, tgrid,
                  clamp=clamp)
    ref = outcome(stacked_schedule, *ref_products, alpha, H, K0, tgrid,
                  clamp=clamp)
    return got, ref


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [0.05, 1.0])
def test_rows_match_the_stacked_build(m, alpha, rng):
    # 2 alpha dt (n - 1) is 0.2 (the closed form) or 4 (lfilter).
    n = 2001
    tgrid = np.arange(n) * 1e-3
    assert (2.0 * alpha * 1e-3 * (n - 1) > 2.0) == (alpha == 1.0)
    got, ref = both_outcomes(slacks(rng, m, n), alpha, symmetric(rng, m, 1.0),
                             symmetric(rng, m, 200.0), tgrid)
    assert isinstance(ref, dict)
    assert got == ref


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_rows_match_the_stacked_clamp_on_indefinite_products(m, rng):
    # The ablation's products: S S^T less (S - Sn)(S - Sn)^T after the via
    # step, sign-indefinite, with a stiffness slack that drives K below the
    # floor, so the clamp floors it through eigh.
    n = 2001
    tgrid = np.arange(n) * 1e-3
    S_D, S_K, Sd_D = slacks(rng, m, n)
    S_K = 8.0 * S_K
    after = tgrid > 0.6
    Sn_D, Sn_K = (rng.standard_normal(tri_dim(m)) for _ in range(2))
    S_lin = (S_D[after] - Sn_D, S_K[after] - Sn_K, Sd_D[after])
    args = ((S_D, S_K, Sd_D), 0.05, symmetric(rng, m, 1.0), 1.0 * np.eye(m),
            tgrid)
    assert both_outcomes(*args, lin=(after, S_lin)) == (CertifiedFloorError,
                                                        CertifiedFloorError)
    got, ref = both_outcomes(*args, clamp=True, lin=(after, S_lin))
    assert isinstance(ref, dict)
    assert got == ref


@pytest.mark.parametrize("alpha, k0, error", [
    (0.05, 1.0, CertifiedFloorError),           # K driven through zero
    (100.0, 200.0, IntegrationDivergedError),   # e^1000: K overflows
    (70.0, 200.0, IntegrationDivergedError),    # K finite, Kdot not
])
def test_rows_fail_like_the_stacked_build(alpha, k0, error, rng):
    n = 5001
    tgrid = np.arange(n) * 1e-3
    S = slacks(rng, 3, n, scale=0.0)
    if error is CertifiedFloorError:
        S = (S[0], S[1] + np.sqrt(50.0) * np.r_[1.0, 1.0, 1.0, 0, 0, 0], S[2])
    got, ref = both_outcomes(S, alpha, np.eye(3), k0 * np.eye(3), tgrid)
    assert got is ref is error
