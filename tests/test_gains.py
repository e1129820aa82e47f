"""Slack parametrization, the stiffness flow, and certificate margins."""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from cgms.dmp import build_basis
from cgms.errors import (
    CertifiedFloorError,
    ContractViolationError,
    IntegrationDivergedError,
)
from cgms.gains import (
    K_EIG_FLOOR,
    CertificateReport,
    SlackParams,
    build_gain_schedule,
    constant_slack_params,
    integrate_cholesky_flow,
    schedule_from_products,
    slack_products,
    slack_trace,
    stiffness_floor,
    tri_dim,
    unpack_rows,
    vec_triangle,
)
from cgms import cli
from conftest import checkout_env, eigvalsh_stack, vec_triangle_inverse

ALPHA = 0.05
H3 = np.eye(3)


def random_slack_params(rng, m=3, scale=1.0, basis=None):
    basis = basis or build_basis(7, 0.7)
    d = tri_dim(m)
    return SlackParams(theta_d=scale * rng.standard_normal((basis.count, d)),
                       theta_k=scale * rng.standard_normal((basis.count, d)),
                       basis=basis, m=m)


def unpacked_slack(sp, s_all):
    """slack_trace's (S_D, S_K, Sdot_D) unpacked to (n, m, m) stacks."""
    return tuple(vec_triangle_inverse(S, sp.m) for S in slack_trace(
        sp.theta_d, sp.theta_k, sp.basis.eval_deriv(s_all)))


def slack_at(sp, s):
    """(S_D, S_K) of slack_trace at the single phase s."""
    S_D, S_K, _ = unpacked_slack(sp, np.array([s]))
    return S_D[0], S_K[0]


def constant_slack(S_D):
    """Single-basis slack params holding a constant S_D and a zero S_K."""
    row = vec_triangle(S_D)[None]
    return SlackParams(theta_d=row, theta_k=np.zeros_like(row),
                       basis=build_basis(1, 0.5), m=S_D.shape[0])


def short_schedule(sp, tgrid=np.arange(0.0, 0.01, 1e-3), tau=1.0):
    return build_gain_schedule(sp, ALPHA, H3, tau, 200 * np.eye(3), tgrid)


def rows(A):
    """A symmetric (n, m, m) stack as the packed rows (tri_dim(m), n) that
    the schedule build works on."""
    return vec_triangle(A).T


def flow_on_stack(B, alpha, K0, dt, clamp=False):
    """integrate_cholesky_flow on a symmetric (n, m, m) B stack, unpacked."""
    K = integrate_cholesky_flow(rows(B), alpha, K0, dt, clamp=clamp)
    return unpack_rows(K, B.shape[-1])


def floor_on_stack(K, clamp=False):
    """stiffness_floor on a symmetric (n, m, m) stack: the stack itself when
    its rows pass, else the floored rows unpacked."""
    P = rows(K)
    out = stiffness_floor(P, clamp)
    return K if out is P else unpack_rows(out, K.shape[-1])


# ---------------------------------------------------------------------------
# vec_triangle
# ---------------------------------------------------------------------------

def test_vec_triangle_scalar_and_zero():
    assert np.array_equal(vec_triangle_inverse(np.array([3.0]), 1), [[3.0]])
    assert np.array_equal(vec_triangle_inverse(np.zeros(6), 3),
                          np.zeros((3, 3)))


def test_vec_triangle_round_trip(rng):
    for m in (1, 2, 3, 5):
        v = rng.standard_normal(tri_dim(m))
        L = vec_triangle_inverse(v, m)
        assert np.array_equal(vec_triangle(L), v)
        assert np.array_equal(np.triu(L, 1), np.zeros((m, m)))


def test_vec_triangle_ordering():
    # Diagonal entries first, then strict lower triangle column-major.
    v = np.arange(1.0, 7.0)
    L = vec_triangle_inverse(v, 3)
    expected = np.array([[1.0, 0.0, 0.0],
                         [4.0, 2.0, 0.0],
                         [5.0, 6.0, 3.0]])
    assert np.array_equal(L, expected)


def test_vec_triangle_wrong_length():
    with pytest.raises(ValueError):
        vec_triangle_inverse(np.zeros(5), 3)


# ---------------------------------------------------------------------------
# slack evaluation
# ---------------------------------------------------------------------------

def test_slack_zero_params():
    basis = build_basis(7, 0.7)
    sp = SlackParams(theta_d=np.zeros((7, 6)), theta_k=np.zeros((7, 6)),
                     basis=basis, m=3)
    S_D, S_K = slack_at(sp, 0.4)
    assert np.array_equal(S_D, np.zeros((3, 3)))
    assert np.array_equal(S_K, np.zeros((3, 3)))


@pytest.mark.parametrize("channel", ["theta_d", "theta_k"])
def test_slack_params_check_their_shapes(channel):
    shapes = dict(theta_d=np.zeros((7, 6)), theta_k=np.zeros((7, 6)))
    shapes[channel] = np.zeros((7, 3))
    with pytest.raises(ValueError, match=f"{channel} shape mismatch"):
        SlackParams(**shapes, basis=build_basis(7, 0.7), m=3)


def test_slack_constant_single_basis(rng):
    basis = build_basis(1, 0.5)
    row = vec_triangle(np.tril(rng.standard_normal((3, 3))))
    sp = SlackParams(theta_d=row[None], theta_k=row[None], basis=basis, m=3)
    for s in (0.0, 0.5, 1.0):
        S_D, _ = slack_at(sp, s)
        assert np.allclose(vec_triangle(S_D), row, atol=1e-14)


def test_slack_derivative_finite_difference(rng):
    sp = random_slack_params(rng)
    h = 1e-6
    for s in (0.2, 0.55, 0.9):
        plus = slack_at(sp, s + h)[0]
        minus = slack_at(sp, s - h)[0]
        fd = (plus - minus) / (2 * h)
        _, _, Sd_D = unpacked_slack(sp, np.array([s]))
        assert np.abs(Sd_D[0] - fd).max() < 1e-5


def test_slack_noise_pairing(rng):
    # The slack is linear in the weights: a sample theta + xi has the slack
    # of theta plus the slack of the noise xi alone.
    sp = random_slack_params(rng)
    xi_d = rng.standard_normal(sp.theta_d.shape)
    shifted = SlackParams(theta_d=sp.theta_d + xi_d, theta_k=sp.theta_k,
                          basis=sp.basis, m=3)
    noise = SlackParams(theta_d=xi_d, theta_k=np.zeros_like(xi_d),
                        basis=sp.basis, m=3)
    S_D, S_K = slack_at(shifted, 0.3)
    ref_D, ref_K = slack_at(sp, 0.3)
    assert np.allclose(S_D, ref_D + slack_at(noise, 0.3)[0], atol=1e-15)
    assert np.allclose(S_K, ref_K, atol=1e-15)


def test_damping_from_slack():
    D = short_schedule(constant_slack(np.zeros((3, 3)))).D
    assert np.allclose(D, 0.05 * np.eye(3))
    S = np.sqrt(29.95) * np.eye(3)
    D = short_schedule(constant_slack(S)).D
    assert np.allclose(D, 30.0 * np.eye(3), atol=1e-12)


def test_damping_lmi_by_construction(rng):
    for _ in range(20):
        S = np.tril(rng.standard_normal((3, 3)))
        D = short_schedule(constant_slack(S)).D
        lam = np.linalg.eigvalsh(ALPHA * H3 - D).max()
        assert lam <= 1e-12


def test_damping_rate_finite_difference(rng):
    # The analytic Ddot of a schedule against central differences of its D.
    sp = random_slack_params(rng)
    tau = 5.0
    h = 1e-6
    for s in (0.3, 0.7):
        tgrid = tau * (1.0 - s) + h * np.arange(-1.0, 2.0)
        sched = short_schedule(sp, tgrid, tau)
        Dd = sched.Ddot[1]
        assert np.abs(Dd - Dd.T).max() < 1e-12
        fd = (sched.D[2] - sched.D[0]) / (tgrid[2] - tgrid[0])
        assert np.abs(Dd - fd).max() < 1e-5


def test_constant_slack_rate_is_zero(rng):
    basis = build_basis(1, 0.5)
    sp = random_slack_params(rng, basis=basis)
    assert np.allclose(short_schedule(sp).Ddot, 0.0, atol=1e-12)
    sp0 = SlackParams(theta_d=np.zeros((7, 6)), theta_k=np.zeros((7, 6)),
                      basis=build_basis(7, 0.7), m=3)
    assert np.array_equal(short_schedule(sp0).Ddot, np.zeros((10, 3, 3)))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("rank", ["full", "deficient"])
def test_slack_products_match_batched_matmul(m, rank, rng):
    # The packed column products against a batched matmul of the unpacked
    # triangles, packed to rows, with row scales from 1e-6 to 1e6.  A
    # deficient slack has a zero first and last diagonal entry (for m = 1,
    # a zero slack).
    n = 400
    S_D, S_K, Sd_D = (rng.standard_normal((n, tri_dim(m)))
                      * 10.0 ** rng.uniform(-6, 6, (n, 1)) for _ in range(3))
    if rank == "deficient":
        for S in (S_D, S_K, Sd_D):
            S[:, [0, m - 1]] = 0.0
    G_D, G_K, Ddot = slack_products(S_D, S_K, Sd_D)
    U_D, U_K, Ud_D = (vec_triangle_inverse(S, m) for S in (S_D, S_K, Sd_D))
    norm = lambda S: np.linalg.norm(S, axis=1)
    T = lambda U: np.swapaxes(U, 1, 2)
    for got, ref, bound in (
            (G_D, U_D @ T(U_D), norm(S_D) ** 2),
            (G_K, U_K @ T(U_K), norm(S_K) ** 2),
            (Ddot, Ud_D @ T(U_D) + U_D @ T(Ud_D), 2 * norm(Sd_D) * norm(S_D))):
        assert got.shape == (tri_dim(m), n) and got.flags.c_contiguous
        assert (np.abs(got - rows(ref)).max(axis=0) <= 1e-14 * bound).all()
    for G in (G_D, G_K):
        assert (G[:m] >= 0.0).all()


# ---------------------------------------------------------------------------
# Stiffness flow
# ---------------------------------------------------------------------------

def test_flow_step_zero_b_is_exponential():
    K = flow_on_stack(np.zeros((2, 3, 3)), ALPHA, 200.0 * np.eye(3), 1e-3)
    K_expected = np.exp(2 * ALPHA * 1e-3) * 200.0 * np.eye(3)
    assert np.abs(K[1] - K_expected).max() / 200.0 < 1e-12


def test_flow_zero_slack_certificate_boundary():
    # S_K = 0, Ddot = 0 gives Kdot - 2 alpha K = 0 exactly.
    tgrid = np.arange(0.0, 1.0, 1e-3)
    B = np.zeros((len(tgrid), 3, 3))
    K = flow_on_stack(B, ALPHA, 200.0 * np.eye(3), 1e-3)
    expected = np.exp(2 * ALPHA * tgrid)[:, None, None] * 200.0 * np.eye(3)
    assert np.abs(K - expected).max() / 200.0 < 1e-12
    lam_C = np.linalg.eigvalsh(2 * ALPHA * K + B - 2 * ALPHA * K)[..., -1]
    assert np.abs(lam_C).max() == 0.0


def test_flow_kdot_identity_finite_difference(rng):
    # Kdot = 2 alpha K + B along the integrated flow at dt = 1e-4.
    dt = 1e-4
    tgrid = np.arange(0.0, 1.0, dt)
    sp = random_slack_params(rng, scale=0.5)
    tau = 1.0
    s_all = 1.0 - tgrid / tau
    S_D, S_K, Sd_D = unpacked_slack(sp, s_all)
    Sd_D = Sd_D * (-1.0 / tau)
    SDt = np.swapaxes(S_D, 1, 2)
    Ddot = Sd_D @ SDt + S_D @ np.swapaxes(Sd_D, 1, 2)
    B = -ALPHA * Ddot - S_K @ np.swapaxes(S_K, 1, 2)
    K = flow_on_stack(B, ALPHA, 200.0 * np.eye(3), dt)
    fd = (K[2:] - K[:-2]) / (2 * dt)
    target = 2 * ALPHA * K[1:-1] + B[1:-1]
    rel = np.abs(fd - target).max() / max(np.abs(target).max(), 1.0)
    assert rel < 1e-3
    assert np.linalg.eigvalsh(K)[..., 0].min() > 0


def test_flow_holds_the_nominal_stiffness_at_large_alpha_T():
    # alpha T = 20: the constant slack of K = 200 I drives the flow at its
    # equilibrium, which grows any deviation by e**40.  The closed form's
    # cancellation gave eigenvalues from 103 to 4.4e5; the update applied
    # step by step keeps 200 I.
    alpha, T = 2.0, 10.0
    basis = build_basis(7, 0.7)
    sp = SlackParams(*constant_slack_params(basis, 3, 30.0, 200.0, alpha, H3),
                     basis=basis, m=3)
    tgrid = np.arange(0.0, T + 5e-4, 1e-3)
    K = build_gain_schedule(sp, alpha, H3, T, 200 * np.eye(3), tgrid).K
    assert np.abs(K - 200.0 * np.eye(3)).max() <= 1e-9 * 200.0


@pytest.mark.parametrize("alpha", [0.05, 1.0])
def test_flow_matches_the_step_update(alpha, rng):
    # 2 alpha T = 0.2 takes the closed form, 2 alpha T = 4 the step-by-step
    # recurrence; both must be K[i+1] = r K[i] + c B[i] applied per step.
    # Both act on each packed entry alone, and K is unpacked from its
    # lower triangle, so it equals its transpose bit for bit.
    n, dt = 2001, 1e-3
    B = rng.standard_normal((n, 3, 3))
    B = B + np.swapaxes(B, 1, 2)
    K = flow_on_stack(B, alpha, 200.0 * np.eye(3), dt)
    assert np.array_equal(K, np.swapaxes(K, 1, 2))
    r = np.exp(2 * alpha * dt)
    c = (r - 1) / (2 * alpha)
    Ki = 200.0 * np.eye(3)
    for i in range(n - 1):
        Ki = r * Ki + c * B[i]
        assert np.abs(K[i + 1] - Ki).max() <= 1e-12 * np.abs(Ki).max()


DEFAULT_SCHEDULE_IMPORTS = """
import sys
import numpy as np
import cgms.cli
from cgms.dmp import build_basis
from cgms.gains import SlackParams, build_gain_schedule, constant_slack_params
basis = build_basis(7, 0.7)
sp = SlackParams(*constant_slack_params(basis, 3, 30.0, 200.0, 0.05, np.eye(3)),
                 basis=basis, m=3)
tgrid = np.arange(0.0, 5.0 + 5e-4, 1e-3)
sched = build_gain_schedule(sp, 0.05, np.eye(3), 5.0, 200 * np.eye(3), tgrid)
assert sched.report().passes
print(sorted(name for name in sys.modules if name.startswith("scipy.signal")))
"""

DEFAULT_TRAIN_IMPORTS = """
import sys
from cgms.cli import EXIT_OK, main
assert main(["train", "--config", sys.argv[1], "--out", sys.argv[2]]) == EXIT_OK
print(sorted(name for name in sys.modules if name.startswith("scipy.signal")))
"""


def scipy_signal_modules_after(script, *args):
    """The scipy.signal modules that a fresh interpreter has loaded once it
    has run script (with argv args) against this checkout's src."""
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=checkout_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_default_schedule_leaves_scipy_signal_unimported():
    # The flow imports scipy.signal only past e^2 of growth, and nothing
    # else in the package imports it.  Loading it costs about 1 s of CPU
    # and 70 MB of RSS, which a process that builds schedules, such as the
    # benchmark's robustness_ensemble, must not pay.
    assert scipy_signal_modules_after(DEFAULT_SCHEDULE_IMPORTS) == "[]"


def test_default_train_leaves_scipy_signal_unimported(tmp_path):
    # A default `cgms train` runs the DMP reference and the flow below e^2
    # in numpy alone, so its rollouts load no scipy.signal module either.
    config = tmp_path / "one_by_two.ini"
    config.write_text("[run]\nupdates = 1\nrollouts = 2\n")
    modules = scipy_signal_modules_after(DEFAULT_TRAIN_IMPORTS, str(config),
                                         str(tmp_path / "out"))
    assert modules == "[]"


def test_gains_imports_no_robustness():
    # gains owns the packed-triangle layout and its eigenvalues, and
    # robustness reads them from there: the import runs one way only.
    script = "import sys, cgms.gains; print('cgms.robustness' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script], env=checkout_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_flow_rejects_lost_definiteness():
    # Strongly negative B drives K through zero; must reject, not clamp.
    n = 2000
    B = np.tile(-50.0 * np.eye(2), (n, 1, 1))
    with pytest.raises(CertifiedFloorError):
        flow_on_stack(B, ALPHA, 1.0 * np.eye(2), 1e-3)


def test_flow_clamp_mode_stays_finite():
    n = 2000
    B = np.tile(-50.0 * np.eye(2), (n, 1, 1))
    K = flow_on_stack(B, ALPHA, 1.0 * np.eye(2), 1e-3, clamp=True)
    assert np.all(np.isfinite(K))
    assert np.linalg.eigvalsh(K)[..., 0].min() >= 0.0


def stacks_with_min_eigenvalue(rng, n, lam_min):
    """n random symmetric 3x3 matrices with spectrum (lam_min, 1, 2)."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    K = Q @ (np.array([lam_min, 1.0, 2.0])[:, None] * np.swapaxes(Q, 1, 2))
    return 0.5 * (K + np.swapaxes(K, 1, 2))


def eigh_clamp(K):
    w, V = np.linalg.eigh(K)
    K = np.einsum("nij,nj,nkj->nik", V, np.maximum(w, K_EIG_FLOOR), V)
    return 0.5 * (K + np.swapaxes(K, 1, 2))


def accepted(K):
    try:
        floor_on_stack(K)
    except CertifiedFloorError:
        return False
    return True


@pytest.mark.parametrize("lam_min, ok", [(1e-11, True), (1e-13, False),
                                         (-1.0, False)])
def test_floor_check_agrees_with_eigvalsh(lam_min, ok, rng):
    # The floor accepts a stack whose least eigenvalue is ten times the
    # floor and rejects one a tenth of it.
    K = stacks_with_min_eigenvalue(rng, 50, lam_min)
    assert accepted(K) == ok
    assert ok == (np.linalg.eigvalsh(K)[..., 0].min() >= K_EIG_FLOOR)
    if ok:
        assert floor_on_stack(K) is K


def test_floor_clamp_matches_the_eigh_path(rng):
    K = stacks_with_min_eigenvalue(rng, 50, -1.0)
    np.testing.assert_array_equal(floor_on_stack(K, clamp=True),
                                  eigh_clamp(K))


@pytest.mark.parametrize("bad", [0, 2917, 5001])
def test_floor_check_finds_one_bad_sample(bad, rng):
    # 5001 good samples and one bad one: the first, a middle and the last.
    K = stacks_with_min_eigenvalue(rng, 5002, 1.0)
    assert accepted(K)
    K[bad] = stacks_with_min_eigenvalue(rng, 1, 1e-13)[0]
    assert not accepted(K)
    assert np.linalg.eigvalsh(K)[..., 0].min() < K_EIG_FLOOR


def test_floor_check_passes_no_nan_stack(rng):
    # eigvalsh raises LinAlgError on a NaN; the floor names the non-finite
    # stack before eigvalsh sees it.
    K = stacks_with_min_eigenvalue(rng, 10, 1.0)
    K[4] = np.nan
    with pytest.raises(IntegrationDivergedError, match="stiffness flow"):
        floor_on_stack(K)


@pytest.mark.parametrize("clamp", [False, True])
@pytest.mark.parametrize("bad", ["inf_matrix", "one_nan_pair",
                                 "diagonal_nan"])
def test_floor_names_a_non_finite_stack(bad, clamp, rng):
    # An overflowed matrix, or one NaN entry (a mirrored pair, one packed
    # off-diagonal row entry, or on a diagonal row), is a diverged flow in
    # either mode: not a floor rejection to resample, and not a clamped
    # schedule.
    K = stacks_with_min_eigenvalue(rng, 10, 1.0)
    if bad == "inf_matrix":
        K[4] = np.inf
    elif bad == "one_nan_pair":
        K[4, 1, 2] = K[4, 2, 1] = np.nan
    else:
        K[4, 1, 1] = np.nan
    with pytest.raises(IntegrationDivergedError, match="stiffness flow"):
        floor_on_stack(K, clamp=clamp)


def floor_oracle(K, clamp=False):
    """stiffness_floor's verdict from LAPACK alone: eigvalsh, then with
    clamp=True the eigh floor."""
    if np.linalg.eigvalsh(K)[..., 0].min() >= K_EIG_FLOOR:
        return K
    if not clamp:
        raise CertifiedFloorError("below the floor")
    return eigh_clamp(K)


def floor_outcome(floor, K, clamp=False):
    """The stack a floor check returns (the input itself when it passes), or
    the rejection."""
    try:
        out = floor(K, clamp)
    except CertifiedFloorError:
        return "rejected"
    return "unchanged" if out is K else out


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
def test_floor_pretest_keeps_every_verdict(scale, rng):
    # Spectrum (lam_min, lam_min + scale, lam_min + 2 scale), with lam_min
    # below, at, around and above the floor: per matrix and per stack, the
    # verdict and output are those of LAPACK's eigvalsh and the eigh clamp.
    for lam_min in (-1.0, 0.0, K_EIG_FLOOR * (1 - 1e-3),
                    K_EIG_FLOOR * (1 + 1e-3), 1e-9, 1.0):
        lam = lam_min + scale * np.array([0.0, 1.0, 2.0])
        K = rotated(rng, np.tile(lam, (40, 1)))
        K = 0.5 * (K + np.swapaxes(K, 1, 2))
        for clamp in (False, True):
            for k in (K, *K[:, None]):
                got = floor_outcome(floor_on_stack, k, clamp)
                ref = floor_outcome(floor_oracle, k, clamp)
                if isinstance(ref, str):
                    assert got == ref, (lam_min, scale)
                else:
                    np.testing.assert_array_equal(got, ref)


def lapack_spy(monkeypatch, name):
    """Record the shape of every np.linalg.<name> call that follows."""
    calls = []
    routine = getattr(np.linalg, name)

    def spy(A, *args, **kwargs):
        calls.append(A.shape)
        return routine(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


@pytest.mark.parametrize("lam_min", [K_EIG_FLOOR * (1 - 1e-3),
                                     K_EIG_FLOOR * (1 + 1e-3), 1e-9])
def test_near_floor_stacks_reach_eigvalsh(lam_min, monkeypatch, rng):
    # Pivots within 1e-9 max(1, max diag K) of the floor fail the pre-test;
    # eigvalsh_rows then hands LAPACK the matrices with an eigenvalue near 0.
    K = stacks_with_min_eigenvalue(rng, 50, 0.5)
    near = np.arange(3, 50, 7)
    K[near] = stacks_with_min_eigenvalue(rng, len(near), lam_min)
    calls = lapack_spy(monkeypatch, "eigvalsh")
    got = floor_outcome(floor_on_stack, K)
    assert calls == [(len(near), 3, 3)]
    assert got == ("unchanged" if lam_min > K_EIG_FLOOR else "rejected")


def test_clear_stacks_skip_lapack(monkeypatch, rng):
    K = stacks_with_min_eigenvalue(rng, 5001, 1.0)
    calls = [lapack_spy(monkeypatch, name) for name in ("eigvalsh", "cholesky")]
    assert floor_on_stack(K) is K
    assert calls == [[], []]


def test_floor_pretest_is_for_3x3_only(monkeypatch):
    # An m = 2 stack goes to eigvalsh whatever its margin.
    K = np.tile(200.0 * np.eye(2), (10, 1, 1))
    calls = lapack_spy(monkeypatch, "eigvalsh")
    assert floor_on_stack(K) is K
    assert calls == [(10, 2, 2)]


@pytest.mark.parametrize("clamp", [False, True])
def test_floor_below_zero_makes_no_cholesky_call(clamp, monkeypatch, rng):
    K = stacks_with_min_eigenvalue(rng, 50, -1.0)
    calls = lapack_spy(monkeypatch, "cholesky")
    floor_outcome(floor_on_stack, K, clamp)
    assert calls == []


def test_floor_pretest_warns_nothing_on_zero_pivots():
    # A zero leading pivot divides by zero in the pre-test; it falls
    # through to eigvalsh_rows without a RuntimeWarning.
    K = np.tile(np.diag([K_EIG_FLOOR, 1.0, 1.0]), (5, 1, 1))
    K[:, 1, 0] = K[:, 0, 1] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CertifiedFloorError):
            floor_on_stack(K)


def test_flow_overflow_raises_integration_diverged():
    # alpha = 100 over 5 s: the growth e^(2 alpha T) = e^1000 overflows.
    with pytest.raises(IntegrationDivergedError, match="stiffness flow"):
        flow_on_stack(np.zeros((5001, 3, 3)), 100.0, 200.0 * np.eye(3), 1e-3)


def test_schedule_with_a_non_finite_rate_raises_integration_diverged():
    # alpha = 70 over 5 s: K reaches 2.0e306, still finite, but its rate
    # 2 alpha K + B does not fit in a float.
    n = 5001
    zeros = np.zeros((6, n))
    with pytest.raises(IntegrationDivergedError, match="Kdot"):
        schedule_from_products(zeros, zeros, zeros, 70.0, H3,
                               200.0 * np.eye(3), np.arange(n) * 1e-3)


def test_flow_step_rejects_floor():
    # A stiffness of 1e-13 already sits below the 1e-12 eigenvalue floor,
    # which must reject rather than continue.
    with pytest.raises(CertifiedFloorError):
        flow_on_stack(np.zeros((2, 2, 2)), ALPHA, 1e-13 * np.eye(2), 1e-3)


# ---------------------------------------------------------------------------
# certificate margins
# ---------------------------------------------------------------------------

SYMMETRY_TOL = 1e-9


def _check_symmetric(name, A):
    err = np.abs(A - np.swapaxes(A, -1, -2)).max()
    if err > SYMMETRY_TOL:
        raise ContractViolationError(f"{name} asymmetric by {err:.3e}")


def certificate_margins(H, alpha, D, Ddot, K, Kdot):
    """Eigenvalue audit of the two stability inequalities over a schedule.

    An oracle independent of the library's certificate traces, for the
    tests to audit executed schedules with.  All matrix arguments are
    (n, m, m) stacks (or single matrices).
    """
    D, Ddot, K, Kdot = (np.asarray(a, float)[None] if np.asarray(a).ndim == 2
                        else np.asarray(a, float) for a in (D, Ddot, K, Kdot))
    for name, A in (("D", D), ("Ddot", Ddot), ("K", K), ("Kdot", Kdot)):
        _check_symmetric(name, A)
    lam_A = np.linalg.eigvalsh(alpha * H - D)[..., -1]
    lam_C = np.linalg.eigvalsh(Kdot + alpha * Ddot - 2.0 * alpha * K)[..., -1]
    return CertificateReport(lam_A=lam_A, lam_C=lam_C, alpha=alpha)


def test_margins_constant_init():
    D = 30.0 * np.eye(3)
    K = 200.0 * np.eye(3)
    zero = np.zeros((3, 3))
    # Constant gains: Kdot = Ddot = 0, so lam_C = -2 alpha k = -20.
    rep = certificate_margins(H3, ALPHA, D, zero, K, zero)
    assert abs(rep.lam_A.max() + 29.95) < 1e-12
    assert abs(rep.lam_C.max() + 20.0) < 1e-12
    assert rep.passes and rep.passes_strict
    assert abs(rep.eps_D - 29.95) < 1e-12
    assert abs(rep.eps_K - 20.0) < 1e-12


def test_margins_zero_slack_boundary():
    D = ALPHA * H3
    K = 200.0 * np.eye(3)
    zero = np.zeros((3, 3))
    rep = certificate_margins(H3, ALPHA, D, zero, K, 2 * ALPHA * K)
    assert abs(rep.lam_A.max()) < 1e-14
    assert rep.passes
    assert not rep.passes_strict


def test_margins_asymmetric_rejected():
    D = 30.0 * np.eye(3)
    D[0, 1] = 1e-6
    zero = np.zeros((3, 3))
    with pytest.raises(ContractViolationError):
        certificate_margins(H3, ALPHA, D, zero, 200 * np.eye(3), zero)


def test_schedule_certified_by_construction(rng):
    # 100 random parameter draws: both eigenvalue traces nonpositive and
    # the algebraic residual (Kdot + alpha Ddot - 2 alpha K) + S_K S_K^T
    # vanishes.
    basis = build_basis(7, 0.7)
    tgrid = np.arange(0.0, 1.0, 1e-3)
    tau = 1.0
    for _ in range(100):
        sp = random_slack_params(rng, scale=0.8, basis=basis)
        sched = build_gain_schedule(sp, ALPHA, H3, tau, 200 * np.eye(3), tgrid)
        assert sched.lam_A.max() <= 1e-12
        assert sched.lam_C.max() <= 1e-12
        assert np.linalg.eigvalsh(sched.K)[..., 0].min() > 0
        s_all = 1.0 - tgrid / tau
        _, S_K, _ = unpacked_slack(sp, s_all)
        SSK = S_K @ np.swapaxes(S_K, 1, 2)
        residual = sched.Kdot + ALPHA * sched.Ddot - 2 * ALPHA * sched.K + SSK
        assert np.abs(residual).max() < 1e-8


def test_schedule_consumes_aliased_and_read_only_products_safely(rng):
    # schedule_from_products writes D, B and Kdot into its products'
    # buffers.  One array passed as several products, or a read-only view,
    # gives the schedule of distinct copies bit for bit, and no trace
    # shares memory with another: the governor blends each one in place.
    sp = random_slack_params(rng, scale=0.8)
    tgrid = np.arange(0.0, 0.2, 1e-3)
    G = slack_products(*slack_trace(sp.theta_d, sp.theta_k,
                                    sp.basis.eval_deriv(1.0 - tgrid)))[0]

    def schedule(*products):
        return schedule_from_products(*products, ALPHA, H3, 200 * np.eye(3),
                                      tgrid)

    names = ("K", "D", "Kdot", "Ddot", "lam_A", "lam_C")
    distinct = schedule(G.copy(), G.copy(), G.copy())
    read_only = np.broadcast_to(G, G.shape)
    one, two = G.copy(), G.copy()
    for products in ((one, one, one), (two, G.copy(), two[...]),
                     (read_only, read_only, read_only)):
        sched = schedule(*products)
        for name in names:
            assert (getattr(sched, name).tobytes()
                    == getattr(distinct, name).tobytes()), name
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                assert not np.shares_memory(getattr(sched, a),
                                            getattr(sched, b)), (a, b)
    assert read_only.tobytes() == G.tobytes()


def test_scale_beta_closure(rng):
    basis = build_basis(7, 0.7)
    tgrid = np.arange(0.0, 1.0, 1e-3)
    # The slacks are linear in theta, so scaling theta by sqrt(beta) is the
    # governor's contraction of both slack products by beta.
    for beta in (0.0, 0.25, 0.5, 1.0):
        sp = random_slack_params(rng, scale=0.8 * np.sqrt(beta), basis=basis)
        sched = build_gain_schedule(sp, ALPHA, H3, 1.0, 200 * np.eye(3),
                                    tgrid)
        assert sched.report().passes
    # beta = 0 is the certified floor: D = alpha H, K = exp(2 alpha t) K0.
    sp = random_slack_params(rng, scale=0.0, basis=basis)
    sched0 = build_gain_schedule(sp, ALPHA, H3, 1.0, 200 * np.eye(3), tgrid)
    assert np.abs(sched0.D - ALPHA * H3).max() < 1e-14
    expected = np.exp(2 * ALPHA * tgrid)[:, None, None] * 200 * np.eye(3)
    assert np.abs(sched0.K - expected).max() / 200.0 < 1e-10


def test_constant_slack_params_reproduce_init():
    basis = build_basis(7, 0.7)
    sp = SlackParams(*constant_slack_params(basis, 3, 30.0, 200.0, ALPHA, H3),
                     basis=basis, m=3)
    tgrid = np.arange(0.0, 5.0, 1e-3)
    sched = build_gain_schedule(sp, ALPHA, H3, 5.0, 200 * np.eye(3), tgrid)
    assert np.abs(sched.D - 30.0 * np.eye(3)).max() < 1e-9
    assert np.abs(sched.K - 200.0 * np.eye(3)).max() < 1e-6
    assert abs(sched.lam_A.max() + 29.95) < 1e-9
    assert abs(sched.lam_C.max() + 20.0) < 1e-6


def test_schedule_csv_round_trip(nominal_rollout, tmp_path):
    # cgms rollout writes the noise-free rollout's schedule to gains.csv.
    assert cli.main(["rollout", "--out", str(tmp_path)]) == cli.EXIT_OK
    sched = nominal_rollout.schedule
    path = tmp_path / "gains.csv"
    header = path.read_text().splitlines()[0]
    assert header.startswith("t,K11,K12,K13,K21")
    assert header.endswith("lamA,lamC")
    back = np.genfromtxt(path, delimiter=",", skip_header=1)
    n = len(sched.t)
    assert np.allclose(back[:, 0], sched.t)
    assert np.allclose(back[:, 1:10].reshape(n, 3, 3), sched.K)
    assert np.allclose(back[:, 10:19].reshape(n, 3, 3), sched.D)
    assert np.allclose(back[:, -2], sched.lam_A)


def test_write_csv_format(tmp_path):
    # Ints verbatim, floats round-tripping; no rows gives the header alone.
    path = tmp_path / "trace.csv"
    cli.write_csv(path, ["update", "cost"], [[3, 0.1], [4, np.float64(2.0)]])
    assert path.read_text() == "update,cost\n3,0.10000000000000001\n4,2\n"
    cli.write_csv(path, ["update", "cost"], [])
    assert path.read_text() == "update,cost\n"


# ---------------------------------------------------------------------------
# eigvalsh_stack against eigvalsh
# ---------------------------------------------------------------------------

def frobenius(A):
    """Per-matrix Frobenius norms of a stack, without overflow."""
    s = np.abs(A).max(axis=(1, 2))
    s[s == 0.0] = 1.0
    return s * np.linalg.norm(A / s[:, None, None], axis=(1, 2))


def assert_matches_eigvalsh(A):
    """eigvalsh_stack within 1e-12 max(1, ||A||_F) of eigvalsh on every
    matrix, with the same sign of the largest eigenvalue, and LAPACK's
    values bitwise where an eigenvalue sits within 1e-10 max(1, ||A||_F) of
    zero (inside the band that eigvalsh_stack hands to eigvalsh)."""
    got, ref = eigvalsh_stack(A), np.linalg.eigvalsh(A)
    assert got.shape == ref.shape
    scale = np.maximum(1.0, frobenius(A))
    err = (np.abs(got - ref).max(axis=1) / scale).max()
    assert err <= 1e-12, err
    assert np.array_equal(np.sign(got[:, -1]), np.sign(ref[:, -1]))
    near_zero = (np.abs(ref).min(axis=1) <= 1e-10 * scale)
    assert np.array_equal(got[near_zero], ref[near_zero])
    return got


def rotated(rng, lam):
    """Q diag(lam) Q^T for a random orthogonal Q per row of lam (n, 3)."""
    Q, _ = np.linalg.qr(rng.standard_normal((len(lam), 3, 3)))
    return (Q * lam[:, None, :]) @ np.swapaxes(Q, 1, 2)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 216.0, 1e8])
def test_eigvalsh_stack_random_symmetric(scale, rng):
    A = scale * rng.standard_normal((2000, 3, 3))
    assert_matches_eigvalsh(A + np.swapaxes(A, 1, 2))


@pytest.mark.parametrize("gap", [0.0] + [10.0 ** -k for k in range(1, 11)])
def test_eigvalsh_stack_repeated_extremes(gap, rng):
    # The top pair, then the bottom pair, at a relative gap down to 1e-10,
    # where arccos alone loses sqrt(eps).  From 1e-4 down |r| > 1 - 1e-6,
    # so every matrix is eigvalsh's.
    base = rng.uniform(-2.0, 2.0, (300, 1)) + np.array([-3.0, 1.0, 1.0])
    top = base + np.array([0.0, 0.0, gap])
    bottom = -base[:, ::-1] + np.array([0.0, gap, 0.0])
    for lam in (top, bottom):
        A = rotated(rng, 100.0 * lam)
        got = assert_matches_eigvalsh(A)
        if gap <= 1e-4:
            assert np.array_equal(got, np.linalg.eigvalsh(A))


def test_eigvalsh_stack_multiples_of_the_identity():
    c = np.array([20.0, -29.95, 0.1, 1e-3, -7.0, 1e5, 0.0])
    got = assert_matches_eigvalsh(c[:, None, None] * np.eye(3))
    # The initial policy's G_K is 20 I exactly.
    assert np.array_equal(got[0], [20.0, 20.0, 20.0])


@pytest.mark.parametrize("rank", [1, 2])
def test_eigvalsh_stack_rank_deficient_products(rank, rng):
    S = rng.standard_normal((2000, 3, rank))
    G = S @ np.swapaxes(S, 1, 2)
    assert_matches_eigvalsh(G)
    assert_matches_eigvalsh(-G)


@pytest.mark.parametrize("top", [1e-14, -1e-14, 0.0])
def test_eigvalsh_stack_eigenvalues_at_rounding_level(top, rng):
    lam = np.sort(-rng.uniform(1.0, 200.0, (500, 3)), axis=1)
    lam[:, -1] = top
    assert_matches_eigvalsh(rotated(rng, lam))
    D = np.zeros((3, 3, 3))
    D[:, [0, 1, 2], [0, 1, 2]] = [[-3.0, -1.0, top], [top, 1.0, 2.0],
                                  [-1.0, top, 4.0]]
    assert_matches_eigvalsh(D)


def test_eigvalsh_stack_huge_scale_warns_nothing(rng):
    A = rng.standard_normal((600, 3, 3))
    A = 1e300 * (A + np.swapaxes(A, 1, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eigvalsh_stack(A)
    ref = np.linalg.eigvalsh(A)
    assert (np.abs(got - ref).max(axis=1) <= 1e-12 * frobenius(A)).all()


def test_eigvalsh_stack_nan_raises_like_eigvalsh(rng):
    A = rng.standard_normal((700, 3, 3))
    A = A + np.swapaxes(A, 1, 2)
    A[613, 2, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigvalsh(A)
    with pytest.raises(np.linalg.LinAlgError):
        eigvalsh_stack(A)


def test_eigvalsh_stack_other_shapes_are_eigvalsh(rng):
    A = rng.standard_normal((50, 2, 2))
    A = A + np.swapaxes(A, 1, 2)
    assert np.array_equal(eigvalsh_stack(A), np.linalg.eigvalsh(A))
    assert eigvalsh_stack(np.empty((0, 3, 3))).shape == (0, 3)
