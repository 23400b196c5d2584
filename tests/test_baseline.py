import math
import tracemalloc
import warnings

import numpy as np
import pytest

from brdm import baseline
from brdm.baseline import (
    _BLOCK_ELEMENTS,
    _iterate,
    action_grid,
    expected_utility,
    free_energy,
    mutual_information,
    rate_distortion_curve,
    solve_single_stage,
    solve_two_stage,
    two_stage_residuals,
    utility_table,
)
from brdm.core import GaussianTaskSpec, WorldModel, make_gaussian_task, make_rng

from conftest import make_tabular_world

TABLE_2X3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


def oracle_single_stage(table, rho, beta, iters=10_000, tol=1e-15):
    """Independent long-run fixed-point iteration with plain Python loops."""
    num_worlds = len(table)
    num_actions = len(table[0])
    marginal = [1.0 / num_actions] * num_actions
    cond = [[1.0 / num_actions] * num_actions for _ in range(num_worlds)]
    for _ in range(iters):
        new_cond = []
        for w in range(num_worlds):
            row = [marginal[j] * math.exp(beta * table[w][j]) for j in range(num_actions)]
            z = sum(row)
            new_cond.append([v / z for v in row])
        new_marginal = [
            sum(rho[w] * new_cond[w][j] for w in range(num_worlds))
            for j in range(num_actions)
        ]
        change = max(
            max(
                abs(new_cond[w][j] - cond[w][j])
                for w in range(num_worlds)
                for j in range(num_actions)
            ),
            max(abs(a - b) for a, b in zip(new_marginal, marginal)),
        )
        cond, marginal = new_cond, new_marginal
        if change < tol:
            break
    return np.array(cond), np.array(marginal)


@pytest.mark.parametrize("beta", [0.5, 1.0, 5.0])
def test_single_stage_matches_oracle_on_2x3(beta):
    world = make_tabular_world(TABLE_2X3)
    oracle_cond, oracle_marg = oracle_single_stage(TABLE_2X3, [0.5, 0.5], beta)
    policy = solve_single_stage(world, beta, grid_size=3, tol=1e-15, max_iter=10_000)
    assert np.abs(policy.cond - oracle_cond).max() < 1e-10
    assert np.abs(policy.marginal - oracle_marg).max() < 1e-10


def test_beta_zero_stays_uniform(gaussian_task):
    policy = solve_single_stage(gaussian_task, 0.0)
    assert np.allclose(policy.cond, policy.marginal[None, :])
    assert mutual_information(gaussian_task.rho, policy.cond) < 1e-12
    assert policy.converged


def test_large_beta_concentrates_on_nearest_grid_point(gaussian_task):
    spec = GaussianTaskSpec()
    policy = solve_single_stage(gaussian_task, 1e4)
    grid = policy.grid
    for w in range(6):
        near = np.abs(grid - spec.means[w]) <= 0.0051
        assert policy.cond[w, near].sum() >= 0.999


def test_single_stage_rows_normalized_and_marginal_consistent(gaussian_task):
    policy = solve_single_stage(gaussian_task, 20.0)
    assert np.allclose(policy.cond.sum(axis=1), 1.0, atol=1e-9)
    assert np.abs(gaussian_task.rho @ policy.cond - policy.marginal).max() < 1e-9


def test_high_beta_matches_per_world_argmax():
    rng = make_rng(11)
    table = rng.uniform(0.0, 1.0, size=(4, 8))
    world = make_tabular_world(table)
    policy = solve_single_stage(world, 1e4, grid_size=8)
    for w in range(4):
        assert policy.cond[w].argmax() == table[w].argmax()
        assert policy.cond[w].max() > 0.9999


def test_mutual_information_cases():
    rho = np.array([0.5, 0.5])
    assert mutual_information(rho, np.array([[0.3, 0.7], [0.3, 0.7]])) == pytest.approx(0.0)
    assert mutual_information(rho, np.array([[1.0, 0.0], [0.0, 1.0]])) == pytest.approx(1.0)
    h9 = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    got = mutual_information(rho, np.array([[0.9, 0.1], [0.1, 0.9]]))
    assert got == pytest.approx(1.0 - h9, abs=1e-12)
    assert got == pytest.approx(0.531, abs=5e-4)


def test_mutual_information_finite_with_denormal_column():
    # column 6 holds only a denormal entry, so rho * marginal underflows to 0
    cond = np.eye(6, 7)
    cond[0, 6] = 3e-323
    got = mutual_information(np.full(6, 1 / 6), cond)
    assert got == pytest.approx(math.log2(6), abs=1e-12)


def test_expected_utility_uniform_policy_matches_summation_oracle():
    spec = GaussianTaskSpec(width=0.05)
    task = make_gaussian_task(spec)
    policy = solve_single_stage(task, 0.0)
    # direct double-sum oracle over the same grid
    grid = action_grid(100)
    total = 0.0
    for w in range(6):
        for g in grid:
            total += (1.0 / 6) * (1.0 / 100) * task.utility(w, g)
    assert expected_utility(task, policy) == pytest.approx(total, abs=1e-12)


def test_deterministic_policy_at_optima_scores_one(gaussian_task):
    spec = GaussianTaskSpec()
    policy = solve_single_stage(gaussian_task, 0.0)
    cond = np.zeros_like(policy.cond)
    grid = policy.grid
    for w in range(6):
        cond[w, np.abs(grid - spec.means[w]).argmin()] = 1.0
    best = type(policy)(grid=grid, cond=cond, marginal=gaussian_task.rho @ cond)
    # grid points sit within 0.005 of each optimum, width 0.1
    assert expected_utility(gaussian_task, best) == pytest.approx(1.0, abs=1e-3)


def test_free_energy_rejects_beta_zero(gaussian_task):
    policy = solve_single_stage(gaussian_task, 0.0)
    with pytest.raises(ValueError):
        free_energy(gaussian_task, policy, 0.0)


def test_free_energy_equals_utility_for_uniform_policy(gaussian_task):
    policy = solve_single_stage(gaussian_task, 0.0)
    assert free_energy(gaussian_task, policy, 3.0) == pytest.approx(
        expected_utility(gaussian_task, policy)
    )


def test_free_energy_approaches_utility_at_huge_beta(gaussian_task):
    policy = solve_single_stage(gaussian_task, 1e6)
    fe = free_energy(gaussian_task, policy, 1e6)
    assert abs(fe - expected_utility(gaussian_task, policy)) < 1e-4


def test_free_energy_nondecreasing_over_iterations_on_2x3():
    world = make_tabular_world(TABLE_2X3)

    def solve(max_iter=10_000):
        return solve_single_stage(world, 1.0, grid_size=3, tol=1e-15, max_iter=max_iter)

    n = solve().iterations
    assert n > 1
    trace = np.array([free_energy(world, solve(k), 1.0) for k in range(1, n + 1)])
    assert (np.diff(trace) >= -1e-12).all()


def test_frontier_single_beta_zero(gaussian_task):
    points = rate_distortion_curve(gaussian_task, [0.0])
    assert len(points) == 1
    assert points[0].mutual_info_bits == pytest.approx(0.0, abs=1e-12)


def test_frontier_mi_never_below_zero(gaussian_task):
    # the beta = 0 channel is uniform up to rounding, whose sum fell to -1.6e-16
    points = rate_distortion_curve(gaussian_task, [0.0, 0.3, 5.0, 1e5, 1e6], grid_size=37)
    assert points[0].mutual_info_bits == 0.0
    assert all(p.mutual_info_bits >= 0.0 for p in points)


def test_frontier_monotone_and_boltzmann_limit(gaussian_task):
    betas = list(np.logspace(-1, 4, 20))
    points = rate_distortion_curve(gaussian_task, betas)
    mi = [p.mutual_info_bits for p in points]
    eu = [p.expected_utility for p in points]
    # the smallest betas converge slowly and are flagged at the default
    # iteration cap; their values are still accurate to ~1e-7
    assert all(p.converged for p in points if p.beta > 2.0)
    assert all(b - a >= -1e-9 for a, b in zip(mi, mi[1:]))
    assert all(b - a >= -1e-9 for a, b in zip(eu, eu[1:]))
    assert all(m <= math.log2(6) + 1e-9 for m in mi)
    assert eu[-1] > 1.0 - 1e-3
    assert abs(mi[-1] - math.log2(6)) < 0.02


def test_frontier_rejects_unsorted_betas(gaussian_task):
    with pytest.raises(ValueError):
        rate_distortion_curve(gaussian_task, [1.0, 0.5])


def test_two_stage_single_prior_reduces_to_single_stage(gaussian_task):
    # Criterion 3 compares the stage-2 policy with the single-stage solve at
    # tol 1e-14; this cheap solve checks only that stage 1 keeps all its mass
    # on the one prior.
    two = solve_two_stage(gaussian_task, beta1=1.0, beta2=1.0, num_priors=1, max_iter=100)
    assert np.allclose(two.px_given_w, 1.0)


def test_two_stage_beta2_zero_keeps_prior(gaussian_task):
    sol = solve_two_stage(gaussian_task, beta1=5.0, beta2=0.0, num_priors=3)
    assert np.abs(sol.pa_given_wx - sol.pa_given_x[None, :, :]).max() < 1e-10


def test_two_stage_adjacent_pair_partition(gaussian_task):
    # Frozen regression fixture: this seeded run lands on the adjacent
    # pairing, which is the reference partition for the trained systems.
    sol = solve_two_stage(
        gaussian_task, beta1=100.0, beta2=50.0, num_priors=3,
        tol=1e-12, max_iter=50_000, rng=make_rng(21),
    )
    assert sol.converged
    post = sol.world_posterior(gaussian_task.rho)
    pairs = sorted(tuple(np.where(post[:, x] > 0.45)[0]) for x in range(3))
    assert [tuple(int(w) for w in p) for p in pairs] == [(0, 1), (2, 3), (4, 5)]
    assert list(sol.px_given_w.argmax(axis=1)) == [0, 0, 1, 1, 2, 2]
    assert np.allclose(sol.px, 1 / 3, atol=1e-6)


def test_two_stage_residuals_small_at_convergence(gaussian_task):
    sol = solve_two_stage(
        gaussian_task, beta1=100.0, beta2=50.0, num_priors=3,
        tol=1e-12, max_iter=50_000, rng=make_rng(21),
    )
    res = two_stage_residuals(gaussian_task, sol)
    assert max(res.values()) < 1e-10


def test_two_stage_normalization_and_marginal_consistency(gaussian_task):
    sol = solve_two_stage(gaussian_task, beta1=10.0, beta2=10.0, num_priors=3, tol=1e-12)
    assert np.allclose(sol.px_given_w.sum(axis=1), 1.0, atol=1e-9)
    assert np.allclose(sol.pa_given_wx.sum(axis=2), 1.0, atol=1e-9)
    assert np.abs(gaussian_task.rho @ sol.px_given_w - sol.px).max() < 1e-9
    pwx = sol.world_posterior(gaussian_task.rho)
    marg = np.einsum("kx,kxg->xg", pwx, sol.pa_given_wx)
    assert np.abs(marg - sol.pa_given_x).max() < 1e-9


def test_two_stage_more_priors_than_worlds_warns():
    world = make_tabular_world(TABLE_2X3)
    with pytest.warns(UserWarning):
        solve_two_stage(world, 1.0, 1.0, num_priors=3, grid_size=3)


def test_utility_table_shape(gaussian_task):
    grid = action_grid(10)
    table = utility_table(gaussian_task, grid)
    assert table.shape == (6, 10)
    assert table.max() <= 1.0 and table.min() >= 0.0


# Plain-loop references that the solvers must reproduce bit for bit. The
# two-stage one is the solver as it was before each fixed-point equation moved
# into one helper, kept verbatim (with the private helpers it used). The
# single-stage one states the kernel form that the solver uses; the log-domain
# loop it replaced is kept as a reference within a rounding tolerance.

_REF_FLOOR = 1e-280


def _reference_floor_norm(p, axis=-1):
    p = np.maximum(p, _REF_FLOOR)
    return p / p.sum(axis=axis, keepdims=True)


def _reference_kl_rows_nats(p, q):
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p / q), 0.0)
    return terms.sum(axis=-1)


def _reference_delta_free_energy(table, pa_given_wx, pa_given_x, beta2):
    eu = np.einsum("kxg,kg->kx", pa_given_wx, table)
    if beta2 == 0.0:
        return eu
    kl = _reference_kl_rows_nats(pa_given_wx, pa_given_x[None, :, :])
    return eu - kl / beta2


def _reference_max_change(new, old):
    diff = np.abs(new - old)
    diff[np.isneginf(new) & np.isneginf(old)] = 0.0
    return float(diff.max())


def _reference_solve_single_stage(world, beta, grid_size=100, tol=1e-10, max_iter=10_000,
                                  init_marginal=None):
    """The kernel-form iteration as a plain loop: exponentials once, then tilts."""
    grid = action_grid(grid_size)
    rho = world.rho

    if init_marginal is None:
        marginal = np.full(grid_size, 1.0 / grid_size)
    else:
        marginal = _reference_floor_norm(np.asarray(init_marginal, dtype=float))
    cond = np.tile(marginal, (world.num_worlds, 1))

    logits = beta * utility_table(world, grid)
    logits -= logits.max(axis=1, keepdims=True)
    kernel = np.exp(logits)
    kernel /= kernel.sum(axis=1, keepdims=True)
    converged = False
    residual = np.inf
    iteration = 0
    for iteration in range(1, max_iter + 1):
        new_cond = marginal[None, :] * kernel
        new_cond /= new_cond.sum(axis=1, keepdims=True)
        new_marginal = _reference_floor_norm(rho @ new_cond)

        residual = max(
            float(np.abs(new_cond - cond).max()),
            float(np.abs(new_marginal - marginal).max()),
        )
        cond, marginal = new_cond, new_marginal
        if residual < tol:
            converged = True
            break
    return cond, marginal, converged, iteration, residual


def _log_domain_reference_single_stage(world, beta, grid_size=100, tol=1e-10,
                                       max_iter=10_000, init_marginal=None):
    """The log-domain iteration: shift log p(a) + beta U by its row max, exp, normalise."""
    grid = action_grid(grid_size)
    rho = world.rho

    if init_marginal is None:
        marginal = np.full(grid_size, 1.0 / grid_size)
    else:
        marginal = _reference_floor_norm(np.asarray(init_marginal, dtype=float))
    cond = np.tile(marginal, (world.num_worlds, 1))

    bu = beta * utility_table(world, grid)
    converged = False
    residual = np.inf
    iteration = 0
    for iteration in range(1, max_iter + 1):
        logits = np.log(marginal)[None, :] + bu
        logits -= logits.max(axis=1, keepdims=True)
        new_cond = np.exp(logits)
        new_cond /= new_cond.sum(axis=1, keepdims=True)
        new_marginal = _reference_floor_norm(rho @ new_cond)

        residual = max(
            float(np.abs(new_cond - cond).max()),
            float(np.abs(new_marginal - marginal).max()),
        )
        cond, marginal = new_cond, new_marginal
        if residual < tol:
            converged = True
            break
    return cond, marginal, converged, iteration, residual


def _reference_solve_two_stage(world, beta1, beta2, num_priors, grid_size=100, tol=1e-10,
                               max_iter=10_000, rng=None, init_noise=1e-3):
    if rng is None:
        rng = make_rng(0)
    grid = action_grid(grid_size)
    table = utility_table(world, grid)
    rho = world.rho
    nw, nx, ng = world.num_worlds, num_priors, grid_size

    px_given_w = np.full((nw, nx), 1.0 / nx)
    px = np.full(nx, 1.0 / nx)
    pa_given_wx = np.full((nw, nx, ng), 1.0 / ng)
    pa_given_wx *= 1.0 + init_noise * rng.uniform(-1.0, 1.0, size=pa_given_wx.shape)
    pa_given_wx /= pa_given_wx.sum(axis=2, keepdims=True)
    pwx = rho[:, None] * px_given_w / px[None, :]
    pa_given_x = np.einsum("kx,kxg->xg", pwx, pa_given_wx)
    delta_f = _reference_delta_free_energy(table, pa_given_wx, pa_given_x, beta2)

    converged = False
    residual = np.inf
    iteration = 0
    for iteration in range(1, max_iter + 1):
        logits = np.log(px)[None, :] + beta1 * delta_f
        logits -= logits.max(axis=1, keepdims=True)
        new_px_given_w = np.exp(logits)
        new_px_given_w /= new_px_given_w.sum(axis=1, keepdims=True)

        new_px = _reference_floor_norm(rho @ new_px_given_w)

        logits = np.log(pa_given_x)[None, :, :] + beta2 * table[:, None, :]
        logits -= logits.max(axis=2, keepdims=True)
        new_pa_given_wx = np.exp(logits)
        new_pa_given_wx /= new_pa_given_wx.sum(axis=2, keepdims=True)

        pwx = rho[:, None] * new_px_given_w / new_px[None, :]
        new_pa_given_x = _reference_floor_norm(np.einsum("kx,kxg->xg", pwx, new_pa_given_wx))

        new_delta_f = _reference_delta_free_energy(table, new_pa_given_wx, new_pa_given_x, beta2)

        residual = max(
            _reference_max_change(new_px_given_w, px_given_w),
            _reference_max_change(new_px, px),
            _reference_max_change(new_pa_given_wx, pa_given_wx),
            _reference_max_change(new_pa_given_x, pa_given_x),
            _reference_max_change(new_delta_f, delta_f),
        )
        px_given_w, px = new_px_given_w, new_px
        pa_given_wx, pa_given_x = new_pa_given_wx, new_pa_given_x
        delta_f = new_delta_f
        if residual < tol:
            converged = True
            break
    return px_given_w, px, pa_given_wx, pa_given_x, delta_f, converged, iteration, residual


def _reference_two_stage_residuals(world, sol):
    table = utility_table(world, sol.grid)
    rho = world.rho

    with np.errstate(divide="ignore"):
        logits = np.log(sol.px)[None, :] + sol.beta1 * sol.delta_f
    logits -= logits.max(axis=1, keepdims=True)
    rhs = np.exp(logits)
    rhs /= rhs.sum(axis=1, keepdims=True)
    res = {"px_given_w": _reference_max_change(rhs, sol.px_given_w)}

    res["px"] = _reference_max_change(rho @ sol.px_given_w, sol.px)

    with np.errstate(divide="ignore"):
        logits = np.log(sol.pa_given_x)[None, :, :] + sol.beta2 * table[:, None, :]
    logits -= logits.max(axis=2, keepdims=True)
    rhs = np.exp(logits)
    rhs /= rhs.sum(axis=2, keepdims=True)
    res["pa_given_wx"] = _reference_max_change(rhs, sol.pa_given_wx)

    post = rho[:, None] * sol.px_given_w
    with np.errstate(divide="ignore", invalid="ignore"):
        pwx = np.where(sol.px[None, :] > 0.0, post / sol.px[None, :], 0.0)
    res["pa_given_x"] = _reference_max_change(
        np.einsum("kx,kxg->xg", pwx, sol.pa_given_wx), sol.pa_given_x
    )

    res["delta_f"] = _reference_max_change(
        _reference_delta_free_energy(table, sol.pa_given_wx, sol.pa_given_x, sol.beta2),
        sol.delta_f,
    )
    return res


TWO_STAGE_SETTINGS = {
    "specialized": dict(beta1=100.0, beta2=50.0, num_priors=3, tol=1e-12, seed=21),
    "beta2_zero": dict(beta1=5.0, beta2=0.0, num_priors=3),
    "beta1_zero": dict(beta1=0.0, beta2=10.0, num_priors=3),
    "one_prior": dict(beta1=1.0, beta2=1.0, num_priors=1),
    "more_priors_than_worlds": dict(beta1=1.0, beta2=1.0, num_priors=3, table=TABLE_2X3),
    "capped": dict(beta1=10.0, beta2=10.0, num_priors=3, max_iter=40, seed=5),
}


@pytest.mark.parametrize("name", list(TWO_STAGE_SETTINGS))
def test_two_stage_matches_reference_bit_for_bit(name, gaussian_task):
    kw = dict(TWO_STAGE_SETTINGS[name])
    table = kw.pop("table", None)
    world = gaussian_task if table is None else make_tabular_world(table)
    seed = kw.pop("seed", None)
    kw.setdefault("max_iter", 300)
    kw["grid_size"] = 100 if table is None else len(table[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        sol = solve_two_stage(world, rng=None if seed is None else make_rng(seed), **kw)
    ref = _reference_solve_two_stage(world, rng=None if seed is None else make_rng(seed), **kw)
    got = (sol.px_given_w, sol.px, sol.pa_given_wx, sol.pa_given_x, sol.delta_f)
    for new, old in zip(got, ref[:5]):
        assert np.array_equal(new, old)
    assert (sol.converged, sol.iterations, sol.residual) == ref[5:]
    assert two_stage_residuals(world, sol) == _reference_two_stage_residuals(world, sol)


def test_single_stage_and_frontier_match_reference_bit_for_bit(gaussian_task):
    start = np.linspace(0.0, 1.0, 100)
    for beta, init in ((0.0, None), (1.0, None), (20.0, None), (1e4, None), (3.0, start)):
        policy = solve_single_stage(gaussian_task, beta, max_iter=300, init_marginal=init)
        ref = _reference_solve_single_stage(gaussian_task, beta, max_iter=300, init_marginal=init)
        assert np.array_equal(policy.cond, ref[0])
        assert np.array_equal(policy.marginal, ref[1])
        assert (policy.converged, policy.iterations, policy.residual) == ref[2:]

    betas = [0.5, 2.0, 10.0, 100.0]
    points = rate_distortion_curve(gaussian_task, betas, max_iter=300)
    table = utility_table(gaussian_task, action_grid(100))
    warm = None
    for point, beta in zip(points, betas):
        cond, warm, converged, _, _ = _reference_solve_single_stage(
            gaussian_task, beta, max_iter=300, init_marginal=warm
        )
        rho = gaussian_task.rho
        assert point.mutual_info_bits == mutual_information(rho, cond)
        assert point.expected_utility == float(rho @ (cond * table).sum(axis=1))
        assert point.converged == converged


# the capped and the slowest default betas, each run cold to the default cap
_SLOW_DEFAULT_BETAS = [float(b) for b in np.logspace(-1, 4, 20)[[0, 5, 8]]]


def test_single_stage_matches_log_domain_reference(gaussian_task):
    start = np.linspace(0.0, 1.0, 100)
    settings = [(0.0, None, 300), (1.0, None, 300), (20.0, None, 300), (1e4, None, 300),
                (3.0, start, 300)]
    settings += [(beta, None, 10_000) for beta in _SLOW_DEFAULT_BETAS]
    for beta, init, max_iter in settings:
        policy = solve_single_stage(gaussian_task, beta, max_iter=max_iter, init_marginal=init)
        cond, marginal, converged, iterations, _ = _log_domain_reference_single_stage(
            gaussian_task, beta, max_iter=max_iter, init_marginal=init
        )
        assert (policy.converged, policy.iterations) == (converged, iterations)
        assert np.abs(policy.cond - cond).max() <= 1e-12
        assert np.abs(policy.marginal - marginal).max() <= 1e-12


@pytest.mark.parametrize("beta", [1e3, 1e5, 1e6])
def test_single_stage_finite_where_the_kernel_underflows_under_the_start(gaussian_task, beta):
    # all the start's mass sits where exp(beta U - max) is exactly 0 for most worlds
    start = np.full(100, 1e-300)
    start[0] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        policy = solve_single_stage(gaussian_task, beta, init_marginal=start)
    assert np.isfinite(policy.cond).all() and np.isfinite(policy.marginal).all()
    assert np.abs(policy.cond.sum(axis=1) - 1.0).max() <= 1e-12
    assert abs(policy.marginal.sum() - 1.0) <= 1e-12
    ref_cond = _log_domain_reference_single_stage(gaussian_task, beta, init_marginal=start)[0]
    assert np.array_equal(policy.cond.argmax(axis=1), ref_cond.argmax(axis=1))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_solvers_reject_non_finite_beta(gaussian_task, bad):
    with pytest.raises(ValueError, match="finite"):
        solve_single_stage(gaussian_task, bad)
    with pytest.raises(ValueError, match="finite"):
        solve_two_stage(gaussian_task, bad, 1.0, num_priors=2)
    with pytest.raises(ValueError, match="finite"):
        solve_two_stage(gaussian_task, 1.0, bad, num_priors=2)


# The solvers swap two state buffers once per sweep, so a cap of either parity
# must return the buffer written last. Beta 0.1 never converges within 301.
@pytest.mark.parametrize("max_iter", [1, 2, 3, 301])
def test_single_stage_matches_reference_at_odd_and_even_caps(gaussian_task, max_iter):
    start = np.linspace(0.0, 1.0, 100)
    for beta, init in ((0.1, None), (3.0, start)):
        policy = solve_single_stage(gaussian_task, beta, max_iter=max_iter, init_marginal=init)
        ref = _reference_solve_single_stage(
            gaussian_task, beta, max_iter=max_iter, init_marginal=init
        )
        assert np.array_equal(policy.cond, ref[0])
        assert np.array_equal(policy.marginal, ref[1])
        assert (policy.converged, policy.iterations, policy.residual) == ref[2:]
        assert (policy.converged, policy.iterations) == (False, max_iter)


@pytest.mark.parametrize("max_iter", [1, 2, 3, 41])
def test_two_stage_matches_reference_at_odd_and_even_caps(gaussian_task, max_iter):
    kw = dict(beta1=10.0, beta2=10.0, num_priors=3, max_iter=max_iter)
    sol = solve_two_stage(gaussian_task, rng=make_rng(5), **kw)
    ref = _reference_solve_two_stage(gaussian_task, rng=make_rng(5), **kw)
    got = (sol.px_given_w, sol.px, sol.pa_given_wx, sol.pa_given_x, sol.delta_f)
    for new, old in zip(got, ref[:5]):
        assert np.array_equal(new, old)
    assert (sol.converged, sol.iterations, sol.residual) == ref[5:]
    assert (sol.converged, sol.iterations) == (False, max_iter)


def _snapshot(*arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


def test_solves_never_write_into_their_inputs_or_earlier_results(gaussian_task):
    # entry 0 lies below the marginal floor, so flooring the caller's array would show
    start = np.linspace(0.0, 1.0, 100)
    before = _snapshot(start)
    first = solve_single_stage(gaussian_task, 3.0, max_iter=301, init_marginal=start)
    assert _snapshot(start) == before
    two = solve_two_stage(gaussian_task, 10.0, 10.0, num_priors=3, max_iter=41)
    kept = _snapshot(first.cond, first.marginal)
    kept_two = _snapshot(two.px_given_w, two.px, two.pa_given_wx, two.pa_given_x, two.delta_f)

    # a warm start hands the earlier policy's marginal, a view of its state
    second = solve_single_stage(gaussian_task, 5.0, max_iter=300, init_marginal=first.marginal)
    solve_single_stage(gaussian_task, 5.0, max_iter=3, init_marginal=second.marginal)
    solve_two_stage(gaussian_task, 10.0, 10.0, num_priors=3, max_iter=42)
    rate_distortion_curve(gaussian_task, [0.5, 2.0], max_iter=301)
    assert _snapshot(first.cond, first.marginal) == kept
    assert _snapshot(
        two.px_given_w, two.px, two.pa_given_wx, two.pa_given_x, two.delta_f
    ) == kept_two


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf])
def test_solvers_reject_a_tol_outside_the_positive_reals(gaussian_task, tol):
    with pytest.raises(ValueError, match="tol"):
        solve_single_stage(gaussian_task, 5.0, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        solve_two_stage(gaussian_task, 1.0, 1.0, num_priors=2, tol=tol)
    with pytest.raises(ValueError, match="tol"):
        rate_distortion_curve(gaussian_task, [1.0], tol=tol)


@pytest.mark.parametrize("shape", [(1,), (99,), (101,), (7, 100)])
def test_single_stage_rejects_a_start_of_the_wrong_shape(gaussian_task, shape):
    # the grid has 100 points; (7, 100) is the shape of the whole state at six worlds
    with pytest.raises(ValueError, match="init_marginal"):
        solve_single_stage(gaussian_task, 1.0, init_marginal=np.full(shape, 0.01))


def _unevaluated_utility(w, a):
    raise AssertionError("the utility table was built before the start was checked")


@pytest.mark.parametrize(
    "start",
    [
        np.full(100, math.nan),
        np.append(np.full(99, 0.01), math.inf),
        np.full(100, -0.01),
        np.append(np.full(99, 0.01), -0.01),
        np.zeros(100),
    ],
    ids=["nan", "inf", "all_negative", "one_negative", "all_zero"],
)
def test_single_stage_rejects_a_start_that_is_no_distribution(start):
    # an all-NaN start ran every sweep; negative and all-zero starts were floored to uniform
    world = WorldModel(num_worlds=6, rho=np.full(6, 1 / 6), utility=_unevaluated_utility)
    with pytest.raises(ValueError, match="init_marginal"):
        solve_single_stage(world, 1.0, init_marginal=start)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_solvers_reject_a_cap_below_one_sweep(gaussian_task, max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        solve_single_stage(gaussian_task, 5.0, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter"):
        solve_two_stage(gaussian_task, 1.0, 1.0, num_priors=2, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter"):
        rate_distortion_curve(gaussian_task, [1.0], max_iter=max_iter)


# A state of _EDGE_SHAPE gets blocks of at most _EDGE_BLOCK sweeps under the
# solvers' element budget: blocks of 1, 2, 4, 8, 8, ... end after sweeps 1, 3,
# 7, 15, 23, ..., so the scripted solves below end on both sides of each edge.
_EDGE_BLOCK = 8
_EDGE_SHAPE = (4, _BLOCK_ELEMENTS // (4 * _EDGE_BLOCK))


def _scripted_update(steps):
    """A sweep that copies the state and moves one entry by the next scripted step.

    A step is an amount for entry 0 or an (entry, amount) pair. Past the end of
    the script the last step repeats. ``calls`` counts the sweeps run.
    """
    calls = [0]

    def update(old, new):
        new[...] = old
        step = steps[min(calls[0], len(steps) - 1)]
        entry, amount = step if isinstance(step, tuple) else (0, step)
        new.flat[entry] += amount
        calls[0] += 1

    return update, calls


def _bind_blocks(update, binds):
    """``update`` as a driver ``bind``: one call per block runs its sweeps slot to slot.

    ``binds`` gets the number of slots of each bind.
    """

    def bind(slots):
        binds.append(len(slots))

        def sweeps(count):
            for old, new in zip(slots[:count], slots[1:]):
                update(old, new)

        return sweeps

    return bind


def _checked_every_sweep(update, state, tol, max_iter):
    """The plain per-sweep loop: two buffers that swap, one check after each sweep."""
    state, new = state.copy(), np.empty_like(state)
    for iteration in range(1, max_iter + 1):
        update(state, new)
        state, new = new, state
        residual = float(np.abs(state - new).max())
        if residual < tol:
            return state, True, iteration, residual
    return state, False, iteration, residual


def _doubling_block_end(sweep, cap, max_iter):
    """The sweep that ends the block holding ``sweep``, with blocks 1, 2, 4, ... up to cap."""
    end, block = 0, 1
    while end < sweep:
        end += block
        block = min(2 * block, cap)
    return min(end, max_iter)


def _first_below_at(sweep):
    """Steps of 1e-3 whose change first falls below 1e-10 at ``sweep``, then stays there."""
    return [1e-3] * (sweep - 1) + [1e-12]


# sweep counts on both sides of the first five block edges
_EDGES = (1, 2, 3, 4, 7, 8, 15, 16, 23, 24)
_EDGE_SCRIPTS = {
    **{f"first_below_at_{n}": _first_below_at(n) for n in _EDGES},
    # within one block, sweep 9 passes first and sweep 11 with the smaller change must lose
    "non_monotone": [1e-3] * 8 + [1e-11, 1e-3, 1e-13, 1e-3],
    # entry 1 starts to move while the check probes entry 0, which stands still
    "probe_misses": [1e-3] * 3 + [(1, 1e-3)] * 8 + [(1, 1e-12)],
    "never_below": [1e-3],
    "nan": [math.nan],
}


@pytest.mark.parametrize("max_iter", [*_EDGES, 4 * _EDGE_BLOCK])
@pytest.mark.parametrize("script", list(_EDGE_SCRIPTS))
def test_iterate_matches_a_check_after_every_sweep_at_the_block_edges(script, max_iter):
    start = np.linspace(0.0, 1.0, math.prod(_EDGE_SHAPE)).reshape(_EDGE_SHAPE)
    update, calls = _scripted_update(_EDGE_SCRIPTS[script])
    binds = []
    got, converged, iterations, residual = _iterate(
        _bind_blocks(update, binds), start, 1e-10, max_iter
    )
    ref_update, _ = _scripted_update(_EDGE_SCRIPTS[script])
    ref = _checked_every_sweep(ref_update, start, 1e-10, max_iter)

    assert got.tobytes() == ref[0].tobytes() and got.shape == _EDGE_SHAPE
    assert (converged, iterations) == ref[1:3]
    assert residual == ref[3] or math.isnan(residual) and math.isnan(ref[3])
    assert got.flags.owndata
    if script == "nan":
        assert (converged, iterations) == (False, max_iter)
    # one bind per solve, with a slot for the start and one per sweep of the largest block
    assert binds == [_EDGE_BLOCK + 1]
    # a solve runs whole doubling blocks, truncated at the cap
    assert calls[0] == _doubling_block_end(iterations, _EDGE_BLOCK, max_iter)
    if converged:
        assert calls[0] <= 2 * iterations - 1


def test_a_warm_started_solve_runs_at_most_twice_its_sweeps(gaussian_task, monkeypatch):
    # with fixed 64-sweep blocks, a solve that converged at sweep 2 ran 64
    first = solve_single_stage(gaussian_task, 50.0)
    blocks = []

    def counted(bind, state, tol, max_iter):
        def counting_bind(slots):
            sweeps = bind(slots)

            def counting_sweeps(count):
                blocks.append(count)
                sweeps(count)

            return counting_sweeps

        return _iterate(counting_bind, state, tol, max_iter)

    monkeypatch.setattr(baseline, "_iterate", counted)
    again = solve_single_stage(gaussian_task, 50.0, init_marginal=first.marginal)
    assert (again.converged, again.iterations) == (True, 2)
    assert blocks == [1, 2]


def _stress_problem(rng, index):
    """A random single-stage problem: table, rho, beta, cap and start.

    W from 2 to 11 and G from 5 to 399; random tables, Gaussian bumps and
    near-duplicate columns; Dirichlet rho with entries down to 1e-6 (problem
    0's sums to 1 + 1e-12); beta from 1e-2 to 1e5; caps 1, 7, 64 and 200;
    every other start log-uniform from 1e-300 to 1, so some entries start
    just above the marginal floor and some below it.
    """
    nw, ng = int(rng.integers(2, 12)), int(rng.integers(5, 400))
    kind = index % 3
    if kind == 0:
        table = rng.random((nw, ng))
    elif kind == 1:
        grid = action_grid(ng)
        means, width = rng.random((nw, 1)), rng.uniform(0.02, 0.3)
        table = np.exp(-((grid - means) ** 2) / (2.0 * width * width))
    else:
        table = rng.random((nw, 4))[:, rng.integers(0, 4, ng)]
        table += 1e-12 * rng.random((nw, ng))
    rho = np.maximum(rng.dirichlet(np.full(nw, 0.3)), 1e-6)
    rho /= rho.sum()
    if index == 0:
        rho[-1] += 1e-12 - (rho.sum() - 1.0)
        while float(rho.sum()) - 1.0 > 1e-12:
            rho[-1] = np.nextafter(rho[-1], 0.0)
    beta = float(10.0 ** rng.uniform(-2.0, 5.0))
    max_iter = (1, 7, 64, 200)[index % 4]
    start = 10.0 ** rng.uniform(-300.0, 0.0, ng) if index % 2 else None
    return make_tabular_world(table, rho), ng, beta, max_iter, start


def test_single_stage_matches_reference_bit_for_bit_on_random_problems(monkeypatch):
    # The solver floors and normalises inline, on views bound once per solve and
    # in blocks of sweeps, so each solve must match the per-sweep reference loop.
    # The reference is wrapped to record which of its sweeps floored an entry:
    # the family must reach the floor inside a block, not only at a block's start.
    floored = []

    def recording_floor_norm(p, axis=-1):
        floored.append(bool((p < _REF_FLOOR).any()))
        return reference_floor_norm(p, axis)

    reference_floor_norm = _reference_floor_norm
    monkeypatch.setitem(globals(), "_reference_floor_norm", recording_floor_norm)
    rng = np.random.default_rng(2024)
    floored_inside_a_block = 0
    for index in range(48):
        world, ng, beta, max_iter, start = _stress_problem(rng, index)
        if index == 0:
            assert float(world.rho.sum()) - 1.0 > 0.99e-12
        policy = solve_single_stage(world, beta, grid_size=ng, max_iter=max_iter,
                                    init_marginal=start)
        floored.clear()
        ref = _reference_solve_single_stage(world, beta, grid_size=ng, max_iter=max_iter,
                                            init_marginal=start)
        assert policy.cond.tobytes() == ref[0].tobytes(), index
        assert policy.marginal.tobytes() == ref[1].tobytes(), index
        assert (policy.converged, policy.iterations, policy.residual) == ref[2:], index
        # sweep k floored an entry, and was not the first sweep of its block
        cap = max(1, min(64, _BLOCK_ELEMENTS // ((world.num_worlds + 1) * ng)))
        sweeps = floored[start is not None:]
        floored_inside_a_block += any(
            hit and _doubling_block_end(k - 1, cap, max_iter) != k - 1
            for k, hit in enumerate(sweeps, 1)
        )
    assert floored_inside_a_block >= 1


def test_kl_rows_matches_the_reference_at_zeros_and_denormals():
    tiny = np.nextafter(0.0, 1.0)
    # p = 0 with q = 0, p = 0 with q > 0, p > 0 with q at the floor, subnormal p
    p = np.array([[0.0, 0.0, 0.5, tiny, 1e-310, 0.5 - 1e-310 - tiny]])
    q = np.array([[0.0, 0.3, 1e-280, 0.2, 0.25, 0.25]])
    got = baseline._kl_rows_nats(p, q)
    assert got.tobytes() == _reference_kl_rows_nats(p, q).tobytes()
    # the two-stage shapes: (W, X, G) rows against a broadcast (1, X, G)
    rows = np.stack([p, p[:, ::-1]])
    got = baseline._kl_rows_nats(rows, q[None])
    assert got.shape == (2, 1)
    assert got.tobytes() == _reference_kl_rows_nats(rows, q[None]).tobytes()


def _peak_mib(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_block_buffers_stay_within_the_element_budget(gaussian_task):
    # With one check per sweep the 20000-point solve peaked at 4.4 MiB. Above the
    # budget a block is one sweep (6.6 MiB); 64-sweep blocks would need 140 MiB.
    # At the default grid the 64-sweep blocks take about 0.7 MiB.
    assert _peak_mib(lambda: solve_single_stage(gaussian_task, 1.0, grid_size=20_000,
                                                max_iter=3)) < 10.0
    assert _peak_mib(lambda: solve_single_stage(gaussian_task, 1.0, max_iter=3)) <= 1.0
