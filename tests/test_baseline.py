import math
import warnings

import numpy as np
import pytest

from brdm.baseline import (
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
from brdm.core import GaussianTaskSpec, make_gaussian_task, make_rng

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
            total += (1.0 / 6) * (1.0 / 100) * task.utility(w, np.array([g]))
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
    two = solve_two_stage(
        gaussian_task, beta1=1.0, beta2=1.0, num_priors=1, tol=1e-14, max_iter=200_000
    )
    one = solve_single_stage(gaussian_task, 1.0, tol=1e-14, max_iter=200_000)
    assert np.allclose(two.px_given_w, 1.0)
    assert np.abs(two.pa_given_wx[:, 0, :] - one.cond).max() < 1e-8


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
