"""Acceptance gate: one test per criterion, each reporting a pass/fail line.

The training sweeps are the expensive part (a few minutes single-core); they
run once as module-scoped fixtures and are shared across criteria.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from brdm.agents import (
    BudgetSplit,
    SystemConfig,
    empirical_mutual_information,
    train_system,
)
from brdm.baseline import (
    mutual_information,
    rate_distortion_curve,
    solve_single_stage,
    solve_two_stage,
    two_stage_residuals,
)
from brdm.cli import cmd_baseline, cmd_run
from brdm.config import ExperimentConfig, validate_config
from brdm.core import GaussianTaskSpec, make_gaussian_task, make_rng
from brdm.experiment import run_sweep
from brdm.mcmc import mh_accept_prob
from brdm.vae import (
    VaeArch,
    elbo_given_noise,
    elbo_gradients,
    encode,
    init_vae,
    kl_to_standard_normal,
    _decode_batch,
    _encode_batch,
)

import conftest
from conftest import make_tabular_world, spearman_rho

BASELINE_PARTITION = [0, 0, 1, 1, 2, 2]  # frozen world -> prior map (adjacent pairs)


@contextmanager
def criterion(num, description):
    try:
        yield
    except Exception:
        conftest.ACCEPTANCE_LINES.append(f"criterion {num:2d} FAIL  {description}")
        raise
    conftest.ACCEPTANCE_LINES.append(f"criterion {num:2d} PASS  {description}")


def bootstrap_lower_bound(a, b, draws=10_000, seed=0):
    """5th percentile of mean(a) - mean(b) over bootstrap resamples."""
    rng = np.random.default_rng(seed)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ma = a[rng.integers(0, len(a), size=(draws, len(a)))].mean(axis=1)
    mb = b[rng.integers(0, len(b), size=(draws, len(b)))].mean(axis=1)
    return float(np.quantile(ma - mb, 0.05))


@pytest.fixture(scope="module")
def task():
    return make_gaussian_task(GaussianTaskSpec())


@pytest.fixture(scope="module")
def frontier(task):
    return rate_distortion_curve(task, list(np.logspace(-1, 4, 20)))


def _sweep_config(**kw):
    cfg = ExperimentConfig(replicates=20, **kw)
    validate_config(cfg)
    return cfg


@pytest.fixture(scope="module")
def single_ladder_rows():
    """Criterion 6 sweep: single-prior agents at five action budgets."""
    cfg = _sweep_config(
        agent_kinds=("single",),
        total_steps=(5, 10, 25, 50, 100),
        episodes=3000,
        seed=100,
    )
    start = time.perf_counter()
    rows = run_sweep(cfg)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def single_equal_action_rows():
    """Single-prior agents at action budgets 50 and 75 (criterion 8)."""
    cfg = _sweep_config(
        agent_kinds=("single",), total_steps=(50, 75), episodes=5000, seed=200
    )
    return run_sweep(cfg)


@pytest.fixture(scope="module")
def multi_rows():
    """Multi-prior agents; the budget split puts a quarter on selection.

    Totals 67 and 100 give action budgets 50 and 75 for the equal-action
    comparison; totals 25, 50, 100 form the stochasticity ladder.
    """
    cfg = _sweep_config(
        agent_kinds=("multi",),
        total_steps=(25, 50, 67, 100),
        episodes=5000,
        seed=300,
    )
    return run_sweep(cfg)


def test_criterion_1_exact_solver_oracle_equivalence():
    with criterion(1, "single-stage solver matches the long-run oracle on 2x3"):
        from test_baseline import TABLE_2X3, oracle_single_stage

        world = make_tabular_world(TABLE_2X3)
        start = time.perf_counter()
        for beta in (0.5, 1.0, 5.0):
            oracle_cond, _ = oracle_single_stage(TABLE_2X3, [0.5, 0.5], beta)
            policy = solve_single_stage(world, beta, grid_size=3, tol=1e-15)
            assert np.abs(policy.cond - oracle_cond).max() < 1e-8
        assert time.perf_counter() - start < 1.0


def test_criterion_2_boltzmann_limits(task):
    with criterion(2, "beta=0 and beta=1e4 hit the Boltzmann limits"):
        start = time.perf_counter()
        frozen = solve_single_stage(task, 0.0)
        assert mutual_information(task.rho, frozen.cond) < 1e-9
        greedy = solve_single_stage(task, 1e4)
        grid = greedy.grid
        table = np.array(
            [[task.utility(w, g) for g in grid] for w in range(6)]
        )
        eu = float(task.rho @ (greedy.cond * table).sum(axis=1))
        mi = mutual_information(task.rho, greedy.cond)
        assert eu > 0.999
        assert abs(mi - math.log2(6)) < 0.02
        assert time.perf_counter() - start < 5.0


def test_criterion_3_two_stage_consistency(task):
    with criterion(3, "two-stage solver is consistent with its limits"):
        two = solve_two_stage(task, 1.0, 1.0, num_priors=1, tol=1e-14, max_iter=200_000)
        one = solve_single_stage(task, 1.0, tol=1e-14, max_iter=200_000)
        assert np.abs(two.pa_given_wx[:, 0, :] - one.cond).max() < 1e-8

        keep = solve_two_stage(task, 5.0, 0.0, num_priors=3)
        assert np.abs(keep.pa_given_wx - keep.pa_given_x[None, :, :]).max() < 1e-10

        sol = solve_two_stage(
            task, 100.0, 50.0, num_priors=3, tol=1e-12, max_iter=50_000, rng=make_rng(21)
        )
        assert sol.converged
        residuals = two_stage_residuals(task, sol)
        assert max(residuals.values()) < 1e-10


def test_criterion_4_chain_stationarity():
    with criterion(4, "fixed-gamma chain reaches the eigenvector distribution"):
        start = time.perf_counter()
        states = np.linspace(0.0, 1.0, 10)
        gamma = 4.0
        t = np.zeros((10, 10))
        for i in range(10):
            for j in (i - 1, i + 1):
                if 0 <= j < 10:
                    t[i, j] = 0.5 * mh_accept_prob(states[j], states[i], gamma)
            t[i, i] = 1.0 - t[i].sum()
        q = np.exp(gamma * states)
        q /= q.sum()
        for i in range(10):
            for j in range(10):
                assert abs(q[i] * t[i, j] - q[j] * t[j, i]) < 1e-12
        eigvals, eigvecs = np.linalg.eig(t.T)
        lead = np.argmin(np.abs(eigvals - 1.0))
        stationary = np.abs(np.real(eigvecs[:, lead]))
        stationary /= stationary.sum()

        rng = make_rng(0)
        steps = 100_000
        moves = rng.integers(0, 2, steps) * 2 - 1
        log_unif = np.log(rng.random(steps))
        x = 0
        counts = np.zeros(10)
        for k in range(steps):
            j = x + moves[k]
            if 0 <= j < 10:
                du = states[j] - states[x]
                if du >= 0.0 or log_unif[k] < gamma * du:
                    x = j
            counts[x] += 1
        tv = 0.5 * np.abs(counts / counts.sum() - stationary).sum()
        assert tv < 0.05
        assert time.perf_counter() - start < 10.0


def test_criterion_5_vae_gradients_and_bounds():
    with criterion(5, "VAE gradients, KL closed form, and ELBO bound check out"):
        arch = VaeArch()
        rng = make_rng(5)
        prior = init_vae(arch, rng)
        batch = rng.uniform(0.1, 0.9, size=(4, 1))
        xi = rng.standard_normal((4, arch.latent_dim))
        h = 1e-5
        _, grads = elbo_gradients(prior, batch, xi)
        for name, grad in grads.items():
            arr = prior.params[name]
            flat = arr.ravel()
            fd = np.zeros(flat.size)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + h
                up = elbo_given_noise(prior, batch, xi).elbo
                flat[i] = old - h
                down = elbo_given_noise(prior, batch, xi).elbo
                flat[i] = old
                fd[i] = (up - down) / (2.0 * h)
            rel = np.abs(grad.ravel() - fd) / np.maximum(
                np.maximum(np.abs(grad.ravel()), np.abs(fd)), 1e-6
            )
            assert rel.max() < 1e-4, f"{name}: {rel.max():.2e}"

        mu = np.array([0.4, -1.1])
        var = np.array([0.6, 2.3])
        closed = kl_to_standard_normal(mu, var)
        z = mu + np.sqrt(var) * make_rng(123).standard_normal((1_000_000, 2))
        logq = -0.5 * (((z - mu) ** 2) / var + np.log(2 * np.pi * var)).sum(axis=1)
        logp = -0.5 * (z**2 + np.log(2 * np.pi)).sum(axis=1)
        diffs = logq - logp
        assert abs(closed - diffs.mean()) <= 3.0 * diffs.std(ddof=1) / 1000.0

        arch1 = VaeArch(latent_dim=1, decoder_variance=0.01)
        prior1 = init_vae(arch1, make_rng(5))
        a = np.array([0.4])
        sigma2 = arch1.decoder_variance
        const = 0.5 * math.log(2.0 * math.pi * sigma2)
        zs = np.linspace(-8.0, 8.0, 2001)
        _, _, m = _decode_batch(prior1, zs[:, None])
        like = np.exp(-0.5 * (a[0] - m[:, 0]) ** 2 / sigma2) / math.sqrt(
            2.0 * math.pi * sigma2
        )
        normal = np.exp(-0.5 * zs**2) / math.sqrt(2.0 * math.pi)
        log_marginal = math.log(np.trapezoid(like * normal, zs))
        mu1, var1 = encode(prior1, a)
        xiq = np.linspace(-8.0, 8.0, 2001)
        zq = mu1[0] + math.sqrt(var1[0]) * xiq
        _, _, mq = _decode_batch(prior1, zq[:, None])
        dens = np.exp(-0.5 * xiq**2) / math.sqrt(2.0 * math.pi)
        recon = np.trapezoid(
            (-0.5 * (a[0] - mq[:, 0]) ** 2 / sigma2 - const) * dens, xiq
        )
        elbo_exact = recon - kl_to_standard_normal(mu1, var1)
        assert elbo_exact <= log_marginal + 1e-9


def test_criterion_6_utility_and_information_grow_with_budget(single_ladder_rows):
    with criterion(6, "single-prior EU and MI increase with the action budget"):
        rows, elapsed = single_ladder_rows
        budgets = sorted({r.action_steps for r in rows})
        assert budgets == [5, 10, 25, 50, 100]
        mean_eu, mean_mi = [], []
        for b in budgets:
            cell = [r for r in rows if r.action_steps == b]
            assert len(cell) == 20
            mean_eu.append(np.mean([r.expected_utility for r in cell]))
            mean_mi.append(np.mean([r.mi_bits for r in cell]))
        assert spearman_rho(budgets, mean_eu) > 0.9
        assert spearman_rho(budgets, mean_mi) > 0.9
        assert elapsed < 600.0


def test_criterion_7_frontier_dominance(
    frontier, single_ladder_rows, single_equal_action_rows, multi_rows
):
    with criterion(7, "every trained agent sits on or below the frontier"):
        order = np.argsort([p.mutual_info_bits for p in frontier])
        f_mi = np.array([frontier[i].mutual_info_bits for i in order])
        f_eu = np.array([frontier[i].expected_utility for i in order])
        rows = list(single_ladder_rows[0]) + list(single_equal_action_rows) + list(multi_rows)
        assert rows
        for r in rows:
            bound = float(np.interp(r.mi_bits, f_mi, f_eu))
            assert r.expected_utility <= bound + 0.02, (
                f"{r.agent_kind} T={r.total_steps} A={r.action_steps} "
                f"rep={r.replicate}: EU {r.expected_utility:.4f} "
                f"> frontier {bound:.4f} + 0.02 at MI {r.mi_bits:.3f}"
            )


def test_criterion_8_multi_prior_advantages(single_equal_action_rows, multi_rows):
    with criterion(8, "multi-prior beats single-prior the way the figures say"):
        single = {a: [r for r in single_equal_action_rows if r.action_steps == a] for a in (50, 75)}
        multi = {a: [r for r in multi_rows if r.action_steps == a] for a in (50, 75)}
        for action in (50, 75):
            s_eu = [r.expected_utility for r in single[action]]
            m_eu = [r.expected_utility for r in multi[action]]
            assert len(s_eu) == len(m_eu) == 20
            # (a) one-sided 95% bootstrap: multi minus single is positive
            assert np.mean(m_eu) >= np.mean(s_eu)
            assert bootstrap_lower_bound(m_eu, s_eu, seed=action) > 0.0
            # (b) specialized seeds start closer, so the chain gains less
            s_du = np.mean([r.mean_delta_u for r in single[action]])
            m_du = np.mean([r.mean_delta_u for r in multi[action]])
            assert m_du < s_du
        # (c) stochasticity shrinks with the total budget
        ladder = []
        for total in (25, 50, 100):
            cell = [r.stddev_delta_u for r in multi_rows if r.total_steps == total]
            assert len(cell) == 20
            ladder.append(np.mean(cell))
        assert ladder[0] > ladder[1] > ladder[2]


def test_criterion_9_prior_specialization(task):
    with criterion(9, "trained priors reproduce the adjacent-pair partition"):
        sol = solve_two_stage(
            task, 100.0, 50.0, num_priors=3, tol=1e-12, max_iter=50_000, rng=make_rng(21)
        )
        assert list(sol.px_given_w.argmax(axis=1)) == BASELINE_PARTITION
        post = sol.world_posterior(task.rho)
        pairs = sorted(tuple(int(w) for w in np.where(post[:, x] > 0.45)[0]) for x in range(3))
        assert pairs == [(0, 1), (2, 3), (4, 5)]

        cfg = SystemConfig(num_priors=3, budget=BudgetSplit(100, 25))
        _, records = train_system(task, cfg, 5000, make_rng(0))
        window = records[-500:]
        best = 0.0
        for perm in itertools.permutations(range(3)):
            match = np.mean(
                [r.selected_prior == perm[BASELINE_PARTITION[r.world]] for r in window]
            )
            best = max(best, float(match))
        assert best >= 0.9


def test_criterion_10_byte_identical_outputs(tmp_path):
    with criterion(10, "baseline and run commands are byte-identical re-run"):
        cfg_kw = dict(
            total_steps=(12,),
            selection_steps=(4,),
            episodes=40,
            replicates=2,
            betas=(0.0, 1.0, 10.0),
            seed=5,
        )

        def fresh(workers):
            cfg = ExperimentConfig(workers=workers, **cfg_kw)
            validate_config(cfg)
            return cfg

        b1 = cmd_baseline(fresh(1), tmp_path / "b1")
        b2 = cmd_baseline(fresh(1), tmp_path / "b2")
        assert b1.read_bytes() == b2.read_bytes()

        r1 = cmd_run(fresh(1), tmp_path / "r1")
        r2 = cmd_run(fresh(2), tmp_path / "r2")  # worker count must not matter
        assert r1.read_bytes() == r2.read_bytes()
        logs1 = sorted(p.name for p in r1.parent.glob("episodes_*.csv"))
        logs2 = sorted(p.name for p in r2.parent.glob("episodes_*.csv"))
        assert logs1 == logs2 and logs1
        for name in logs1:
            assert (r1.parent / name).read_bytes() == (r2.parent / name).read_bytes()
