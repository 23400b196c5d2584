import dataclasses
import math

import numpy as np
import pytest

from brdm.core import GaussianTaskSpec, WorldModel, make_gaussian_task, make_rng
from brdm.mcmc import (
    ChainConfig,
    ChainResult,
    SelectionConfig,
    anneal_schedule,
    draw_index,
    mh_accept_prob,
    reflect01,
    run_action_chain,
    run_selection_chain,
)

from conftest import spearman_rho


def test_anneal_gamma_values():
    assert anneal_schedule(3.5, 2.0, 3)[0] == 3.5
    assert anneal_schedule(1.0, 2.0, 3)[2] == pytest.approx(1.0 + 2.0 * math.log(3.0), abs=1e-12)
    seq = anneal_schedule(0.5, 4.0, 100)
    assert all(b >= a for a, b in zip(seq, seq[1:]))


def test_anneal_schedule_is_anneal_gamma_built_once():
    schedule = anneal_schedule(0.5, 4.0, 30)
    assert schedule == tuple(0.5 + 4.0 * math.log1p(k) for k in range(30))
    assert anneal_schedule(0.5, 4.0, 30) is schedule
    assert anneal_schedule(0.5, 4.0, 0) == ()


def test_mh_accept_prob():
    assert mh_accept_prob(0.9, 0.1, 5.0) == 1.0
    assert mh_accept_prob(0.5, 0.5, 5.0) == 1.0
    assert mh_accept_prob(0.1, 0.9, 0.0) == 1.0
    assert mh_accept_prob(0.0, 0.5, 2.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    # enormous uphill move must not overflow
    assert mh_accept_prob(1e6, 0.0, 1e6) == 1.0


def test_reflection():
    assert reflect01(-0.1) == pytest.approx(0.1)
    assert reflect01(1.7) == pytest.approx(0.3)
    assert reflect01(2.3) == pytest.approx(0.3)
    assert reflect01(0.5) == 0.5
    assert reflect01(1.0) == 1.0
    assert reflect01(-2.0) == 0.0


def test_propose_empirical_symmetry():
    # box-kernel density estimates of g(b|a) and g(a|b) agree within 3 SE
    sigma, h, n = 0.15, 0.01, 1_000_000
    rng = make_rng(77)
    dens, ses = [], []
    for a, b in ((0.2, 0.4), (0.4, 0.2)):
        draws = np.array([reflect01(a + e) for e in rng.normal(0.0, sigma, n).tolist()])
        p = (np.abs(draws - b) <= h).mean()
        dens.append(p / (2 * h))
        ses.append(math.sqrt(p * (1 - p) / n) / (2 * h))
    assert abs(dens[0] - dens[1]) <= 3.0 * math.hypot(ses[0], ses[1])


def _reference_reflect01(a):
    r = np.remainder(a, 2.0)
    return np.where(r > 1.0, 2.0 - r, r)


def _recording(world):
    """``world`` with a utility that records each call's action and value."""
    calls = []

    def utility(w, a):
        u = world.utility(w, a)
        calls.append((a, u))
        return u

    return dataclasses.replace(world, utility=utility), calls


def _reference_action_chain(world, w, seed_action, cfg, n, rng):
    """The earlier numpy implementation of run_action_chain, kept as the oracle."""
    a = np.asarray(seed_action, dtype=float).copy()
    u = world.utility(w, a)
    seed_u = u

    noise = rng.normal(0.0, cfg.proposal_sigma, size=(n, a.size))
    log_unif = np.log(rng.random(n))
    gamma0, alpha = cfg.gamma0, cfg.alpha

    accepted = 0
    for k in range(n):
        gamma = gamma0 + alpha * math.log1p(k)
        prop = _reference_reflect01(a + noise[k])
        pu = world.utility(w, prop)
        du = pu - u
        ok = du >= 0.0 or log_unif[k] < gamma * du
        if ok:
            a, u = prop, pu
            accepted += 1

    return ChainResult(
        decision=a,
        evaluations=n + 1,
        acceptance_rate=accepted / n,
        decision_utility=u,
        seed_utility=seed_u,
    )


def _one_element_actions(world):
    """``world`` as the reference sees it: each action a one-element array."""
    return dataclasses.replace(world, utility=lambda w, a: world.utility(w, float(a[0])))


@pytest.mark.parametrize("record_calls", [True, False])
def test_action_chain_matches_reference_implementation(gaussian_task, record_calls):
    # without recording, the chain calls the task's own utility unwrapped
    for seed in range(500):
        cfg = ChainConfig(
            gamma0=(0.5, 1.0, 3.0)[seed % 3],
            proposal_sigma=(0.05, 0.1, 0.7)[seed % 3],
        )
        steps = (1, 7, 75, 200)[seed % 4]
        setup = make_rng(10_000 + seed)
        w = int(setup.integers(gaussian_task.num_worlds))
        seed_action = setup.random(1)
        rng_ref, rng_new = make_rng(seed), make_rng(seed)
        if record_calls:
            world_ref, calls_ref = _recording(gaussian_task)
            world_new, calls_new = _recording(gaussian_task)
        else:
            world_ref = world_new = gaussian_task
        world_ref = _one_element_actions(world_ref)
        ref = _reference_action_chain(world_ref, w, seed_action, cfg, steps, rng_ref)
        got = run_action_chain(world_new, w, float(seed_action[0]), cfg, steps, rng_new)

        assert type(got.decision) is float
        assert got.decision == float(ref.decision[0])
        assert got.decision_utility == ref.decision_utility
        assert got.seed_utility == ref.seed_utility
        assert got.acceptance_rate == ref.acceptance_rate
        assert got.evaluations == ref.evaluations
        if record_calls:
            # the seed, then every proposal, with its utility
            assert len(calls_new) == steps + 1
            assert calls_new == calls_ref
        # both consumed the generator identically
        assert rng_new.random() == rng_ref.random()


def test_action_chain_single_step_always_accepts(gaussian_task):
    cfg = ChainConfig(gamma0=0.0, alpha=0.0, proposal_sigma=0.1)
    world, calls = _recording(gaussian_task)
    result = run_action_chain(world, 0, 0.5, cfg, 1, make_rng(3))
    assert result.acceptance_rate == 1.0
    assert result.decision == calls[1][0]


def test_action_chain_flat_utility_accepts_everything():
    world = WorldModel(num_worlds=1, rho=np.array([1.0]), utility=lambda w, a: 0.25)
    cfg = ChainConfig(gamma0=5.0, alpha=5.0, proposal_sigma=0.2)
    result = run_action_chain(world, 0, 0.5, cfg, 200, make_rng(4))
    assert result.acceptance_rate == 1.0


def test_action_chain_counts_utility_calls(gaussian_task):
    calls = 0

    def counting(w, a):
        nonlocal calls
        calls += 1
        return gaussian_task.utility(w, a)

    world = WorldModel(num_worlds=6, rho=gaussian_task.rho, utility=counting)
    result = run_action_chain(world, 2, 0.1, ChainConfig(), 57, make_rng(5))
    assert calls == 58
    assert result.evaluations == 58


def test_action_chain_hands_the_utility_python_floats(gaussian_task):
    # float(x) == np.float64(x), so only the type shows a numpy scalar slipping through
    world, calls = _recording(gaussian_task)
    result = run_action_chain(world, 1, np.float64(0.4), ChainConfig(), 200, make_rng(9))
    assert len(calls) == 201 and calls[0][0] == 0.4
    assert all(type(a) is float for a, _ in calls)
    assert type(result.decision) is float
    assert result.decision in [a for a, _ in calls]


def test_action_chain_rejects_everything_returns_seed():
    # strictly spiked utility: every move away from the seed is downhill and
    # gamma is huge, so all proposals are rejected
    def spike(w, a):
        return 1.0 if abs(a - 0.5) < 1e-12 else 0.0

    world = WorldModel(num_worlds=1, rho=np.array([1.0]), utility=spike)
    cfg = ChainConfig(gamma0=1e9, alpha=0.0, proposal_sigma=0.2)
    result = run_action_chain(world, 0, 0.5, cfg, 50, make_rng(6))
    assert result.acceptance_rate == 0.0
    assert result.decision == 0.5
    assert result.decision_utility == result.seed_utility == 1.0


def test_action_chain_zero_steps_returns_seed(gaussian_task):
    rng, untouched = make_rng(8), make_rng(8)
    result = run_action_chain(gaussian_task, 1, 0.3, ChainConfig(), 0, rng)
    assert result.decision == 0.3
    assert result.decision_utility == result.seed_utility == gaussian_task.utility(1, 0.3)
    assert result.evaluations == 1
    assert result.acceptance_rate == 0.0
    assert rng.random() == untouched.random()


def test_action_chain_visits_stay_inside_box(gaussian_task):
    cfg = ChainConfig(proposal_sigma=0.4)
    world, calls = _recording(gaussian_task)
    run_action_chain(world, 0, 0.02, cfg, 500, make_rng(7))
    actions = np.array([a for a, _ in calls])
    assert len(actions) == 501
    assert actions.min() >= 0.0 and actions.max() <= 1.0


def test_action_chain_reproducible(gaussian_task):
    cfg = ChainConfig()
    world1, calls1 = _recording(gaussian_task)
    world2, calls2 = _recording(gaussian_task)
    r1 = run_action_chain(world1, 3, 0.4, cfg, 80, make_rng(9))
    r2 = run_action_chain(world2, 3, 0.4, cfg, 80, make_rng(9))
    assert r1.decision == r2.decision
    assert r1.acceptance_rate == r2.acceptance_rate
    assert len(calls1) == 81 and calls1 == calls2


def test_action_chain_utility_grows_with_budget(gaussian_task):
    budgets = [5, 10, 25, 50, 100]
    means = []
    cfg = ChainConfig()
    for n in budgets:
        total = 0.0
        for seed in range(200):
            rng = make_rng(seed)
            seed_action = rng.random()
            w = int(rng.integers(0, 6))
            total += run_action_chain(gaussian_task, w, seed_action, cfg, n, rng).decision_utility
        means.append(total / 200)
    assert spearman_rho(budgets, means) > 0.9


def _neighbor_transition_matrix(states, gamma):
    n = len(states)
    t = np.zeros((n, n))
    for i in range(n):
        for j in (i - 1, i + 1):
            if 0 <= j < n:
                t[i, j] = 0.5 * mh_accept_prob(states[j], states[i], gamma)
        t[i, i] = 1.0 - t[i].sum()
    return t


def test_detailed_balance_of_neighbor_chain():
    states = np.linspace(0.0, 1.0, 10)
    gamma = 4.0
    t = _neighbor_transition_matrix(states, gamma)
    q = np.exp(gamma * states)
    q /= q.sum()
    for i in range(10):
        for j in range(10):
            assert abs(q[i] * t[i, j] - q[j] * t[j, i]) < 1e-12


def test_neighbor_chain_stationary_distribution():
    states = np.linspace(0.0, 1.0, 10)
    gamma = 4.0
    t = _neighbor_transition_matrix(states, gamma)
    eigvals, eigvecs = np.linalg.eig(t.T)
    lead = np.argmin(np.abs(eigvals - 1.0))
    stationary = np.abs(np.real(eigvecs[:, lead]))
    stationary /= stationary.sum()
    boltzmann = np.exp(gamma * states)
    boltzmann /= boltzmann.sum()
    assert np.abs(stationary - boltzmann).max() < 1e-12

    # simulate with the production acceptance rule, neighbor proposals
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
    empirical = counts / counts.sum()
    tv = 0.5 * np.abs(empirical - stationary).sum()
    assert tv < 0.05


def _chi2(counts, law):
    expected = counts.sum() * law
    return float(((counts - expected) ** 2 / expected).sum())


def test_action_chain_samples_its_stationary_law(gaussian_task):
    # at a fixed precision the reflected symmetric proposal leaves exp(gamma U) invariant;
    # at the default proposal_sigma of 0.1, 200 steps from uniform seeds are not yet mixed
    gamma, steps, chains, bins, sub = 4.0, 200, 20_000, 100, 100
    cfg = ChainConfig(gamma0=gamma, alpha=0.0, proposal_sigma=0.2)
    rng = make_rng(1301)
    seeds = rng.random(chains).tolist()
    finals = [run_action_chain(gaussian_task, 0, a, cfg, steps, rng).decision for a in seeds]
    counts = np.histogram(finals, bins=bins, range=(0.0, 1.0))[0]
    # midpoint quadrature of the density, sub points per bin
    points = ((np.arange(bins * sub) + 0.5) / (bins * sub)).tolist()
    density = np.exp([gamma * gaussian_task.utility(0, a) for a in points])
    law = density.reshape(bins, sub).sum(axis=1) / density.sum()
    assert _chi2(counts, law) < 134.64  # p = 0.01 critical value, 99 dof


def test_selection_chain_samples_its_stationary_law():
    # uniform global proposals leave exp(gamma est) invariant at a fixed precision
    est, gamma, steps, runs = [0.2, 0.5, 0.9, 0.55], 10.0, 50, 20_000
    cfg = SelectionConfig(gamma_sel0=gamma, alpha_sel=0.0)
    rng = make_rng(1302)
    px = np.full(4, 0.25)
    picks = [run_selection_chain(est, px, cfg, steps, rng) for _ in range(runs)]
    law = np.exp(gamma * np.array(est))
    assert _chi2(np.bincount(picks, minlength=4), law / law.sum()) < 11.34  # p = 0.01, 3 dof


def test_selection_chain_single_candidate():
    cfg = SelectionConfig()
    assert run_selection_chain([0.7], np.array([1.0]), cfg, 10, make_rng(0)) == 0


def test_selection_chain_empty_candidates_error():
    cfg = SelectionConfig()
    with pytest.raises(ValueError):
        run_selection_chain([], np.array([]), cfg, 10, make_rng(0))


def test_draw_index_matches_rng_choice():
    # the start draw of the selection chain and of the no-selection branch
    counts = [np.zeros(3), np.array([4.0, 0.0, 11.0]), np.array([0.0, 250.0, 3.0, 7.0])]
    pxs = [(c + 1.0) / (c + 1.0).sum() for c in counts]  # add-one smoothed, as used
    pxs += [np.array([1.0]), np.array([0.5, 0.5]), np.array([0.1, 0.0, 0.2, 0.7])]
    for px in pxs:
        for given in (px, px.tolist()):
            for seed in range(2000):
                a, b = make_rng(seed), make_rng(seed)
                assert draw_index(given, a) == int(b.choice(len(px), p=px))
                assert a.random() == b.random()


@pytest.mark.parametrize(
    "px", [[0.0, 0.0], [0.0], [float("nan"), 0.5], [0.5, float("inf")], np.zeros(3)]
)
def test_draw_index_rejects_a_total_that_is_not_positive_and_finite(px):
    with pytest.raises(ValueError, match="positive finite sum"):
        draw_index(px, make_rng(0))


def test_selection_chain_uniform_at_zero_gamma():
    cfg = SelectionConfig(gamma_sel0=0.0, alpha_sel=0.0)
    rng = make_rng(1)
    px = np.full(3, 1 / 3)
    hits = np.zeros(3)
    for _ in range(10_000):
        hits[run_selection_chain([0.5, 0.5, 0.5], px, cfg, 10, rng)] += 1
    chi2 = float(((hits - 10_000 / 3) ** 2 / (10_000 / 3)).sum())
    assert chi2 < 9.21034  # p = 0.01 critical value, 2 dof


def test_selection_chain_concentrates_on_best():
    cfg = SelectionConfig(gamma_sel0=1.0, alpha_sel=10.0)
    assert anneal_schedule(cfg.gamma_sel0, cfg.alpha_sel, 10)[9] >= 20.0
    rng = make_rng(2)
    px = np.full(3, 1 / 3)
    wins = sum(
        run_selection_chain([0.9, 0.1, 0.1], px, cfg, 10, rng) == 0 for _ in range(10_000)
    )
    assert wins >= 9_500


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(proposal_sigma=0.0)
    with pytest.raises(ValueError):
        ChainConfig(gamma0=-1.0)
    with pytest.raises(ValueError):
        SelectionConfig(utility_samples=0)
