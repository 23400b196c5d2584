import io
import math

import numpy as np
import pytest

from brdm.agents import (
    BudgetSplit,
    DecisionSystem,
    EpisodeRecord,
    MultinomialPrior,
    SystemConfig,
    empirical_expected_utility,
    empirical_mutual_information,
    train_system,
)
from brdm.baseline import expected_utility, mutual_information, solve_single_stage
from brdm.core import WorldModel, make_rng
from brdm.experiment import write_episode_csv
from brdm.mcmc import draw_index
from brdm.vae import VaeArch, zero_vae


def test_budget_split_validation():
    assert BudgetSplit(100, 25).action_steps == 75
    with pytest.raises(ValueError):
        BudgetSplit(100, 101)
    with pytest.raises(ValueError):
        BudgetSplit(100, -5)
    assert BudgetSplit.fraction(100, 0.25) == BudgetSplit(100, 25)


def test_multinomial_prior_smoothing():
    prior = MultinomialPrior(np.zeros(3, dtype=np.int64))
    assert np.allclose(prior.px, 1 / 3)
    prior.update(1)
    prior.update(1)
    assert np.allclose(prior.px, [1 / 5, 3 / 5, 1 / 5])
    assert sum(prior.px) == pytest.approx(1.0)


def _single_config(total, action):
    return SystemConfig(num_priors=1, budget=BudgetSplit(total, total - action))


def test_zero_action_steps_returns_seed(gaussian_task):
    cfg = _single_config(0, 0)
    system = DecisionSystem(gaussian_task, cfg, make_rng(0))
    record = system.run_episode(2)
    assert record.decision == record.seed_action
    assert record.delta_u == 0.0
    assert record.evals == 1


def test_untrained_zero_vae_seeds_at_center(gaussian_task):
    cfg = _single_config(10, 10)
    system = DecisionSystem(gaussian_task, cfg, make_rng(0))
    zero_vae(VaeArch(), flat=system.vaes[0].flat)  # zeroes the prior's bank row
    record = system.run_episode(0)
    assert record.seed_action == 0.5


def test_budget_accounting_multi(gaussian_task):
    calls = 0

    def counting(w, a):
        nonlocal calls
        calls += 1
        return gaussian_task.utility(w, a)

    world = WorldModel(num_worlds=6, rho=gaussian_task.rho, utility=counting)
    cfg = SystemConfig(num_priors=3, budget=BudgetSplit(40, 10))
    system = DecisionSystem(world, cfg, make_rng(1))
    record = system.run_episode(3)
    # 3 candidates x 3 samples for the estimates, then seed + 30 proposals
    assert record.evals == 9 + 31
    assert calls == record.evals
    assert record.utility == world.utility(record.world, record.decision)


def test_budget_accounting_skips_estimates_without_selection_steps(gaussian_task):
    cfg = SystemConfig(num_priors=3, budget=BudgetSplit(30, 0))
    system = DecisionSystem(gaussian_task, cfg, make_rng(2))
    record = system.run_episode(1)
    assert record.evals == 31


def test_train_system_reproducible(gaussian_task):
    cfg = SystemConfig(num_priors=3, budget=BudgetSplit(20, 5))
    _, recs1 = train_system(gaussian_task, cfg, 50, make_rng(7))
    _, recs2 = train_system(gaussian_task, cfg, 50, make_rng(7))
    for a, b in zip(recs1, recs2):
        assert a.world == b.world and a.prior == b.prior
        assert a.decision == b.decision
        assert a.utility == b.utility and a.seed_utility == b.seed_utility


def test_train_system_updates_counts_and_buffers(gaussian_task):
    cfg = SystemConfig(num_priors=3, budget=BudgetSplit(20, 5))
    system, recs = train_system(gaussian_task, cfg, 60, make_rng(3))
    assert len(recs) == 60
    assert system.multinomial.counts.sum() == 60
    assert sum(len(b) for b in system.buffers) == 60
    assert all(v.train_steps >= 1 for v in system.vaes if v.train_steps)


@pytest.mark.parametrize("step_size", [0.0, 0.01])
def test_step_size_reaches_training(gaussian_task, step_size):
    cfg = SystemConfig(num_priors=3, budget=BudgetSplit(12, 4), step_size=step_size)
    initial = DecisionSystem(gaussian_task, cfg, make_rng(4)).vaes
    system, _ = train_system(gaussian_task, cfg, 60, make_rng(4))
    assert all(v.train_steps for v in system.vaes)
    for before, after in zip(initial, system.vaes):
        # a zero step freezes each bank row; the default step moves every one
        assert (after.flat.tobytes() == before.flat.tobytes()) == (step_size == 0.0)


def test_train_system_zero_episodes(gaussian_task):
    cfg = SystemConfig(num_priors=1, budget=BudgetSplit(10, 0))
    system, recs = train_system(gaussian_task, cfg, 0, make_rng(0))
    assert recs == []
    assert system.multinomial.counts.sum() == 0


def test_empirical_expected_utility():
    recs = [
        EpisodeRecord(0, 0, 0.1, 0.2, u, u, 1)
        for u in (0.2, 0.8)
    ]
    assert empirical_expected_utility(recs) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        empirical_expected_utility([])


def test_empirical_expected_utility_decomposes_by_world():
    rng = make_rng(4)
    recs = [
        EpisodeRecord(int(rng.integers(0, 3)), 0, 0.0, 0.0, float(rng.random()), 0.0, 1)
        for _ in range(500)
    ]
    total = empirical_expected_utility(recs)
    by_world = 0.0
    for w in range(3):
        ws = [r.utility for r in recs if r.world == w]
        by_world += len(ws) / len(recs) * np.mean(ws)
    assert total == pytest.approx(by_world, abs=1e-12)


def test_empirical_mi_degenerate_and_identity():
    same = [
        EpisodeRecord(w, 0, 0.4, 0.4, 1.0, 1.0, 1)
        for w in range(6)
        for _ in range(10)
    ]
    assert empirical_mutual_information(same, 100) == pytest.approx(0.0)
    distinct = [
        EpisodeRecord(w, 0, 0.0, (w + 0.5) / 6, 1.0, 1.0, 1)
        for w in range(6)
        for _ in range(10)
    ]
    assert empirical_mutual_information(distinct, 100) == pytest.approx(np.log2(6))
    assert empirical_expected_utility(same) == pytest.approx(1.0)
    # unequal world counts in one slot: the plug-in sum rounds to -2.4e-16 unclamped
    one_slot = [
        EpisodeRecord(w, 0, 0.4, 0.4, 1.0, 1.0, 1)
        for w in range(6)
        for _ in range(58 + w)
    ]
    assert empirical_mutual_information(one_slot, 1) == 0.0


def test_empirical_mi_is_the_frontier_mi_of_the_binned_joint():
    # world 2 of 5 is never drawn; the drawn worlds' decisions overlap in slot 1
    cells = {(0, 0.05): 7, (0, 0.15): 3, (1, 0.15): 5, (1, 0.75): 9, (3, 0.95): 4, (4, 0.15): 2}
    records = [
        EpisodeRecord(w, 0, 0.5, a, 1.0, 1.0, 1) for (w, a), n in cells.items() for _ in range(n)
    ]
    joint = np.zeros((5, 10))
    for (w, a), n in cells.items():
        joint[w, int(a * 10)] = n
    drawn = joint[joint.sum(axis=1) > 0.0]
    rows = drawn.sum(axis=1)
    expected = mutual_information(rows / rows.sum(), drawn / rows[:, None])
    assert empirical_mutual_information(records, 10) == expected
    assert 0.0 < expected < math.log2(4)


def test_empirical_mi_matches_known_channel(gaussian_task):
    policy = solve_single_stage(gaussian_task, 20.0)
    exact_mi = mutual_information(gaussian_task.rho, policy.cond)
    exact_eu = expected_utility(gaussian_task, policy)
    rng = make_rng(5)
    cum = policy.cond.cumsum(axis=1)
    recs = []
    for _ in range(10_000):
        w = int(rng.integers(0, 6))
        j = int(np.searchsorted(cum[w], rng.random(), side="right"))
        a = float(policy.grid[j])
        recs.append(EpisodeRecord(w, 0, a, a, gaussian_task.utility(w, a), 0.0, 1))
    assert abs(empirical_mutual_information(recs, 100) - exact_mi) < 0.05
    assert abs(empirical_expected_utility(recs) - exact_eu) < 0.01


def test_episode_csv_format(gaussian_task):
    cfg = SystemConfig(num_priors=1, budget=BudgetSplit(5, 0))
    _, recs = train_system(gaussian_task, cfg, 3, make_rng(11))
    buf = io.StringIO()
    write_episode_csv(recs, buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == "episode,world,prior,seed_action,decision,utility,seed_utility,evals"
    assert len(lines) == 5 and lines[-1] == ""  # 3 rows + trailing newline
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert len(fields) == 8


def _reference_component_str(a):
    """The ';'-joined action column that episode logs were written with."""
    return ";".join(format(float(c), ".12g") for c in np.atleast_1d(a))


def test_component_str_matches_reference_implementation():
    # the action columns keep the bytes of the ';'-joined one-element array
    values = [1e-5, 0.1, 1.0, math.nan, 0.0, 0.5, 1 / 3, 0.123456789012345, 2e-300]
    rng = make_rng(6)
    pairs = [(u, v) for u in values for v in values]
    pairs += rng.uniform(0.0, 1.0, size=(500, 2)).tolist()
    records = [EpisodeRecord(0, 0, seed, decision, 0.5, 0.5, 1) for seed, decision in pairs]
    buf = io.StringIO()
    write_episode_csv(records, buf)
    rows = buf.getvalue().splitlines()[1:]
    assert len(rows) == len(pairs)
    for row, (seed, decision) in zip(rows, pairs):
        fields = row.split(",")
        assert fields[3] == _reference_component_str(np.array([seed]))
        assert fields[4] == _reference_component_str(np.array([decision]))


def _reference_draw_world(rho, rng):
    return int(np.searchsorted(np.cumsum(rho), rng.random(), side="right"))


@pytest.mark.parametrize(
    "rho", [np.full(6, 1 / 6), np.array([0.05, 0.0, 0.4, 0.25, 0.3])], ids=["uniform", "skewed"]
)
def test_draw_world_matches_reference_implementation(rho):
    world = WorldModel(num_worlds=len(rho), rho=rho, utility=lambda w, a: 0.0)
    system = DecisionSystem(world, SystemConfig(num_priors=1), make_rng(0))
    picked = set()
    for seed in range(3000):
        a, b = make_rng(seed), make_rng(seed)
        system.rng = a
        w = system.draw_world()
        assert w == _reference_draw_world(rho, b)
        assert a.random() == b.random()
        picked.add(w)
    assert picked == {w for w in range(len(rho)) if rho[w] > 0.0}


@pytest.mark.parametrize(
    "rho",
    [np.full(6, 1 / 6), np.array([0.05, 0.0, 0.4, 0.25, 0.3]), np.array([0.3, 0.7, 0.0, 0.0])],
    ids=["uniform", "skewed", "trailing_zeros"],
)
def test_draw_world_is_draw_index_over_rho(rho):
    world = WorldModel(num_worlds=len(rho), rho=rho, utility=lambda w, a: 0.0)
    system = DecisionSystem(world, SystemConfig(num_priors=1), make_rng(0))
    for seed in range(1000):
        a, b = make_rng(seed), make_rng(seed)
        system.rng = a
        assert system.draw_world() == draw_index(rho, b)
        assert a.random() == b.random()


class _LargestUniform:
    """Generator stub whose every uniform is the largest double below 1."""

    def random(self):
        return 1.0 - 2.0**-53


@pytest.mark.parametrize(
    "rho, last",
    [
        (np.full(6, 1 / 6), 5),
        (np.full(7, 1 / 7), 6),
        (np.full(10, 1 / 10), 9),
        (np.append(np.full(6, 1 / 6), 0.0), 5),
        (np.array([0.25, 0.75, 0.0]), 1),
        (np.array([0.5, 0.5, 0.0, 0.0]), 1),
    ],
)
def test_draw_world_never_passes_the_last_world(rho, last):
    # the running sum of rho can stop short of 1, below the largest uniform
    world = WorldModel(num_worlds=len(rho), rho=rho, utility=lambda w, a: 0.0)
    system = DecisionSystem(world, SystemConfig(num_priors=1), make_rng(0))
    system.rng = _LargestUniform()
    assert system.draw_world() == last


def test_empirical_mi_rejects_non_finite_decisions():
    records = [
        EpisodeRecord(w, 0, 0.5, (w + 0.5) / 6, 1.0, 1.0, 1)
        for w in range(6)
    ]
    records[3] = EpisodeRecord(3, 0, 0.5, math.nan, 1.0, 1.0, 1)
    with pytest.raises(ValueError, match="non-finite decisions"):
        empirical_mutual_information(records, 100)


def test_selection_prefers_matching_prior_after_training(gaussian_task):
    # after training, episodes on a fixed world select that world's
    # specialized prior almost always once the selection gets greedy
    cfg = SystemConfig(num_priors=3, budget=BudgetSplit(100, 25))
    system, recs = train_system(gaussian_task, cfg, 3000, make_rng(0))
    modal = {}
    for r in recs[-300:]:
        modal.setdefault(r.world, []).append(r.prior)
    modal = {w: max(set(v), key=v.count) for w, v in modal.items()}
    system.rng = make_rng(123)
    hits = 0
    trials = 300
    for _ in range(trials):
        hits += system.run_episode(0).prior == modal[0]
    assert hits / trials >= 0.9
