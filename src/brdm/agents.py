"""Full decision episodes: prior selection, action chain, online prior training.

A system owns one VAE prior per index x. Each episode for a world state w:

1. multi-prior only: estimate E[U(w, .)] per candidate prior from a few
   prior samples, then run the discrete selection chain over the cached
   estimates to pick x (single-prior systems skip this stage);
2. draw the seed action from the selected prior and anneal the action chain
   from it, the final state is the decision;
3. append the decision to the selected prior's ring buffer, bump the
   multinomial selection counts, and (during training) take one VAE
   gradient step on a random batch from that buffer.

Utility-call accounting per episode: the action stage always costs
action_steps + 1 evaluations (seed included); the selection stage adds
utility_samples * num_priors when it runs. Selection-chain proposals reuse
the cached estimates and cost no evaluations. Episode logs are written by
:mod:`brdm.experiment`; this module holds the decision logic only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .baseline import mutual_information
from .core import WorldModel
from .mcmc import (
    ChainConfig, SelectionConfig, draw_index, inverse_cdf, run_action_chain, run_selection_chain
)
from .vae import VaeArch, VaePrior, init_vae, param_count, sample_action, sample_actions, train_step


@dataclass(frozen=True)
class BudgetSplit:
    """Fixed step budget split between selection and action chains."""

    total_steps: int = 100
    selection_steps: int = 25

    def __post_init__(self):
        if not 0 <= self.selection_steps <= self.total_steps:
            raise ValueError("selection_steps must lie in [0, total_steps]")

    @property
    def action_steps(self) -> int:
        return self.total_steps - self.selection_steps

    @staticmethod
    def fraction(total_steps: int, selection_fraction: float) -> "BudgetSplit":
        """Round a fraction of the budget onto the selection chain."""
        return BudgetSplit(total_steps, int(round(selection_fraction * total_steps)))


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build a decision system except its generator."""

    num_priors: int = 3
    budget: BudgetSplit = BudgetSplit()
    chain: ChainConfig = ChainConfig()
    selection: SelectionConfig = SelectionConfig()
    vae: VaeArch = VaeArch()
    step_size: float = 0.01
    buffer_size: int = 256
    batch_size: int = 32

    def __post_init__(self):
        if self.num_priors < 1:
            raise ValueError("num_priors must be >= 1")
        if self.buffer_size < 1 or self.batch_size < 1:
            raise ValueError("buffer_size and batch_size must be >= 1")
        if not 0.0 <= self.step_size < math.inf:
            raise ValueError("step_size must be finite and >= 0")


class EpisodeRecord(NamedTuple):
    """One episode's outcome, its fields the log's columns; ``evals`` counts utility calls."""

    world: int
    prior: int
    seed_action: float
    decision: float
    utility: float
    seed_utility: float
    evals: int

    @property
    def delta_u(self) -> float:
        return self.utility - self.seed_utility


@dataclass
class MultinomialPrior:
    """Selection counts with add-one smoothing, so every prior stays reachable."""

    counts: np.ndarray

    @property
    def px(self) -> list[float]:
        smoothed = [c + 1 for c in self.counts.tolist()]
        total = sum(smoothed)  # an exact integer for any number of priors
        return [s / total for s in smoothed]

    def update(self, x: int) -> None:
        self.counts[x] += 1


class _RingBuffer:
    """Fixed-capacity store of recent decisions with O(1) append."""

    def __init__(self, capacity: int):
        self._data = np.empty((capacity, 1))
        self._capacity = capacity
        self._next = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def append(self, a: float) -> None:
        self._data[self._next] = a
        self._next = (self._next + 1) % self._capacity
        self._count = min(self._count + 1, self._capacity)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        idx = rng.integers(0, self._count, size=n)
        return self._data.take(idx, axis=0)


class DecisionSystem:
    """Mutable agent state: VAE priors, buffers, and the selection multinomial.

    The priors' parameters are the rows of one bank: ``vaes[p]`` views row
    p, and a stack over the whole bank decodes every prior in one pass for
    the selection stage.

    Training mutates the system between episodes, so a system instance is
    single-threaded; run independent (config, generator) instances to parallelize.
    """

    def __init__(self, world: WorldModel, cfg: SystemConfig, rng: np.random.Generator):
        self.world = world
        self.cfg = cfg
        self.rng = rng
        bank = np.empty((cfg.num_priors, param_count(cfg.vae)))
        self.vaes: tuple[VaePrior, ...] = tuple(init_vae(cfg.vae, self.rng, row) for row in bank)
        self._stack = VaePrior(cfg.vae, bank)
        self.buffers = [_RingBuffer(cfg.buffer_size) for _ in range(cfg.num_priors)]
        self.multinomial = MultinomialPrior(np.zeros(cfg.num_priors, dtype=np.int64))
        self._rho_cdf = inverse_cdf(world.rho.tolist())
        self._select = cfg.num_priors > 1 and cfg.budget.selection_steps > 0
        self._expected_evals = cfg.budget.action_steps + 1
        if self._select:
            self._expected_evals += cfg.selection.utility_samples * cfg.num_priors

    def draw_world(self) -> int:
        return bisect_right(self._rho_cdf, self.rng.random())

    def run_episode(self, w: int) -> EpisodeRecord:
        """One decision episode for world ``w``; updates buffers and counts.

        Does not take a VAE gradient step; :func:`train_system` interleaves
        those, so evaluation episodes leave the weights untouched.
        """
        rng = self.rng
        world = self.world
        budget = self.cfg.budget
        evals = 0

        if self._select:
            m = self.cfg.selection.utility_samples
            estimates = [
                sum(world.utility(w, a) for a in draws) / m
                for draws in sample_actions(self._stack, m, rng)[..., 0].tolist()
            ]
            evals += m * self.cfg.num_priors
            x = run_selection_chain(
                estimates, self.multinomial.px, self.cfg.selection, budget.selection_steps, rng
            )
        elif self.cfg.num_priors > 1:
            x = draw_index(self.multinomial.px, rng)
        else:
            x = 0

        seed = sample_action(self.vaes[x], rng)
        result = run_action_chain(world, w, seed, self.cfg.chain, budget.action_steps, rng)
        evals += result.evaluations
        if evals != self._expected_evals:
            raise RuntimeError("utility evaluation accounting drifted")

        self.buffers[x].append(result.decision)
        self.multinomial.update(x)
        return EpisodeRecord(
            world=w,
            prior=x,
            seed_action=seed,
            decision=result.decision,
            utility=result.decision_utility,
            seed_utility=result.seed_utility,
            evals=evals,
        )

    def train_prior(self, x: int) -> None:
        """One gradient step for prior ``x`` on a random batch from its buffer."""
        buf = self.buffers[x]
        if len(buf) == 0:
            return
        batch = buf.sample(self.cfg.batch_size, self.rng)
        train_step(self.vaes[x], batch, self.cfg.step_size, self.rng)


def train_system(
    world: WorldModel, cfg: SystemConfig, num_episodes: int, rng: np.random.Generator
) -> tuple[DecisionSystem, list[EpisodeRecord]]:
    """Run episodes with worlds drawn i.i.d. from rho, training as we go."""
    system = DecisionSystem(world, cfg, rng)
    records: list[EpisodeRecord] = []
    for _ in range(num_episodes):
        w = system.draw_world()
        record = system.run_episode(w)
        system.train_prior(record.prior)
        records.append(record)
    return system, records


def empirical_expected_utility(records: Sequence[EpisodeRecord]) -> float:
    """Mean decision utility over the log."""
    if not records:
        raise ValueError("empty episode log")
    return sum(r.utility for r in records) / len(records)


def empirical_mutual_information(records: Sequence[EpisodeRecord], bins: int) -> float:
    """Plug-in I(W;A) in bits: ``mutual_information`` of decisions binned into equal slices."""
    if not records:
        raise ValueError("empty episode log")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    worlds = np.array([r.world for r in records])
    decisions = np.array([r.decision for r in records])
    if not np.isfinite(decisions).all():
        raise ValueError(
            "non-finite decisions in the episode log (diverged VAE weights; lower step_size)"
        )
    # only the worlds an episode drew get a row: an empty p(a|w) row would put NaN in the marginal
    seen, row = np.unique(worlds, return_inverse=True)
    counts = np.zeros((seen.size, bins))
    np.add.at(counts, (row, np.minimum((decisions * bins).astype(int), bins - 1)), 1.0)
    row_counts = counts.sum(axis=1, keepdims=True)
    return mutual_information(row_counts[:, 0] / len(records), counts / row_counts)
