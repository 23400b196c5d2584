"""Anytime Metropolis-Hastings decision chains.

The action chain random-walks over [0, 1] with a symmetric Gaussian
proposal (boundary handling by reflection, which keeps the proposal kernel
symmetric; clipping would pile atoms onto the boundary and invalidate the
simplified acceptance rule). Precision follows the annealing schedule
gamma(k) = gamma0 + alpha * log(1 + k), coarse early and fine late. The
prior-selection chain runs the same acceptance rule over a discrete index
set with uniform global proposals and cached utility estimates.

A stopped chain's current state is the decision; resources are counted as
utility evaluations (one for the seed plus one per proposal). A chain
returns its decision and counts only, not its path; a caller that wants the
proposals can watch them through the utility it passes in.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .core import WorldModel


@dataclass(frozen=True)
class ChainConfig:
    """Action-chain parameters: annealing and proposal width."""

    gamma0: float = 1.0
    alpha: float = 5.0
    proposal_sigma: float = 0.1

    def __post_init__(self):
        if not (0.0 <= self.gamma0 < math.inf and 0.0 <= self.alpha < math.inf):
            raise ValueError("gamma0 and alpha must be finite and >= 0")
        if not 0.0 < self.proposal_sigma < math.inf:
            raise ValueError("proposal_sigma must be positive and finite")


@dataclass(frozen=True)
class ChainResult:
    """Decision and counts of one chain run.

    ``decision`` is the last accepted state and ``evaluations`` counts
    utility calls (seed + one per step).
    """

    decision: float
    evaluations: int
    acceptance_rate: float
    decision_utility: float
    seed_utility: float


@dataclass(frozen=True)
class SelectionConfig:
    """Prior-selection chain parameters and the per-candidate sample count."""

    gamma_sel0: float = 1.0
    alpha_sel: float = 5.0
    utility_samples: int = 3

    def __post_init__(self):
        if not (0.0 <= self.gamma_sel0 < math.inf and 0.0 <= self.alpha_sel < math.inf):
            raise ValueError("gamma_sel0 and alpha_sel must be finite and >= 0")
        if self.utility_samples < 1:
            raise ValueError("utility_samples must be >= 1")


@functools.lru_cache(maxsize=64)
def anneal_schedule(gamma0: float, alpha: float, steps: int) -> tuple[float, ...]:
    """Precision gamma0 + alpha * ln(1 + k) at steps k = 0 .. steps - 1, built once per triple."""
    return tuple(gamma0 + alpha * math.log1p(k) for k in range(steps))


def mh_accept_prob(u_new: float, u_old: float, gamma: float) -> float:
    """min{1, exp(gamma (u_new - u_old))}; uphill moves always accepted."""
    x = gamma * (u_new - u_old)
    if x >= 0.0:
        return 1.0
    return math.exp(x)


def reflect01(x: float, step: float = 0.0) -> float:
    """Fold the coordinate ``x + step`` back into [0, 1] by reflection at the walls."""
    r = (x + step) % 2.0
    return 2.0 - r if r > 1.0 else r


def run_action_chain(
    world: WorldModel,
    w: int,
    seed_action: float,
    cfg: ChainConfig,
    steps: int,
    rng: np.random.Generator,
) -> ChainResult:
    """Anneal an MH chain over U(w, .) for ``steps`` steps from ``seed_action``.

    The noise and uniforms are drawn as two blocks up front; the steps then
    run on Python floats, and each proposal is the float ``world.utility``
    receives. The chain keeps no record of its path. With ``steps == 0`` the
    seed is the decision, and the zero-size draws leave ``rng`` unchanged.
    """
    state = float(seed_action)
    u = world.utility(w, state)
    seed_u = u

    noise = rng.normal(0.0, cfg.proposal_sigma, size=steps).tolist()
    log_unif = np.log(rng.random(steps)).tolist()
    schedule = anneal_schedule(cfg.gamma0, cfg.alpha, steps)
    utility = world.utility

    accepted = 0
    for gamma, step, lu in zip(schedule, noise, log_unif):
        prop = reflect01(state, step)
        pu = utility(w, prop)
        du = pu - u
        if du >= 0.0 or lu < gamma * du:
            state, u = prop, pu
            accepted += 1

    return ChainResult(
        decision=state,
        evaluations=steps + 1,
        acceptance_rate=accepted / steps if steps else 0.0,
        decision_utility=u,
        seed_utility=seed_u,
    )


def inverse_cdf(px: Sequence[float]) -> list[float]:
    """Running sums of ``px`` over their total, which must be positive and finite.

    ``rng.choice`` normalizes the same way. The last entry is exactly 1.0, so
    bisecting a uniform in [0, 1) never passes the last index.
    """
    cdf = list(accumulate(px))
    if not 0.0 < cdf[-1] < math.inf:
        raise ValueError(f"probabilities must have a positive finite sum, not {cdf[-1]}")
    return [c / cdf[-1] for c in cdf]


def draw_index(px: Sequence[float], rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(px), p=px)`` draws, from the same one uniform.

    It leaves the generator in the same state, without that call's argument checks.
    """
    return bisect_right(inverse_cdf(px), rng.random())


def run_selection_chain(
    candidate_estimates: Sequence[float],
    px: Sequence[float],
    cfg: SelectionConfig,
    steps: int,
    rng: np.random.Generator,
) -> int:
    """MH chain of ``steps`` steps over prior indices with uniform global proposals.

    ``candidate_estimates`` holds one cached expected-utility estimate per
    prior; the acceptance rule compares new minus old, matching the action
    chain. The start index is drawn from the multinomial prior ``px``.
    """
    num = len(candidate_estimates)
    if num == 0:
        raise ValueError("need at least one candidate prior")
    if len(px) != num:
        raise ValueError("px needs one probability per candidate prior")
    x = draw_index(px, rng)
    if num == 1 or steps == 0:
        return x

    est = [float(v) for v in candidate_estimates]
    props = rng.integers(0, num, size=steps).tolist()
    log_unif = np.log(rng.random(steps)).tolist()
    schedule = anneal_schedule(cfg.gamma_sel0, cfg.alpha_sel, steps)
    for gamma, xp, lu in zip(schedule, props, log_unif):
        du = est[xp] - est[x]
        if du >= 0.0 or lu < gamma * du:
            x = xp
    return x
