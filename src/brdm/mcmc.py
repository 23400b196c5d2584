"""Anytime Metropolis-Hastings decision chains.

The action chain random-walks over the action box with a symmetric Gaussian
proposal (boundary handling by reflection, which keeps the proposal kernel
symmetric; clipping would pile atoms onto the boundary and invalidate the
simplified acceptance rule). Precision follows the annealing schedule
gamma(k) = gamma0 + alpha * log(1 + k), coarse early and fine late. The
prior-selection chain runs the same acceptance rule over a discrete index
set with uniform global proposals and cached utility estimates.

A stopped chain's current state is the decision; resources are counted as
utility evaluations (one for the seed plus one per proposal).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import IO, Sequence

import numpy as np

from .core import WorldModel


@dataclass(frozen=True)
class ChainConfig:
    """Action-chain parameters: annealing and proposal width."""

    gamma0: float = 1.0
    alpha: float = 5.0
    proposal_sigma: float = 0.1

    def __post_init__(self):
        if self.gamma0 < 0.0 or self.alpha < 0.0:
            raise ValueError("gamma0 and alpha must be >= 0")
        if not self.proposal_sigma > 0.0:
            raise ValueError("proposal_sigma must be positive")


@dataclass(frozen=True)
class ChainResult:
    """Trace and decision of one chain run.

    ``trace`` holds one (proposal, proposal utility, accepted) triple per
    step when recorded; ``decision`` is the last accepted state and
    ``evaluations`` counts utility calls (seed + one per step).
    """

    decision: np.ndarray
    trace: tuple[tuple[np.ndarray, float, bool], ...]
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
        if self.gamma_sel0 < 0.0 or self.alpha_sel < 0.0:
            raise ValueError("gamma_sel0 and alpha_sel must be >= 0")
        if self.utility_samples < 1:
            raise ValueError("utility_samples must be >= 1")


def anneal_gamma(k: float, gamma0: float, alpha: float) -> float:
    """Precision after k steps: gamma0 + alpha * ln(1 + k)."""
    if k < 0:
        raise ValueError("step index must be >= 0")
    return gamma0 + alpha * math.log1p(k)


def mh_accept_prob(u_new: float, u_old: float, gamma: float) -> float:
    """min{1, exp(gamma (u_new - u_old))}; uphill moves always accepted."""
    x = gamma * (u_new - u_old)
    if x >= 0.0:
        return 1.0
    return math.exp(x)


def reflect01(x: float) -> float:
    """Fold a coordinate back into [0, 1] by reflection at the walls."""
    r = x % 2.0
    return 2.0 - r if r > 1.0 else r


def run_action_chain(
    world: WorldModel,
    w: int,
    seed_action: np.ndarray,
    cfg: ChainConfig,
    steps: int,
    rng: np.random.Generator,
    record_trace: bool = True,
) -> ChainResult:
    """Anneal an MH chain over U(w, .) for ``steps`` steps from ``seed_action``.

    The noise and uniforms are drawn as two blocks up front; the steps then
    run on Python floats. Each proposal is written into one reused buffer,
    which is the array ``world.utility`` receives. With ``steps == 0`` the
    seed is the decision, and the zero-size draws leave ``rng`` unchanged.
    """
    buf = np.array(seed_action, dtype=float)
    u = world.utility(w, buf)
    seed_u = u
    state = buf.tolist()

    d = len(state)
    noise = rng.normal(0.0, cfg.proposal_sigma, size=(steps, d)).tolist()
    log_unif = np.log(rng.random(steps)).tolist()
    gamma0, alpha = cfg.gamma0, cfg.alpha
    utility = world.utility
    dims = range(d)

    trace: list[tuple[np.ndarray, float, bool]] = []
    accepted = 0
    for k, (step, lu) in enumerate(zip(noise, log_unif)):
        prop = [0.0] * d
        for i in dims:
            prop[i] = buf[i] = reflect01(state[i] + step[i])
        pu = utility(w, buf)
        du = pu - u
        ok = du >= 0.0 or lu < (gamma0 + alpha * math.log1p(k)) * du
        if ok:
            state, u = prop, pu
            accepted += 1
        if record_trace:
            trace.append((np.array(prop), pu, ok))

    return ChainResult(
        decision=np.array(state),
        trace=tuple(trace),
        evaluations=steps + 1,
        acceptance_rate=accepted / steps if steps else 0.0,
        decision_utility=u,
        seed_utility=seed_u,
    )


def draw_index(px: Sequence[float], rng: np.random.Generator) -> int:
    """Index drawn with probabilities ``px`` from one uniform.

    The same index as ``rng.choice(len(px), p=px)``, which leaves the
    generator in the same state, without that call's argument checks: the
    running sums are normalized by their last entry, as ``rng.choice``
    does. Raises ``ValueError`` unless that total is positive and finite.
    """
    cdf = list(accumulate(px))
    total = cdf[-1]
    if not 0.0 < total < math.inf:
        raise ValueError(f"selection probabilities must have a positive finite sum, not {total}")
    return bisect_right([c / total for c in cdf], rng.random())


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
    gamma0, alpha = cfg.gamma_sel0, cfg.alpha_sel
    for k, (xp, lu) in enumerate(zip(props, log_unif)):
        du = est[xp] - est[x]
        if du >= 0.0 or lu < (gamma0 + alpha * math.log1p(k)) * du:
            x = xp
    return x


def dump_trace(result: ChainResult, cfg: ChainConfig, out: IO[str]) -> None:
    """Tab-separated diagnostics: step, action components, utility, gamma, accepted."""
    for k, (action, utility, ok) in enumerate(result.trace):
        gamma = anneal_gamma(k, cfg.gamma0, cfg.alpha)
        coords = "\t".join(format(float(c), ".12g") for c in np.atleast_1d(action))
        out.write(
            f"{k}\t{coords}\t{format(utility, '.12g')}\t{format(gamma, '.12g')}\t{int(ok)}\n"
        )
