"""Domain types shared by every solver and agent.

A decision problem is a finite set of world states w drawn from a fixed
distribution rho(w), a continuous action interval [0, 1], and a bounded
utility U(w, a). The reference task is a bank of Gaussian utility bumps on
[0, 1], one peak per world state.

All randomness flows through explicitly passed ``numpy.random.Generator``
handles; there is no module-level RNG. Core types are immutable after
construction and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# A world's utility is evaluated as utility(world_index, action) -> float,
# with the action one Python float inside [0, 1].
UtilityFn = Callable[[int, float], float]


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator: same seed, same call sequence, same draws."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def spawn_rng(seed: int, index: int) -> np.random.Generator:
    """Independent stream for worker ``index``, derived from a master seed.

    Streams depend only on (seed, index), never on scheduling order.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


@dataclass(frozen=True)
class WorldModel:
    """Finite world-state distribution plus a utility over (world, action)."""

    num_worlds: int
    rho: np.ndarray
    utility: UtilityFn

    def __post_init__(self):
        if self.num_worlds < 1:
            raise ValueError("num_worlds must be positive")
        rho = np.asarray(self.rho, dtype=float)
        object.__setattr__(self, "rho", rho)
        if rho.shape != (self.num_worlds,):
            raise ValueError("rho must have one entry per world state")
        if not ((rho >= 0.0) & (rho < math.inf)).all():
            raise ValueError("rho entries must be finite and nonnegative")
        if abs(float(rho.sum()) - 1.0) > 1e-12:
            raise ValueError("rho must sum to 1 within 1e-12")


@dataclass(frozen=True)
class GaussianTaskSpec:
    """Bank of Gaussian utility bumps on [0, 1], one optimum per world.

    ``means`` defaults to equal spacing at (i + 0.5) / num_worlds. ``width``
    is the common standard deviation; 0.1 keeps neighbouring peaks weakly
    overlapping while leaving the per-world optimum resolvable on a
    100-point action grid.
    """

    num_worlds: int = 6
    width: float = 0.1
    means: tuple[float, ...] = field(default=())

    def __post_init__(self):
        if self.num_worlds < 1:
            raise ValueError("num_worlds must be positive")
        if not 0.0 < self.width < math.inf:
            raise ValueError("width must be positive and finite")
        means = self.means
        if len(means) == 0:
            means = tuple((i + 0.5) / self.num_worlds for i in range(self.num_worlds))
        else:
            means = tuple(float(m) for m in means)
        object.__setattr__(self, "means", means)
        if len(means) != self.num_worlds:
            raise ValueError("means must have one entry per world state")
        if not all(0.0 <= m <= 1.0 for m in means):
            raise ValueError("means must lie in [0, 1]")
        if any(b <= a for a, b in zip(means, means[1:])):
            raise ValueError("means must be strictly increasing")


def make_gaussian_task(spec: GaussianTaskSpec) -> WorldModel:
    """Uniform rho over worlds; U(w, a) = exp(-(a - means[w])^2 / (2 width^2))."""
    means = spec.means
    denom = 2.0 * spec.width * spec.width

    def utility(w: int, a: float) -> float:
        diff = a - means[w]
        return math.exp(-(diff * diff) / denom)

    rho = np.full(spec.num_worlds, 1.0 / spec.num_worlds)
    return WorldModel(num_worlds=spec.num_worlds, rho=rho, utility=utility)
