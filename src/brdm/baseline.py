"""Exact discrete solvers for the information-constrained decision problems.

Both solvers iterate self-consistent fixed-point equations on a discretized
action grid, in the one driver ``_iterate``, until the max-norm change across
all updated arrays drops below ``tol``. Each equation is stated once, in the
helper named on its right; ``_gibbs`` is the one Boltzmann normalisation:

single stage   K(w,a)   = exp(beta U(w,a)) / sum_a exp(beta U(w,a))  _gibbs
               p(a|w)   = p(a) K(w,a) / sum_a p(a) K(w,a)
               p(a)     = sum_w rho(w) p(a|w)
two stage      p(x|w)   = p(x) exp(beta1 dF(w,x)) / Z(w)         _stage1_policy
               p(x)     = sum_w rho(w) p(x|w)
               p(a|w,x) = p(a|x) exp(beta2 U(w,a)) / Z(w,x)      _stage2_policy
               p(a|x)   = sum_w p(w|x) p(a|w,x)                   _stage2_marginal
               p(w|x)   = rho(w) p(x|w) / p(x)                    _world_posterior
               dF(w,x)  = E_{p(a|w,x)}[U(w,a)] - KL(p(a|w,x) || p(a|x)) / beta2
                                                                  _delta_free_energy

The single-stage exponentials are taken once per solve, in ``_gibbs``: the
kernel K does not change within a solve, so each sweep only multiplies by it
and renormalises. The two-stage exponentials are taken on every sweep, in
the log domain. ``_gibbs`` subtracts each row's max first, so betas up to
1e6 are safe. Internal free energies and KL terms are in nats; mutual
information is reported in bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import WorldModel, make_rng

# Iterated marginals are floored at this value (then renormalized). The true
# fixed points shed support at large beta, and letting entries underflow to
# exact zero turns the support loss into denormal-rounding artifacts: a row
# can keep a 5e-324 entry whose rho-weighted sum rounds to zero, making the
# KL in dF infinite. The floor is invisible at the 1e-10 tolerance scale and
# also lets warm starts regain mass on high-utility grid points.
_MARGINAL_FLOOR = 1e-280

# Relative amplitude of the symmetric noise on the two-stage start.
_INIT_NOISE = 1e-3


def _floor_norm(p: np.ndarray, axis: int = -1) -> np.ndarray:
    p = np.maximum(p, _MARGINAL_FLOOR)
    return p / p.sum(axis=axis, keepdims=True)


@dataclass(frozen=True)
class DiscretePolicy:
    """Conditional action distribution p(a|w) on a grid, with marginal p(a)."""

    grid: np.ndarray
    cond: np.ndarray
    marginal: np.ndarray
    converged: bool = True
    iterations: int = 0
    residual: float = 0.0

    def __post_init__(self):
        if not np.allclose(self.cond.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("rows of p(a|w) must sum to 1 within 1e-9")
        if abs(float(self.marginal.sum()) - 1.0) > 1e-9:
            raise ValueError("p(a) must sum to 1 within 1e-9")


@dataclass(frozen=True)
class TwoStageSolution:
    """The five coupled quantities of the two-stage fixed point."""

    px_given_w: np.ndarray
    px: np.ndarray
    pa_given_wx: np.ndarray
    pa_given_x: np.ndarray
    delta_f: np.ndarray
    beta1: float
    beta2: float
    grid: np.ndarray
    converged: bool = True
    iterations: int = 0
    residual: float = 0.0

    def world_posterior(self, rho: np.ndarray) -> np.ndarray:
        """Bayesian responsibilities p(w|x) induced by the first stage."""
        return _world_posterior(np.asarray(rho, dtype=float), self.px_given_w, self.px)


@dataclass(frozen=True)
class FrontierPoint:
    """One point of the efficiency frontier traced over beta."""

    beta: float
    mutual_info_bits: float
    expected_utility: float
    converged: bool = True


def action_grid(grid_size: int) -> np.ndarray:
    """G equidistant slices of [0, 1]; point j sits at (j + 0.5) / G."""
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    return (np.arange(grid_size) + 0.5) / grid_size


def utility_table(world: WorldModel, grid: np.ndarray) -> np.ndarray:
    """Evaluate U(w, a) on every (world, grid point) pair."""
    table = np.empty((world.num_worlds, grid.size))
    points = grid.tolist()
    for w in range(world.num_worlds):
        for j, g in enumerate(points):
            table[w, j] = world.utility(w, g)
    return table


def _kl_rows_nats(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Rowwise KL(p || q) in nats along the last axis; 0 log 0 := 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p / q), 0.0)
    return terms.sum(axis=-1)


def mutual_information(rho: np.ndarray, cond: np.ndarray) -> float:
    """I(W;A) in bits for channel rows ``cond`` against the induced marginal.

    Sums joint * log2(cond / marginal) over the cells where the joint
    rho(w) p(a|w) is positive. There the marginal is at least the joint, so
    the ratio stays finite even when a column's only mass is denormal
    (dividing by rho * marginal instead would underflow to zero).
    """
    rho = np.asarray(rho, dtype=float)
    cond = np.asarray(cond, dtype=float)
    joint = rho[:, None] * cond
    marginal = joint.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(joint > 0.0, joint * np.log2(cond / marginal[None, :]), 0.0)
    # I(W;A) >= 0; the sum can round a hair below zero for a near-uniform channel
    return max(float(terms.sum()), 0.0)


def _table_expected_utility(rho: np.ndarray, cond: np.ndarray, table: np.ndarray) -> float:
    """E_{rho, p(a|w)}[U(w, a)] from a precomputed utility table."""
    return float(rho @ (cond * table).sum(axis=1))


def expected_utility(world: WorldModel, policy: DiscretePolicy) -> float:
    """E_{rho, p(a|w)}[U(w, a)] on the policy's grid."""
    return _table_expected_utility(world.rho, policy.cond, utility_table(world, policy.grid))


def free_energy(world: WorldModel, policy: DiscretePolicy, beta: float) -> float:
    """Expected utility minus the information cost KL(p(a|w) || p(a)) / beta."""
    if not beta > 0.0:
        raise ValueError("beta must be positive; use expected_utility at beta = 0")
    eu = expected_utility(world, policy)
    kl = float(world.rho @ _kl_rows_nats(policy.cond, policy.marginal[None, :]))
    return eu - kl / beta


def _gibbs(logits: np.ndarray) -> np.ndarray:
    """exp(logits) normalised along the last axis; shifts ``logits`` in place."""
    logits -= logits.max(axis=-1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _iterate(update, state: tuple, tol: float, max_iter: int):
    """Apply ``update`` to the array tuple ``state`` until its max-norm change is below tol.

    Returns the final state, then ``converged``, the number of updates and the
    last change, in the order of the solution types' trailing fields.
    """
    residual = np.inf
    iteration = 0
    for iteration in range(1, max_iter + 1):
        new = update(state)
        residual = max([float(np.abs(n - o).max()) for n, o in zip(new, state)])
        state = new
        if residual < tol:
            return state, True, iteration, residual
    return state, False, iteration, residual


def solve_single_stage(
    world: WorldModel,
    beta: float,
    grid_size: int = 100,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    init_marginal: np.ndarray | None = None,
) -> DiscretePolicy:
    """Iterate the single-stage fixed point from a uniform (or given) start.

    Non-convergence is not an error: the returned policy carries
    ``converged`` and the final residual, and the caller decides severity.
    """
    if not 0.0 <= beta < np.inf:
        raise ValueError("beta must be finite and >= 0")
    grid = action_grid(grid_size)
    rho = world.rho
    nw = world.num_worlds

    kernel = _gibbs(beta * utility_table(world, grid))
    # rows 0..W-1 hold p(a|w), row W holds p(a): one array, one residual
    state = np.empty((nw + 1, grid_size))
    if init_marginal is None:
        state[:] = 1.0 / grid_size
    else:
        state[:] = _floor_norm(np.asarray(init_marginal, dtype=float))

    def sweep(states):
        (old,) = states
        new = np.empty_like(old)
        cond = np.multiply(old[nw], kernel, out=new[:nw])
        cond /= cond.sum(axis=1, keepdims=True)
        new[nw] = _floor_norm(rho @ cond)
        return (new,)

    (state,), *status = _iterate(sweep, (state,), tol, max_iter)
    return DiscretePolicy(grid, state[:nw], state[nw], *status)


def _stage1_policy(px: np.ndarray, delta_f: np.ndarray, beta1: float) -> np.ndarray:
    """p(x|w) = p(x) exp(beta1 dF(w,x)) / Z(w)."""
    return _gibbs(np.log(px)[None, :] + beta1 * delta_f)


def _stage2_policy(pa_given_x: np.ndarray, table: np.ndarray, beta2: float) -> np.ndarray:
    """p(a|w,x) = p(a|x) exp(beta2 U(w,a)) / Z(w,x)."""
    return _gibbs(np.log(pa_given_x)[None, :, :] + beta2 * table[:, None, :])


def _world_posterior(rho: np.ndarray, px_given_w: np.ndarray, px: np.ndarray) -> np.ndarray:
    """p(w|x) = rho(w) p(x|w) / p(x)."""
    return rho[:, None] * px_given_w / px[None, :]


def _stage2_marginal(
    rho: np.ndarray, px_given_w: np.ndarray, px: np.ndarray, pa_given_wx: np.ndarray
) -> np.ndarray:
    """p(a|x) = sum_w p(w|x) p(a|w,x), unfloored."""
    return np.einsum("kx,kxg->xg", _world_posterior(rho, px_given_w, px), pa_given_wx)


def _delta_free_energy(
    table: np.ndarray, pa_given_wx: np.ndarray, pa_given_x: np.ndarray, beta2: float
) -> np.ndarray:
    """dF(w,x) in nats; at beta2 = 0 the KL term vanishes with the constraint."""
    eu = np.einsum("kxg,kg->kx", pa_given_wx, table)
    if beta2 == 0.0:
        return eu
    kl = _kl_rows_nats(pa_given_wx, pa_given_x[None, :, :])
    return eu - kl / beta2


def solve_two_stage(
    world: WorldModel,
    beta1: float,
    beta2: float,
    num_priors: int,
    grid_size: int = 100,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    rng: np.random.Generator | None = None,
) -> TwoStageSolution:
    """Iterate the five two-stage equations in order from a near-uniform start.

    The p(a|w,x) rows start uniform with symmetric ``_INIT_NOISE`` relative
    perturbations: a perfectly symmetric start is a repelling fixed point and
    would never specialize. The perturbation RNG defaults to a fixed seed so
    repeated solves are bit-identical.
    """
    if not (0.0 <= beta1 < np.inf and 0.0 <= beta2 < np.inf):
        raise ValueError("beta1 and beta2 must be finite and >= 0")
    if num_priors < 1:
        raise ValueError("num_priors must be >= 1")
    if num_priors > world.num_worlds:
        warnings.warn("num_priors exceeds num_worlds; the extra priors are degenerate")
    if rng is None:
        rng = make_rng(0)

    grid = action_grid(grid_size)
    table = utility_table(world, grid)
    rho = world.rho
    nw, nx, ng = world.num_worlds, num_priors, grid_size

    px_given_w = np.full((nw, nx), 1.0 / nx)
    px = np.full(nx, 1.0 / nx)
    pa_given_wx = np.full((nw, nx, ng), 1.0 / ng)
    pa_given_wx *= 1.0 + _INIT_NOISE * rng.uniform(-1.0, 1.0, size=pa_given_wx.shape)
    pa_given_wx /= pa_given_wx.sum(axis=2, keepdims=True)
    pa_given_x = _stage2_marginal(rho, px_given_w, px, pa_given_wx)
    delta_f = _delta_free_energy(table, pa_given_wx, pa_given_x, beta2)

    def sweep(state):
        _, px, _, pa_given_x, delta_f = state
        px_given_w = _stage1_policy(px, delta_f, beta1)
        px = _floor_norm(rho @ px_given_w)
        pa_given_wx = _stage2_policy(pa_given_x, table, beta2)
        pa_given_x = _floor_norm(_stage2_marginal(rho, px_given_w, px, pa_given_wx))
        delta_f = _delta_free_energy(table, pa_given_wx, pa_given_x, beta2)
        return px_given_w, px, pa_given_wx, pa_given_x, delta_f

    state, *status = _iterate(
        sweep, (px_given_w, px, pa_given_wx, pa_given_x, delta_f), tol, max_iter
    )
    return TwoStageSolution(*state, beta1, beta2, grid, *status)


def two_stage_residuals(world: WorldModel, sol: TwoStageSolution) -> dict[str, float]:
    """Max-norm defect of each fixed-point equation at the returned solution."""
    table = utility_table(world, sol.grid)
    rho = world.rho
    sides = {
        "px_given_w": (_stage1_policy(sol.px, sol.delta_f, sol.beta1), sol.px_given_w),
        "px": (rho @ sol.px_given_w, sol.px),
        "pa_given_wx": (_stage2_policy(sol.pa_given_x, table, sol.beta2), sol.pa_given_wx),
        "pa_given_x": (
            _stage2_marginal(rho, sol.px_given_w, sol.px, sol.pa_given_wx),
            sol.pa_given_x,
        ),
        "delta_f": (
            _delta_free_energy(table, sol.pa_given_wx, sol.pa_given_x, sol.beta2),
            sol.delta_f,
        ),
    }
    return {name: float(np.abs(rhs - lhs).max()) for name, (rhs, lhs) in sides.items()}


def rate_distortion_curve(
    world: WorldModel,
    betas: list[float],
    grid_size: int = 100,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> list[FrontierPoint]:
    """One frontier point per beta, warm-starting each solve from the last."""
    betas = [float(b) for b in betas]
    if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("betas must be sorted ascending")
    table = utility_table(world, action_grid(grid_size))
    points: list[FrontierPoint] = []
    warm: np.ndarray | None = None
    for beta in betas:
        policy = solve_single_stage(
            world, beta, grid_size=grid_size, tol=tol, max_iter=max_iter, init_marginal=warm
        )
        warm = policy.marginal
        points.append(
            FrontierPoint(
                beta=beta,
                mutual_info_bits=mutual_information(world.rho, policy.cond),
                expected_utility=_table_expected_utility(world.rho, policy.cond, table),
                converged=policy.converged,
            )
        )
    return points
