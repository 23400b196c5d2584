"""Exact discrete solvers for the information-constrained decision problems.

Both solvers iterate self-consistent fixed-point equations on a discretized
action grid until the max-norm change across all updated arrays drops below
``tol``:

single stage   p(a|w) = p(a) exp(beta U(w,a)) / Z(w)
               p(a)   = sum_w rho(w) p(a|w)

two stage      p(x|w)   = p(x) exp(beta1 dF(w,x)) / Z(w)
               p(x)     = sum_w rho(w) p(x|w)
               p(a|w,x) = p(a|x) exp(beta2 U(w,a)) / Z(w,x)
               p(a|x)   = sum_w p(w|x) p(a|w,x)
               dF(w,x)  = E_{p(a|w,x)}[U(w,a)] - KL(p(a|w,x) || p(a|x)) / beta2

Internal free energies and KL terms are in nats; mutual information is
reported in bits. All exponentials are accumulated in the log domain with
per-row max subtraction so betas up to 1e6 are safe.
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

    num_priors: int
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
        rho = np.asarray(rho, dtype=float)
        post = rho[:, None] * self.px_given_w
        with np.errstate(divide="ignore", invalid="ignore"):
            post = np.where(self.px[None, :] > 0.0, post / self.px[None, :], 0.0)
        return post


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
    """Evaluate U(w, a) on every (world, grid point) pair; scalar actions only."""
    if world.action_dim != 1:
        raise ValueError("grid solvers support action_dim == 1 only")
    table = np.empty((world.num_worlds, grid.size))
    point = np.empty(1)
    for w in range(world.num_worlds):
        for j, g in enumerate(grid):
            point[0] = g
            table[w, j] = world.utility(w, point)
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
    return float(terms.sum())


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
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    grid = action_grid(grid_size)
    rho = world.rho

    if init_marginal is None:
        marginal = np.full(grid_size, 1.0 / grid_size)
    else:
        marginal = _floor_norm(np.asarray(init_marginal, dtype=float))
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
        new_marginal = _floor_norm(rho @ new_cond)

        residual = max(
            float(np.abs(new_cond - cond).max()),
            float(np.abs(new_marginal - marginal).max()),
        )
        cond, marginal = new_cond, new_marginal
        if residual < tol:
            converged = True
            break

    return DiscretePolicy(
        grid=grid,
        cond=cond,
        marginal=marginal,
        converged=converged,
        iterations=iteration,
        residual=residual,
    )


def _delta_free_energy(
    table: np.ndarray, pa_given_wx: np.ndarray, pa_given_x: np.ndarray, beta2: float
) -> np.ndarray:
    """dF(w,x) in nats; at beta2 = 0 the KL term vanishes with the constraint."""
    eu = np.einsum("kxg,kg->kx", pa_given_wx, table)
    if beta2 == 0.0:
        return eu
    kl = _kl_rows_nats(pa_given_wx, pa_given_x[None, :, :])
    return eu - kl / beta2


def _max_change(new: np.ndarray, old: np.ndarray) -> float:
    """Max-norm change, treating entries that stay at -inf as unchanged."""
    diff = np.abs(new - old)
    diff[np.isneginf(new) & np.isneginf(old)] = 0.0
    return float(diff.max())


def solve_two_stage(
    world: WorldModel,
    beta1: float,
    beta2: float,
    num_priors: int,
    grid_size: int = 100,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    rng: np.random.Generator | None = None,
    init_noise: float = 1e-3,
) -> TwoStageSolution:
    """Iterate the five two-stage equations in order from a near-uniform start.

    The p(a|w,x) rows start uniform with symmetric ``init_noise`` relative
    perturbations: a perfectly symmetric start is a repelling fixed point and
    would never specialize. The perturbation RNG defaults to a fixed seed so
    repeated solves are bit-identical.
    """
    if beta1 < 0.0 or beta2 < 0.0:
        raise ValueError("beta1 and beta2 must be >= 0")
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
    pa_given_wx *= 1.0 + init_noise * rng.uniform(-1.0, 1.0, size=pa_given_wx.shape)
    pa_given_wx /= pa_given_wx.sum(axis=2, keepdims=True)
    pwx = rho[:, None] * px_given_w / px[None, :]
    pa_given_x = np.einsum("kx,kxg->xg", pwx, pa_given_wx)
    delta_f = _delta_free_energy(table, pa_given_wx, pa_given_x, beta2)

    converged = False
    residual = np.inf
    iteration = 0
    for iteration in range(1, max_iter + 1):
        logits = np.log(px)[None, :] + beta1 * delta_f
        logits -= logits.max(axis=1, keepdims=True)
        new_px_given_w = np.exp(logits)
        new_px_given_w /= new_px_given_w.sum(axis=1, keepdims=True)

        new_px = _floor_norm(rho @ new_px_given_w)

        logits = np.log(pa_given_x)[None, :, :] + beta2 * table[:, None, :]
        logits -= logits.max(axis=2, keepdims=True)
        new_pa_given_wx = np.exp(logits)
        new_pa_given_wx /= new_pa_given_wx.sum(axis=2, keepdims=True)

        pwx = rho[:, None] * new_px_given_w / new_px[None, :]
        new_pa_given_x = _floor_norm(np.einsum("kx,kxg->xg", pwx, new_pa_given_wx))

        new_delta_f = _delta_free_energy(table, new_pa_given_wx, new_pa_given_x, beta2)

        residual = max(
            _max_change(new_px_given_w, px_given_w),
            _max_change(new_px, px),
            _max_change(new_pa_given_wx, pa_given_wx),
            _max_change(new_pa_given_x, pa_given_x),
            _max_change(new_delta_f, delta_f),
        )
        px_given_w, px = new_px_given_w, new_px
        pa_given_wx, pa_given_x = new_pa_given_wx, new_pa_given_x
        delta_f = new_delta_f
        if residual < tol:
            converged = True
            break

    return TwoStageSolution(
        num_priors=num_priors,
        px_given_w=px_given_w,
        px=px,
        pa_given_wx=pa_given_wx,
        pa_given_x=pa_given_x,
        delta_f=delta_f,
        beta1=beta1,
        beta2=beta2,
        grid=grid,
        converged=converged,
        iterations=iteration,
        residual=residual,
    )


def two_stage_residuals(world: WorldModel, sol: TwoStageSolution) -> dict[str, float]:
    """Max-norm defect of each fixed-point equation at the returned solution."""
    table = utility_table(world, sol.grid)
    rho = world.rho

    with np.errstate(divide="ignore"):
        logits = np.log(sol.px)[None, :] + sol.beta1 * sol.delta_f
    logits -= logits.max(axis=1, keepdims=True)
    rhs = np.exp(logits)
    rhs /= rhs.sum(axis=1, keepdims=True)
    res = {"px_given_w": _max_change(rhs, sol.px_given_w)}

    res["px"] = _max_change(rho @ sol.px_given_w, sol.px)

    with np.errstate(divide="ignore"):
        logits = np.log(sol.pa_given_x)[None, :, :] + sol.beta2 * table[:, None, :]
    logits -= logits.max(axis=2, keepdims=True)
    rhs = np.exp(logits)
    rhs /= rhs.sum(axis=2, keepdims=True)
    res["pa_given_wx"] = _max_change(rhs, sol.pa_given_wx)

    pwx = sol.world_posterior(rho)
    res["pa_given_x"] = _max_change(
        np.einsum("kx,kxg->xg", pwx, sol.pa_given_wx), sol.pa_given_x
    )

    res["delta_f"] = _max_change(
        _delta_free_energy(table, sol.pa_given_wx, sol.pa_given_x, sol.beta2),
        sol.delta_f,
    )
    return res


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
