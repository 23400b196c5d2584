"""Exact discrete solvers for the information-constrained decision problems.

Both solvers iterate self-consistent fixed-point equations on a discretized
action grid, in the one driver ``_iterate``, until the max-norm change of the
state drops below ``tol``. A solver's arrays are views into one flat state.
Sweeps run in blocks of 1, 2, 4, ... up to an element budget: each writes
the next state into the next slot of one buffer, allocated once per solve.
The solver binds each slot's views once per solve, and one Python call runs
a whole block of sweeps into them. One vectorised check per block then finds
the first sweep whose change fell below ``tol``; a block in which one probe
entry's change stays at or above ``tol`` cannot hold that sweep, and skips
the check. Each equation is stated once, in the helper named on its right;
``_gibbs`` is the one Boltzmann normalisation:

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

# State elements per block of sweeps: blocks double from one sweep up to 64,
# fewer when the state is large, and stay a single sweep once one state
# exceeds the budget.
_BLOCK_ELEMENTS = 2**16

# Default solver settings: action grid size, max-norm stopping tolerance, sweep cap.
GRID_SIZE = 100
TOL = 1e-10
MAX_ITER = 10_000


def _floor_norm(p: np.ndarray) -> np.ndarray:
    """Floor ``p`` at _MARGINAL_FLOOR and normalise its last axis, in place."""
    np.maximum(p, _MARGINAL_FLOOR, out=p)
    # a 1-D p divides by a scalar sum: the same bits, at less cost per sweep
    p /= np.add.reduce(p, axis=-1, keepdims=p.ndim > 1)
    return p


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


def check_settings(betas, tol: float, max_iter: int) -> None:
    """The solvers' setting rules: each beta finite and >= 0, tol in (0, inf), max_iter >= 1."""
    if not all(0.0 <= b < np.inf for b in betas):
        raise ValueError("betas must be finite and >= 0")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")


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
    """exp(logits) normalised along the last axis, in place."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _iterate(bind, state: np.ndarray, tol: float, max_iter: int):
    """Run sweeps until the max-norm change of the state is below tol.

    ``bind(slots)`` is called once per solve with the slots of one buffer and
    returns ``sweeps(count)``, which runs ``count`` sweeps in one call: sweep
    k fills slot k + 1 from slot k, through views the solver binds once. The
    blocks grow 1, 2, 4, ... up to the element budget, so a solve that stops
    at sweep n has run at most 2n - 1. One subtract, abs and max then give
    all of a block's changes. These are exact, so the first change below tol
    picks the same sweep and state as a check after every sweep would. A NaN
    change never passes. A sweep's change at one entry, the probe, bounds its
    max-norm change from below, so a block in which the probe's change never
    falls below tol skips that check, unless it is the last block. After each
    check the probe moves to the entry that changed most in the last sweep.

    Returns a copy of the final state, then ``converged``, the number of
    updates and the last change, in the order of the solution types' trailing
    fields.
    """
    cap = max(1, min(64, _BLOCK_ELEMENTS // state.size))
    buffer = np.empty((cap + 1, *state.shape))
    flat = buffer.reshape(cap + 1, -1)
    changes = np.empty((cap, state.size))
    sweeps = bind(list(buffer))
    buffer[0] = state
    done, block, probe = 0, 1, 0
    while done < max_iter:
        count = min(block, max_iter - done)
        sweeps(count)
        column = flat[: count + 1, probe]
        if done + count == max_iter or (np.abs(column[1:] - column[:-1]) < tol).any():
            change = np.subtract(flat[1 : count + 1], flat[:count], out=changes[:count])
            residuals = np.maximum.reduce(np.abs(change, out=change), axis=1)
            below = np.flatnonzero(residuals < tol)
            if below.size:
                k = int(below[0])
                return buffer[k + 1].copy(), True, done + k + 1, float(residuals[k])
            probe = int(change[-1].argmax())
        done += count
        buffer[0] = buffer[count]
        block = min(2 * block, cap)
    return buffer[0].copy(), False, done, float(residuals[-1])


def solve_single_stage(
    world: WorldModel,
    beta: float,
    grid_size: int = GRID_SIZE,
    tol: float = TOL,
    max_iter: int = MAX_ITER,
    init_marginal: np.ndarray | None = None,
) -> DiscretePolicy:
    """Iterate the single-stage fixed point from a uniform (or given) start.

    Non-convergence is not an error: the returned policy carries
    ``converged`` and the final residual, and the caller decides severity.
    """
    check_settings([beta], tol, max_iter)
    grid = action_grid(grid_size)
    start = np.ones(grid_size) if init_marginal is None else np.array(init_marginal, dtype=float)
    if start.shape != (grid_size,):
        raise ValueError(f"init_marginal must have shape ({grid_size},), got {start.shape}")
    if not ((start >= 0.0).all() and 0.0 < start.sum() < np.inf):
        raise ValueError("init_marginal must be finite and >= 0, with a positive sum")
    rho = world.rho
    nw = world.num_worlds

    kernel = _gibbs(beta * utility_table(world, grid))
    # rows 0..W-1 hold p(a|w), row W holds p(a): one array, one residual
    state = np.empty((nw + 1, grid_size))
    state[:] = _floor_norm(start)
    row_sums = np.empty((nw, 1))

    def bind(slots):
        # (p(a), next p(a|w), next p(a)) of each sweep, and the ufuncs, looked up once
        marginals = [slot[nw] for slot in slots]
        steps = list(zip(marginals, [slot[:nw] for slot in slots[1:]], marginals[1:]))
        multiply, divide, add_reduce, dot = np.multiply, np.divide, np.add.reduce, np.dot

        def sweeps(count):
            for marginal, cond, new_marginal in steps[:count]:
                multiply(marginal, kernel, cond)
                divide(cond, add_reduce(cond, axis=1, keepdims=True, out=row_sums), cond)
                _floor_norm(dot(rho, cond, new_marginal))

        return sweeps

    state, *status = _iterate(bind, state, tol, max_iter)
    return DiscretePolicy(grid, state[:nw], state[nw], *status)


def _stage1_policy(
    px: np.ndarray, delta_f: np.ndarray, beta1: float, out: np.ndarray | None = None
) -> np.ndarray:
    """p(x|w) = p(x) exp(beta1 dF(w,x)) / Z(w)."""
    return _gibbs(np.add(np.log(px), beta1 * delta_f, out=out))


def _stage2_policy(
    pa_given_x: np.ndarray, table: np.ndarray, beta2: float, out: np.ndarray | None = None
) -> np.ndarray:
    """p(a|w,x) = p(a|x) exp(beta2 U(w,a)) / Z(w,x)."""
    return _gibbs(np.add(np.log(pa_given_x), (beta2 * table)[:, None, :], out=out))


def _world_posterior(rho: np.ndarray, px_given_w: np.ndarray, px: np.ndarray) -> np.ndarray:
    """p(w|x) = rho(w) p(x|w) / p(x)."""
    return rho[:, None] * px_given_w / px[None, :]


def _stage2_marginal(
    rho: np.ndarray,
    px_given_w: np.ndarray,
    px: np.ndarray,
    pa_given_wx: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """p(a|x) = sum_w p(w|x) p(a|w,x), unfloored."""
    return np.einsum("kx,kxg->xg", _world_posterior(rho, px_given_w, px), pa_given_wx, out=out)


def _delta_free_energy(
    table: np.ndarray,
    pa_given_wx: np.ndarray,
    pa_given_x: np.ndarray,
    beta2: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """dF(w,x) in nats; at beta2 = 0 the KL term vanishes with the constraint."""
    eu = np.einsum("kxg,kg->kx", pa_given_wx, table, out=out)
    if beta2 == 0.0:
        return eu
    eu -= _kl_rows_nats(pa_given_wx, pa_given_x[None, :, :]) / beta2
    return eu


def solve_two_stage(
    world: WorldModel,
    beta1: float,
    beta2: float,
    num_priors: int,
    grid_size: int = GRID_SIZE,
    tol: float = TOL,
    max_iter: int = MAX_ITER,
    rng: np.random.Generator | None = None,
) -> TwoStageSolution:
    """Iterate the five two-stage equations in order from a near-uniform start.

    The p(a|w,x) rows start uniform with symmetric ``_INIT_NOISE`` relative
    perturbations: a perfectly symmetric start is a repelling fixed point and
    would never specialize. The perturbation RNG defaults to a fixed seed so
    repeated solves are bit-identical.
    """
    check_settings([beta1, beta2], tol, max_iter)
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

    # the five arrays are views into one flat state, in TwoStageSolution's field order
    shapes = ((nw, nx), (nx,), (nw, nx, ng), (nx, ng), (nw, nx))
    bounds = np.cumsum([0, *(np.prod(shape) for shape in shapes)]).tolist()

    def unpack(flat):
        return [flat[a:b].reshape(shape) for a, b, shape in zip(bounds, bounds[1:], shapes)]

    state = np.empty(bounds[-1])
    px_given_w, px, pa_given_wx, pa_given_x, delta_f = unpack(state)
    px_given_w[...] = px[...] = 1.0 / nx
    pa_given_wx[...] = 1.0 / ng
    pa_given_wx *= 1.0 + _INIT_NOISE * rng.uniform(-1.0, 1.0, size=pa_given_wx.shape)
    pa_given_wx /= pa_given_wx.sum(axis=2, keepdims=True)
    _stage2_marginal(rho, px_given_w, px, pa_given_wx, pa_given_x)
    _delta_free_energy(table, pa_given_wx, pa_given_x, beta2, delta_f)

    def bind(slots):
        views = [unpack(slot) for slot in slots]

        def sweeps(count):
            for old, new in zip(views[:count], views[1:]):
                _, px, _, pa_given_x, delta_f = old
                px_given_w, new_px, pa_given_wx, new_pa_given_x, new_delta_f = new
                _stage1_policy(px, delta_f, beta1, px_given_w)
                _floor_norm(np.dot(rho, px_given_w, new_px))
                _stage2_policy(pa_given_x, table, beta2, pa_given_wx)
                _floor_norm(_stage2_marginal(rho, px_given_w, new_px, pa_given_wx, new_pa_given_x))
                _delta_free_energy(table, pa_given_wx, new_pa_given_x, beta2, new_delta_f)

        return sweeps

    state, *status = _iterate(bind, state, tol, max_iter)
    return TwoStageSolution(*unpack(state), beta1, beta2, grid, *status)


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
    grid_size: int = GRID_SIZE,
    tol: float = TOL,
    max_iter: int = MAX_ITER,
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
