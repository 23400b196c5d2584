"""Certified reference frontier for the Gaussian-bump task, independent of brdm.

For a marginal q over the action grid, the information-constrained objective
F(beta) = max_p E[U] - I(W;A)/beta (nats) obeys

    G(q) = (1/beta) * sum_w rho(w) * log sum_a q(a) exp(beta U(w, a))  <=  F*(beta)
    F*(beta)  <=  G(q) + (1/beta) * log max_a c(a),
    c(a) = sum_w rho(w) exp(beta U(w, a)) / Z_q(w)

(Blahut 1972; Arimoto 1972). The solver below runs Blahut-Arimoto in the log
domain with over-relaxed steps, log q <- log q + lam * log c, growing lam
while G increases and falling back to the plain step (lam = 1, which never
decreases G) when it does not. Both bounds hold for whatever q the
iteration stops at, so the stored lower bound is certified regardless of
how far the solver got; the stored gap says how tight it is.

Regenerate the stored reference with

    python3 bench/reference.py

which rewrites ``bench/reference_frontier.json``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_frontier.json"

# The task and frontier settings the exact_frontier workload passes to brdm.
NUM_WORLDS = 6
WIDTH = 0.1
GRID_SIZE = 100
BETAS = tuple(float(b) for b in np.logspace(-1.0, 4.0, 20))

MAX_ITER = 100_000
TARGET_GAP = 1e-13


def bump_means(num_worlds: int = NUM_WORLDS) -> np.ndarray:
    """One utility peak per world, equally spaced at (i + 0.5) / num_worlds."""
    return (np.arange(num_worlds) + 0.5) / num_worlds


def bump_utility(world: np.ndarray, action: np.ndarray, num_worlds: int = NUM_WORLDS,
                 width: float = WIDTH) -> np.ndarray:
    """U(w, a) = exp(-(a - m_w)^2 / (2 width^2)), elementwise."""
    diff = np.asarray(action, dtype=float) - bump_means(num_worlds)[np.asarray(world)]
    return np.exp(-(diff * diff) / (2.0 * width * width))


def utility_table(num_worlds: int = NUM_WORLDS, width: float = WIDTH,
                  grid_size: int = GRID_SIZE) -> np.ndarray:
    """U on the (world, grid point) lattice; grid point j sits at (j + 0.5) / G."""
    grid = (np.arange(grid_size) + 0.5) / grid_size
    worlds = np.arange(num_worlds)[:, None]
    return bump_utility(worlds, grid[None, :], num_worlds, width)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _bounds(log_q: np.ndarray, beta: float, bu: np.ndarray, log_rho: np.ndarray):
    """(G(q), Blahut upper bound, log c) for one marginal."""
    log_z = _logsumexp(log_q[None, :] + bu, axis=1)
    lower = float(np.exp(log_rho) @ log_z) / beta
    log_c = _logsumexp(log_rho[:, None] + bu - log_z[:, None], axis=0)
    return lower, lower + float(log_c.max()) / beta, log_c


def solve(beta: float, table: np.ndarray, max_iter: int = MAX_ITER,
          target_gap: float = TARGET_GAP) -> dict:
    """Certified bounds and the induced policy's (MI bits, EU) at one beta > 0."""
    num_worlds, grid_size = table.shape
    log_rho = np.full(num_worlds, -math.log(num_worlds))
    bu = beta * table
    log_q = np.full(grid_size, -math.log(grid_size))
    lower, upper, log_c = _bounds(log_q, beta, bu, log_rho)
    best = (upper - lower, log_q, lower, upper)
    lam = 1.0
    iterations = 0
    while iterations < max_iter and best[0] > target_gap:
        iterations += 1
        trial = log_q + lam * log_c
        trial -= _logsumexp(trial, axis=0)
        t_lower, t_upper, t_log_c = _bounds(trial, beta, bu, log_rho)
        if t_lower >= lower or lam == 1.0:
            log_q, lower, upper, log_c = trial, t_lower, t_upper, t_log_c
            lam *= 2.0
            if upper - lower < best[0]:
                best = (upper - lower, log_q, lower, upper)
        else:
            lam = max(1.0, lam / 10.0)
    _, log_q, lower, upper = best

    # Policy induced by q: p(a|w) = q(a) exp(beta U) / Z(w); MI against its
    # own marginal, computed in the log domain so no ratio underflows.
    logits = log_q[None, :] + bu
    log_p = logits - _logsumexp(logits, axis=1)[:, None]
    p = np.exp(log_p)
    log_marg = _logsumexp(log_rho[:, None] + log_p, axis=0)
    rho = np.exp(log_rho)
    mi_nats = float(np.sum(rho[:, None] * p * (log_p - log_marg[None, :])))
    eu = float(rho @ (p * table).sum(axis=1))
    return {
        "beta": beta,
        "lower": lower,
        "upper": upper,
        "gap": upper - lower,
        "mi_bits": max(mi_nats, 0.0) / math.log(2.0),
        "expected_utility": eu,
        "iterations": iterations,
    }


def compute_reference() -> dict:
    table = utility_table()
    return {
        "task": {"num_worlds": NUM_WORLDS, "width": WIDTH, "grid_size": GRID_SIZE},
        "points": [solve(beta, table) for beta in BETAS],
    }


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def main() -> int:
    ref = compute_reference()
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    for p in ref["points"]:
        print(f"beta={p['beta']:<12.6g} lower={p['lower']:.12f} gap={p['gap']:.2e} "
              f"it={p['iterations']}")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
