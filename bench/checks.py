"""Checks of brdm's output files, computed apart from brdm.

Nothing here imports ``brdm``: utilities are recomputed from the closed-form
Gaussian bumps, summaries from the written episode logs, and the frontier is
judged against the certified bounds of ``reference.py``.

A check of one operation (an episode, a beta-solve) counts that operation as
failed. A check of a whole output (a summary row, the frontier dominance of
a cell, the seed-utility claim, a missing file) is a problem, which makes the
run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import bump_utility
from workloads import Workload

UTILITY_TOL = 1e-10
# Summary and frontier values are written with 12 significant digits.
SUMMARY_TOL = 1e-9
CSV_ROUNDING = 1e-11
# Criterion 7's slack for a trained agent above the exact frontier.
FRONTIER_SLACK = 0.02

EPISODE_HEADER = "episode,world,prior,seed_action,decision,utility,seed_utility,evals"
SUMMARY_HEADER = ("agent_kind,total_steps,action_steps,replicate,"
                  "mi_bits,expected_utility,mean_delta_u,stddev_delta_u")


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # one line per failed operation
    problems: list[str] = field(default_factory=list)  # whole-output faults
    # beta-solves under the certified lower bound, counted in ``failed`` but
    # listed apart: the known fault of rate_distortion_curve
    below_bound: list[str] = field(default_factory=list)

    def fail_op(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def episode_log_name(kind: str, total: int, action: int, replicate: int) -> str:
    return f"episodes_{kind}_t{total}_a{action}_r{replicate}.csv"


def _cell_name(cell) -> str:
    return "{} t{} a{} r{}".format(*cell)


def _read_table(path: Path, header: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path.name}: header {first!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def expected_evals(workload: Workload, kind: str, total: int, action: int) -> int:
    """Seed plus one per action step, plus the selection estimates when selecting."""
    cfg = workload.config
    evals = action + 1
    if kind == "multi" and cfg["num_priors"] > 1 and total - action > 0:
        evals += cfg["utility_samples"] * cfg["num_priors"]
    return evals


def plugin_mi_bits(worlds: np.ndarray, actions: np.ndarray, bins: int) -> float:
    """Plug-in I(W;A) in bits with actions histogrammed into equal slices of [0, 1]."""
    slot = np.minimum((actions * bins).astype(int), bins - 1)
    joint = np.zeros((int(worlds.max()) + 1, bins))
    np.add.at(joint, (worlds, slot), 1.0)
    joint /= joint.sum()
    outer = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    nz = joint > 0.0
    return float(np.sum(joint[nz] * np.log2(joint[nz] / outer[nz])))


def check_episodes(log: np.ndarray, workload: Workload, cell, result: CheckResult) -> None:
    """Per-episode checks of one cell's (episodes, 8) log; each failing episode counts once."""
    kind, total, action, _ = cell
    cfg = workload.config
    n = len(log)
    result.attempted += n
    index, world, prior, seed, decision, utility, seed_utility, evals = log.T
    w = world.astype(int)
    num_priors = cfg["num_priors"] if kind == "multi" else 1
    ok = (index == np.arange(n)) & (world == w) & (w >= 0) & (w < cfg["num_worlds"])
    ok &= (prior >= 0) & (prior < num_priors) & (prior == np.round(prior))
    ok &= (seed >= 0.0) & (seed <= 1.0) & (decision >= 0.0) & (decision <= 1.0)
    w = np.clip(w, 0, cfg["num_worlds"] - 1)
    u = bump_utility(w, decision, cfg["num_worlds"], cfg["width"])
    su = bump_utility(w, seed, cfg["num_worlds"], cfg["width"])
    ok &= np.abs(utility - u) <= UTILITY_TOL
    ok &= np.abs(seed_utility - su) <= UTILITY_TOL
    ok &= evals == expected_evals(workload, kind, total, action)
    for i in np.flatnonzero(~ok):
        result.fail_op(f"{_cell_name(cell)} episode {i}: {log[i].tolist()}")


def window_stats(log: np.ndarray, workload: Workload) -> dict:
    """The summary statistics of the final window, recomputed from a log."""
    cfg = workload.config
    window = log[-max(1, round(cfg["summary_window"] * len(log))):]
    delta = window[:, 5] - window[:, 6]
    return {
        "mi_bits": plugin_mi_bits(window[:, 1].astype(int), window[:, 4], cfg["mi_bins"]),
        "expected_utility": float(window[:, 5].mean()),
        "mean_delta_u": float(delta.mean()),
        "stddev_delta_u": float(delta.std()),
        "seed_utility": float(window[:, 6].mean()),
    }


def frontier_bound(reference: dict, mi_bits: float) -> float:
    """Reference frontier EU at ``mi_bits``: chord interpolation, as criterion 7 does."""
    pts = sorted((p["mi_bits"], p["expected_utility"]) for p in reference["points"])
    mi = np.array([p[0] for p in pts])
    eu = np.array([p[1] for p in pts])
    reached = eu[mi <= mi_bits]
    return max(float(np.interp(mi_bits, mi, eu)), float(reached.max()) if reached.size else 0.0)


def check_sweep(out_dir: Path, workload: Workload, reference: dict) -> CheckResult:
    result = CheckResult()
    summary_path = out_dir / "summary.csv"
    try:
        rows = _read_summary(summary_path)
    except (OSError, ValueError) as exc:
        result.problems.append(f"summary.csv unreadable: {exc}")
        rows = {}
    cells = workload.cell_runs
    if set(rows) != set(cells):
        result.problems.append(f"summary.csv cells {sorted(rows)} != {sorted(cells)}")
    seed_utility = {}
    for cell in cells:
        kind = cell[0]
        n = workload.config["episodes"]
        try:
            log = _read_table(out_dir / episode_log_name(*cell), EPISODE_HEADER)
            if log.shape != (n, 8):
                raise ValueError(f"{_cell_name(cell)}: log shape {log.shape}, want ({n}, 8)")
        except (OSError, ValueError) as exc:
            result.attempted += n
            result.failed += n
            result.problems.append(f"episode log unreadable: {exc}")
            continue
        check_episodes(log, workload, cell, result)
        stats = window_stats(log, workload)
        seed_utility.setdefault(kind, []).append(stats["seed_utility"])
        row = rows.get(cell)
        if row is not None:
            for key, value in row.items():
                if not abs(value - stats[key]) <= SUMMARY_TOL:
                    result.problems.append(
                        f"summary {_cell_name(cell)}: {key} {value!r}, "
                        f"recomputed {stats[key]!r}")
        bound = frontier_bound(reference, stats["mi_bits"])
        if not stats["expected_utility"] <= bound + FRONTIER_SLACK:
            result.problems.append(
                f"{_cell_name(cell)}: EU {stats['expected_utility']:.6f} above the "
                f"reference frontier {bound:.6f} + {FRONTIER_SLACK} at MI {stats['mi_bits']:.4f}")
    # the paper's claim that specialised priors propose better seeds
    if {"single", "multi"} <= set(seed_utility):
        multi, single = np.mean(seed_utility["multi"]), np.mean(seed_utility["single"])
        if not multi > single:
            result.problems.append(
                f"multi-prior final seed utility {multi:.4f} <= single-prior {single:.4f}")
    return result


def _read_summary(path: Path) -> dict:
    rows = {}
    with open(path) as fh:
        if fh.readline().rstrip("\n") != SUMMARY_HEADER:
            raise ValueError("bad header")
        for line in fh:
            kind, total, action, rep, *values = line.rstrip("\n").split(",")
            if len(values) != 4:
                raise ValueError(f"unexpected row {line!r}")
            keys = ("mi_bits", "expected_utility", "mean_delta_u", "stddev_delta_u")
            rows[(kind, int(total), int(action), int(rep))] = dict(zip(keys, map(float, values)))
    return rows


def check_frontier(out_dir: Path, workload: Workload, reference: dict) -> CheckResult:
    """Each beta-solve must not fall below the certified lower bound by more than tol."""
    cfg = workload.config
    betas = cfg["betas"]
    result = CheckResult(attempted=len(betas))
    try:
        with open(out_dir / "frontier.csv") as fh:
            header = fh.readline().rstrip("\n").split(",")
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        result.problems.append(f"frontier.csv unreadable: {exc}")
        result.failed = len(betas)
        return result
    points = reference["points"]
    if header[:3] != ["beta", "mi_bits", "expected_utility"] or len(table) != len(betas):
        result.problems.append(f"frontier.csv: header {header}, {len(table)} rows")
        result.failed = len(betas)
        return result
    if [p["beta"] for p in points] != list(betas):
        raise ValueError("the stored reference is for other betas; regenerate it")
    mi_max = math.log2(cfg["num_worlds"])
    for beta, row, point in zip(betas, table, points):
        b, mi, eu = map(float, row[:3])
        if not abs(b - beta) <= CSV_ROUNDING * beta:
            result.problems.append(f"frontier.csv beta {b!r}, want {beta!r}")
        if not (math.isfinite(mi) and -CSV_ROUNDING <= mi <= mi_max + CSV_ROUNDING):
            result.fail_op(f"beta {beta:.6g}: MI {mi!r} outside [0, log2 {cfg['num_worlds']}]")
            continue
        free_energy = eu - mi * math.log(2.0) / beta
        if not free_energy >= point["lower"] - cfg["tol"]:
            result.failed += 1
            result.below_bound.append(
                f"beta {beta:.6g}: free energy {free_energy:.12f} below the certified "
                f"lower bound {point['lower']:.12f} by {point['lower'] - free_energy:.3e}")
    return result


def result_utility(out_dir: Path, workload: Workload) -> float:
    """Sweeps: mean summary EU. Frontier: mean over beta of EU - MI ln2 / beta."""
    if workload.command == "run":
        return float(np.mean([r["expected_utility"]
                              for r in _read_summary(out_dir / "summary.csv").values()]))
    with open(out_dir / "frontier.csv") as fh:
        fh.readline()
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return float(np.mean(table[:, 2] - table[:, 1] * math.log(2.0) / table[:, 0]))


def check_outputs(out_dir: Path, workload: Workload, reference: dict) -> CheckResult:
    if workload.command == "run":
        return check_sweep(out_dir, workload, reference)
    return check_frontier(out_dir, workload, reference)
