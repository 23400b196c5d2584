"""Sweep runner: trains one system per (kind, budget, split, replicate) cell.

Every cell derives its RNG from (master seed, cell index), so results do not
depend on worker count or scheduling. Summary statistics are computed over
the final ``summary_window`` fraction of each cell's episodes. CSV output is
newline-terminated with 12-significant-digit floats, byte-identical across
repeated runs of the same config.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import IO, NamedTuple, Sequence

import numpy as np

from .agents import (
    BudgetSplit,
    EpisodeRecord,
    empirical_expected_utility,
    empirical_mutual_information,
    train_system,
    write_episode_csv,
)
from .baseline import FrontierPoint, rate_distortion_curve
from .config import ExperimentConfig, system_config, task_spec
from .core import make_gaussian_task, spawn_rng

SUMMARY_CSV_HEADER = (
    "agent_kind,total_steps,action_steps,replicate,"
    "mi_bits,expected_utility,mean_delta_u,stddev_delta_u"
)
FRONTIER_CSV_HEADER = "beta,mi_bits,expected_utility"


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@dataclass(frozen=True)
class CellSpec:
    """One sweep cell; ``index`` seeds the cell's independent RNG stream."""

    kind: str
    total_steps: int
    action_steps: int
    replicate: int
    index: int


class SummaryRow(NamedTuple):
    agent_kind: str
    total_steps: int
    action_steps: int
    replicate: int
    mi_bits: float
    expected_utility: float
    mean_delta_u: float
    stddev_delta_u: float


def build_cells(cfg: ExperimentConfig) -> list[CellSpec]:
    """Expand the sweep axes into cells.

    Multi-prior cells pair every total budget with every feasible selection
    split (or the selection_fraction rule when no splits are listed).
    Single-prior agents run their whole budget on the action chain, one cell
    per distinct total.
    """
    combos: list[tuple[str, int, int]] = []
    if "single" in cfg.agent_kinds:
        for total in sorted(set(cfg.total_steps)):
            combos.append(("single", total, total))
    if "multi" in cfg.agent_kinds:
        for total in sorted(set(cfg.total_steps)):
            if cfg.selection_steps:
                sels = sorted({s for s in cfg.selection_steps if s <= total})
            else:
                sels = [BudgetSplit.fraction(total, cfg.selection_fraction).selection_steps]
            for sel in sels:
                combos.append(("multi", total, total - sel))
    combos.sort()
    cells = []
    index = 0
    for kind, total, action in combos:
        for rep in range(cfg.replicates):
            cells.append(CellSpec(kind, total, action, rep, index))
            index += 1
    return cells


def episode_log_name(cell: CellSpec) -> str:
    return (
        f"episodes_{cell.kind}_t{cell.total_steps}"
        f"_a{cell.action_steps}_r{cell.replicate}.csv"
    )


def run_cell(
    cfg: ExperimentConfig, cell: CellSpec, out_dir: str | Path | None = None
) -> SummaryRow:
    """Train one system and summarize its final episode window."""
    world = make_gaussian_task(task_spec(cfg))
    budget = BudgetSplit(cell.total_steps, cell.total_steps - cell.action_steps)
    sys_cfg = system_config(cfg, cell.kind, budget)
    rng = spawn_rng(cfg.seed, cell.index)
    # Diverging VAE weights overflow to inf and NaN; the summary's
    # non-finite check reports that once, in place of numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        _, records = train_system(world, sys_cfg, cfg.episodes, rng)
    if out_dir is not None:
        with open(Path(out_dir) / episode_log_name(cell), "w", newline="\n") as fh:
            write_episode_csv(records, fh)
    return summarize_records(cfg, cell, records)


def summarize_records(
    cfg: ExperimentConfig, cell: CellSpec, records: Sequence[EpisodeRecord]
) -> SummaryRow:
    window = records[-max(1, round(cfg.summary_window * len(records))):]
    deltas = np.array([r.delta_u for r in window])
    return SummaryRow(
        agent_kind=cell.kind,
        total_steps=cell.total_steps,
        action_steps=cell.action_steps,
        replicate=cell.replicate,
        mi_bits=empirical_mutual_information(window, cfg.mi_bins),
        expected_utility=empirical_expected_utility(window),
        mean_delta_u=float(deltas.mean()),
        stddev_delta_u=float(deltas.std()),
    )


def _run_cell_task(args: tuple[ExperimentConfig, CellSpec, str | None]) -> SummaryRow:
    return run_cell(*args)


def run_sweep(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> list[SummaryRow]:
    """Run all cells, at most one pool worker per cell; rows come back in cell order."""
    cells = build_cells(cfg)
    # a fork pool starts every worker up front, so none beyond the cell count
    workers = min(cfg.workers or os.cpu_count() or 1, len(cells))
    out = str(out_dir) if out_dir is not None else None
    if workers <= 1:
        return [run_cell(cfg, cell, out) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_cell_task, [(cfg, cell, out) for cell in cells]))


def write_summary_csv(rows: Sequence[SummaryRow], out: IO[str]) -> None:
    out.write(SUMMARY_CSV_HEADER + "\n")
    for r in rows:
        out.write(
            f"{r.agent_kind},{r.total_steps},{r.action_steps},{r.replicate},"
            f"{_fmt(r.mi_bits)},{_fmt(r.expected_utility)},"
            f"{_fmt(r.mean_delta_u)},{_fmt(r.stddev_delta_u)}\n"
        )


def compute_frontier(cfg: ExperimentConfig) -> list[FrontierPoint]:
    world = make_gaussian_task(task_spec(cfg))
    return rate_distortion_curve(
        world, list(cfg.betas), grid_size=cfg.grid_size, tol=cfg.tol, max_iter=cfg.max_iter
    )


def write_frontier_csv(points: Sequence[FrontierPoint], out: IO[str]) -> None:
    """Three columns normally; a ``converged`` column appears only when needed."""
    flag_column = any(not p.converged for p in points)
    header = FRONTIER_CSV_HEADER + (",converged" if flag_column else "")
    out.write(header + "\n")
    for p in points:
        row = f"{_fmt(p.beta)},{_fmt(p.mutual_info_bits)},{_fmt(p.expected_utility)}"
        if flag_column:
            row += f",{int(p.converged)}"
        out.write(row + "\n")
