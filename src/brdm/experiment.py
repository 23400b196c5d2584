"""Sweep runner, and the one module that writes and reads brdm's files.

The sweep trains one system per (kind, budget split, replicate) cell. Every
cell derives its RNG from (master seed, cell index), so results do not
depend on worker count or scheduling. Summary statistics are computed over
the final ``summary_window`` fraction of each cell's episodes. Each CSV's
columns are one row type's fields, written and read by their types: an
episode log's are an index then ``EpisodeRecord``'s, summary.csv's are
``SummaryRow``'s, frontier.csv's are ``FrontierPoint``'s, without
``converged`` when every point converged. CSV output is newline-terminated
with 12-significant-digit floats, byte-identical across repeated runs of
the same config.
"""

from __future__ import annotations

import math
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import IO, NamedTuple, Sequence, get_type_hints

import numpy as np

from .agents import (
    BudgetSplit,
    EpisodeRecord,
    empirical_expected_utility,
    empirical_mutual_information,
    train_system,
)
from .baseline import FrontierPoint, rate_distortion_curve
from .config import AGENT_KINDS, ConfigError, ExperimentConfig, system_config, task_spec
from .core import make_gaussian_task, spawn_rng

FRONTIER_CSV = "frontier.csv"
SUMMARY_CSV = "summary.csv"
CONFIG_TXT = "config.txt"


class CsvFormatError(ConfigError):
    """Unreadable or malformed input CSV, a usage error; the message names the file."""


@dataclass(frozen=True)
class CellSpec:
    """One sweep cell; ``index`` seeds the cell's independent RNG stream."""

    kind: str
    budget: BudgetSplit
    replicate: int
    index: int


class SummaryRow(NamedTuple):
    """One ``summary.csv`` row; the fields are the columns, in order."""

    agent_kind: str
    total_steps: int
    action_steps: int
    replicate: int
    mi_bits: float
    expected_utility: float
    mean_delta_u: float
    stddev_delta_u: float


def _csv_layout(types: dict[str, type]) -> tuple[str, str]:
    """Header and ``str.format`` line template: floats in 12 significant digits, bools 0 or 1."""
    specs = ({float: "{:.12g}", bool: "{:d}"}.get(t, "{}") for t in types.values())
    return ",".join(types), ",".join(specs) + "\n"


_FRONTIER_TYPES = get_type_hints(FrontierPoint)
SUMMARY_CSV_HEADER, _SUMMARY_LINE = _csv_layout(get_type_hints(SummaryRow))
EPISODE_CSV_HEADER, _EPISODE_LINE = _csv_layout({"episode": int, **get_type_hints(EpisodeRecord)})
_FLAGGED_FRONTIER_CSV = _csv_layout(_FRONTIER_TYPES)
# when every point converged; the three-column template ignores ``converged``
_FRONTIER_CSV = _csv_layout({k: t for k, t in _FRONTIER_TYPES.items() if k != "converged"})
FRONTIER_CSV_HEADER = _FRONTIER_CSV[0]
# Closed ranges of the float columns brdm writes, by column name in either
# CSV; the task's utility lies in (0, 1], so a utility gain lies in [-1, 1].
_COLUMN_RANGES = {
    "beta": (0.0, math.inf),
    "mi_bits": (0.0, math.inf),
    "expected_utility": (0.0, 1.0),
    "mean_delta_u": (-1.0, 1.0),
    "stddev_delta_u": (0.0, math.inf),
}


def build_cells(cfg: ExperimentConfig) -> list[CellSpec]:
    """Expand the sweep axes into cells.

    Multi-prior cells pair every total budget with every feasible selection
    split (or the selection_fraction rule when no splits are listed).
    Single-prior agents run their whole budget on the action chain, one cell
    per distinct total.
    """
    combos: list[tuple[str, BudgetSplit]] = []
    for total in set(cfg.total_steps):
        if "single" in cfg.agent_kinds:
            combos.append(("single", BudgetSplit(total, 0)))
        if "multi" in cfg.agent_kinds:
            if cfg.selection_steps:
                sels = {s for s in cfg.selection_steps if s <= total}
                combos += [("multi", BudgetSplit(total, s)) for s in sels]
            else:
                combos.append(("multi", BudgetSplit.fraction(total, cfg.selection_fraction)))
    combos.sort(key=lambda c: (c[0], c[1].total_steps, c[1].action_steps))
    layout = [(kind, budget, rep) for kind, budget in combos for rep in range(cfg.replicates)]
    return [CellSpec(*cell, index) for index, cell in enumerate(layout)]


def episode_log_name(cell: CellSpec) -> str:
    return (
        f"episodes_{cell.kind}_t{cell.budget.total_steps}"
        f"_a{cell.budget.action_steps}_r{cell.replicate}.csv"
    )


def run_cell(
    cfg: ExperimentConfig, cell: CellSpec, out_dir: str | Path | None = None
) -> SummaryRow:
    """Train one system and summarize its final episode window."""
    world = make_gaussian_task(task_spec(cfg))
    sys_cfg = system_config(cfg, cell.kind, cell.budget)
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
        total_steps=cell.budget.total_steps,
        action_steps=cell.budget.action_steps,
        replicate=cell.replicate,
        mi_bits=empirical_mutual_information(window, cfg.mi_bins),
        expected_utility=empirical_expected_utility(window),
        mean_delta_u=float(deltas.mean()),
        stddev_delta_u=float(deltas.std()),
    )


def run_sweep(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> list[SummaryRow]:
    """Run all cells, at most one pool worker per cell; rows come back in cell order.

    Each cell's episode log goes to ``out_dir``, whose earlier logs are removed first.
    """
    cells = build_cells(cfg)
    # a fork pool starts every worker up front, so none beyond the cell count
    workers = min(cfg.workers or os.cpu_count() or 1, len(cells))
    if out_dir is not None:
        for stale in Path(out_dir).glob("episodes_*.csv"):
            stale.unlink()
    if workers <= 1:
        return [run_cell(cfg, cell, out_dir) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_cell, repeat(cfg), cells, repeat(out_dir)))


def write_episode_csv(records: Sequence[EpisodeRecord], out: IO[str]) -> None:
    """Episode log export, one line per episode: its index, then the record."""
    line = _EPISODE_LINE.format
    out.write(EPISODE_CSV_HEADER + "\n")
    out.writelines(line(i, *r) for i, r in enumerate(records))


def write_summary_csv(rows: Sequence[SummaryRow], out: IO[str]) -> None:
    """One line per row."""
    out.write(SUMMARY_CSV_HEADER + "\n")
    out.writelines(_SUMMARY_LINE.format(*r) for r in rows)


def compute_frontier(cfg: ExperimentConfig) -> list[FrontierPoint]:
    world = make_gaussian_task(task_spec(cfg))
    return rate_distortion_curve(world, cfg.betas, cfg.grid_size, cfg.tol, cfg.max_iter)


def write_frontier_csv(points: Sequence[FrontierPoint], out: IO[str]) -> None:
    """Three columns normally; a ``converged`` column appears only when needed."""
    header, line = _FRONTIER_CSV if all(p.converged for p in points) else _FLAGGED_FRONTIER_CSV
    out.write(header + "\n")
    out.writelines(line.format(*p) for p in points)


def read_frontier_csv(path: str | Path) -> list[tuple]:
    """Tuples of (beta, mi_bits, expected_utility[, converged]), parsed by their annotations."""
    headers = FRONTIER_CSV_HEADER, _FLAGGED_FRONTIER_CSV[0]
    return _read_csv(path, _FRONTIER_TYPES.values(), tuple, *headers)


def read_summary_csv(path: str | Path) -> list[SummaryRow]:
    """``SummaryRow``s, each field parsed by its annotation, each row a possible sweep cell."""
    return _read_csv(path, get_type_hints(SummaryRow).values(), _summary_row, SUMMARY_CSV_HEADER)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _decimal_int(text: str) -> int:
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"expected an integer in decimal digits, not {text!r}")
    return int(text)


def _converged(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"converged must be 0 or 1, not {text!r}")
    return text == "1"


def _summary_row(fields: list) -> SummaryRow:
    row = SummaryRow(*fields)
    if row.agent_kind not in AGENT_KINDS:
        raise ValueError(f"agent_kind must be one of {AGENT_KINDS}, not {row.agent_kind!r}")
    if row.total_steps < 1 or row.replicate < 0 or not 0 <= row.action_steps <= row.total_steps:
        raise ValueError("need total_steps >= 1, 0 <= action_steps <= total_steps, replicate >= 0")
    return row


def _read_csv(path, types, make_row, *headers) -> list:
    """Rows that ``make_row`` builds from fields parsed by ``types``, under one of ``headers``.

    brdm writes only finite floats, each inside its column's range, integers
    as plain decimal digits and bools as 0 or 1, so any other field, or a
    row that ``make_row`` rejects, is malformed.
    """
    try:
        lines = Path(path).read_text().splitlines() or [""]
    except OSError as exc:
        raise CsvFormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    parsers = [{float: _finite_float, int: _decimal_int, bool: _converged}.get(t, t) for t in types]
    if lines[0] not in headers:
        raise CsvFormatError(f"{path}: line 1: unexpected header {lines[0]!r}")
    names = lines[0].split(",")
    width = len(names)
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise CsvFormatError(f"{path}: line {line_no}: expected {width} fields, got {len(parts)}")
        try:
            fields = [parse(v) for parse, v in zip(parsers, parts)]
            for name, value in zip(names, fields):
                if name in _COLUMN_RANGES:
                    low, high = _COLUMN_RANGES[name]
                    if not low <= value <= high:
                        raise ValueError(f"{name} must lie in [{low}, {high}], not {value}")
            rows.append(make_row(fields))
        except ValueError as exc:
            raise CsvFormatError(f"{path}: line {line_no}: {exc}") from None
    return rows
