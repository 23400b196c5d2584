"""Command-line front end.

Subcommands: ``baseline`` (efficiency frontier CSV), ``run`` (experiment
sweep with episode logs and summary CSV), ``plot`` (plot script, data
bundle, and rendered figures from the two CSVs). Exit codes: 0 success,
1 usage or config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_config, serialize_config
from .experiment import (
    CONFIG_TXT,
    FRONTIER_CSV,
    SUMMARY_CSV,
    compute_frontier,
    read_frontier_csv,
    read_summary_csv,
    run_sweep,
    write_frontier_csv,
    write_summary_csv,
)
from .plotting import (
    PLOT_DATA_NAME,
    PLOT_SCRIPT_NAME,
    figure_names,
    generate_plot_script,
    render_plot_script,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage problems; this artifact reserves
    # 2 for runtime errors and reports usage problems as 1.
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="brdm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in (
        ("baseline", "solve the exact efficiency frontier and export frontier.csv"),
        ("run", "train the agent sweep and export episode logs plus summary.csv"),
        ("plot", "emit the plot script and data bundle, and render the figures"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument(
            "--out", metavar="DIR", default="results", help="output directory (default: results)"
        )
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        if name == "plot":
            p.add_argument("--summary", metavar="PATH", help="summary CSV (default OUT/summary.csv)")
            p.add_argument("--frontier", metavar="PATH", help="frontier CSV (default OUT/frontier.csv)")
            p.add_argument("--no-render", action="store_true", help="skip PNG rendering")
        else:
            p.add_argument("--config", metavar="PATH", help="key = value config file")
            p.add_argument("--seed", type=int, metavar="INT", help="override the config seed")
            p.add_argument("--workers", type=int, metavar="INT", help="worker pool size (0 = auto)")
    return parser


def _load(args: argparse.Namespace) -> ExperimentConfig:
    overrides = {"seed": args.seed, "workers": args.workers}
    return load_config(args.config, **{k: v for k, v in overrides.items() if v is not None})


def _out_path(path: str | Path) -> Path:
    """``--out`` as a path; a usage error if it, or the nearest existing path above it, is a file."""
    out = Path(path)
    for existing in (p for p in (out, *out.parents) if os.path.lexists(p)):
        if not existing.is_dir():
            raise ConfigError(f"--out {out} is not a directory ({existing} is a file)")
        break
    return out


def _prepare_out_dir(path: str | Path, force: bool) -> Path:
    out = _out_path(path)
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()) and not force:
        raise ConfigError(f"output directory {out} is not empty (use --force to overwrite)")
    return out


def cmd_baseline(cfg: ExperimentConfig, out_dir: str | Path, force: bool = False) -> Path:
    """Write frontier.csv (plus the config used) into ``out_dir``."""
    out = _prepare_out_dir(out_dir, force)
    points = compute_frontier(cfg)
    with open(out / FRONTIER_CSV, "w", newline="\n") as fh:
        write_frontier_csv(points, fh)
    (out / CONFIG_TXT).write_text(serialize_config(cfg))
    return out / FRONTIER_CSV


def cmd_run(cfg: ExperimentConfig, out_dir: str | Path, force: bool = False) -> Path:
    """Train every sweep cell; write per-cell episode logs and summary.csv."""
    out = _prepare_out_dir(out_dir, force)
    rows = run_sweep(cfg, out_dir=out)
    with open(out / SUMMARY_CSV, "w", newline="\n") as fh:
        write_summary_csv(rows, fh)
    (out / CONFIG_TXT).write_text(serialize_config(cfg))
    return out / SUMMARY_CSV


def cmd_plot(
    out_dir: str,
    summary_path: str | None = None,
    frontier_path: str | None = None,
    force: bool = False,
    render: bool = True,
) -> Path:
    """Generate the plot script and data bundle; render PNGs unless disabled.

    ``out_dir`` is created only once both input CSVs have been read. The
    script and bundle are written first, so a render that fails for want
    of matplotlib (RuntimeError) still leaves them in place.
    """
    out = _out_path(out_dir)
    frontier_rows = read_frontier_csv(frontier_path or out / FRONTIER_CSV)
    summary_rows = read_summary_csv(summary_path or out / SUMMARY_CSV)
    script_path = out / PLOT_SCRIPT_NAME
    if script_path.exists() and not force:
        raise ConfigError(f"{script_path} exists (use --force to overwrite)")

    out.mkdir(parents=True, exist_ok=True)
    script_path.write_text(generate_plot_script(frontier_rows, summary_rows))
    bundle = {
        "frontier": [list(r) for r in frontier_rows],
        "summary": [list(r) for r in summary_rows],
        "figures": figure_names(summary_rows),
    }
    (out / PLOT_DATA_NAME).write_text(
        json.dumps(bundle, indent=2, sort_keys=True) + "\n"
    )
    if render:
        render_plot_script(script_path)
    return script_path


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "plot":
            cmd_plot(
                out_dir=args.out,
                summary_path=args.summary,
                frontier_path=args.frontier,
                force=args.force,
                render=not args.no_render,
            )
        else:
            cfg = _load(args)
            if args.command == "baseline":
                path = cmd_baseline(cfg, args.out, force=args.force)
            else:
                path = cmd_run(cfg, args.out, force=args.force)
            print(path)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
