"""Run ``brdm`` from two source trees on the same inputs and list the output files that differ.

Every ``brdm`` call runs in a child process whose ``PYTHONPATH`` is the
``src`` directory of one tree, so the two trees never share an import. The
inputs come from this checkout and are the same for both trees:

- the three workload configs of ``bench/workloads.py``, at each seed given;
- the sweep config of ``tests/test_log_digests.py``, at its own seed;
- ``brdm run`` and ``brdm baseline`` at their defaults, then
  ``brdm plot --no-render`` on those two outputs;
- ``brdm baseline`` capped at 50 sweeps, where no point converges and
  frontier.csv gains its ``converged`` column; capped at 7 sweeps, the end
  of the exact solvers' third block (blocks grow 1, 2, 4, ...); and at a
  2000-point grid, where the solvers check fewer sweeps per block.

Run from the repository root, with each tree a directory holding ``src/brdm``:

    python tools/compare_outputs.py OLD_TREE NEW_TREE --seeds 7 311

It prints one line per output file whose SHA-256 differs or that only one
tree wrote, then a count. Exit status 0 when every file matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the digest test imports brdm, so this checkout's src goes on the path too
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

from test_log_digests import CONFIG as DIGEST_CONFIG  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ENTRY = "import sys; from brdm.cli import main; sys.exit(main(sys.argv[1:]))"


def config_runs(seeds: list[int]) -> list[tuple[str, str, str | None]]:
    """(output directory, brdm subcommand, config text or None for the defaults) per run."""
    runs = [
        (f"{name}_seed{seed}", workload.command, workload.config_text(seed))
        for name, workload in WORKLOADS.items()
        for seed in seeds
    ]
    return runs + [
        ("digest_sweep", "run", DIGEST_CONFIG),
        ("default_run", "run", None),
        ("default_baseline", "baseline", None),
        ("capped_baseline", "baseline", "max_iter = 50\n"),
        ("third_block_baseline", "baseline", "max_iter = 7\n"),
        ("fine_grid_baseline", "baseline", "grid_size = 2000\n"),
    ]


def brdm(tree: Path, *args: str) -> None:
    """Run ``brdm args`` on the sources of ``tree``; RuntimeError with its stderr if it fails."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, *args], capture_output=True, text=True, env=env
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"brdm {' '.join(args)} on {tree} exited {proc.returncode}: {proc.stderr.strip()}"
        )


def write_outputs(tree: Path, out: Path, configs: Path, seeds: list[int]) -> None:
    """Write every output of ``tree`` under ``out``, one directory per run."""
    for label, command, config in config_runs(seeds):
        args = [command, "--out", str(out / label)]
        if config is not None:
            cfgfile = configs / f"{label}.cfg"
            cfgfile.write_text(config)
            args += ["--config", str(cfgfile)]
        brdm(tree, *args)
    brdm(
        tree, "plot", "--no-render", "--out", str(out / "default_plot"),
        "--summary", str(out / "default_run" / "summary.csv"),
        "--frontier", str(out / "default_baseline" / "frontier.csv"),
    )


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under ``out``, keyed by its path relative to ``out``."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the first source tree")
    parser.add_argument("new", type=Path, help="the second source tree")
    parser.add_argument(
        "--seeds", type=int, nargs="+", required=True, help="seeds of the workload configs"
    )
    args = parser.parse_args(argv)
    tables = []
    with tempfile.TemporaryDirectory() as tmp:
        configs = Path(tmp) / "configs"
        configs.mkdir()
        for index, tree in enumerate((args.old, args.new)):
            out = Path(tmp) / f"tree{index}"
            write_outputs(tree.resolve(), out, configs, args.seeds)
            tables.append(digests(out))
    old, new = tables
    names = sorted(old.keys() | new.keys())
    differ = [name for name in names if old.get(name) != new.get(name)]
    for name in differ:
        if name in old and name in new:
            print(f"{name}: differs")
        else:
            print(f"{name}: only in the {'old' if name in old else 'new'} tree")
    print(f"{len(names) - len(differ)} of {len(names)} output files identical")
    return 0 if not differ else 1


if __name__ == "__main__":
    sys.exit(main())
