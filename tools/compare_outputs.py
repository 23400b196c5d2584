"""Run ``brdm`` from two source trees on the same inputs and list the output files that differ.

Every ``brdm`` call runs in a child process whose ``PYTHONPATH`` is the
``src`` directory of one tree, so the two trees never share an import. The
inputs come from this checkout and are the same for both trees:

- the three workload configs of ``bench/workloads.py``, at each seed given;
- every run of ``PINNED`` in ``tests/test_log_digests.py``, the runs whose
  files that test pins by digest;
- ``brdm run`` at its defaults, then ``brdm plot --no-render`` on its
  summary and the frontier of the pinned default ``baseline`` run.

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

from test_log_digests import PINNED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ENTRY = "import sys; from brdm.cli import main; sys.exit(main(sys.argv[1:]))"
PINNED_RUNS = [(label, command, config) for label, (command, config, _) in PINNED.items()]


def config_runs(seeds: list[int]) -> list[tuple[str, str, str | None]]:
    """(output directory, brdm subcommand, config text or None for the defaults) per run."""
    runs = [
        (f"{name}_seed{seed}", workload.command, workload.config_text(seed))
        for name, workload in WORKLOADS.items()
        for seed in seeds
    ]
    return runs + PINNED_RUNS + [("default_run", "run", None)]


def brdm(tree: Path, *args: str, env: dict[str, str] | None = None) -> None:
    """Run ``brdm args`` on the sources of ``tree`` in a child process.

    ``env`` adds to this process's environment, for the child only. If the
    child fails, the RuntimeError's last line is the last line of its stderr,
    or ``exit N`` when it wrote none.
    """
    env = {**os.environ, **(env or {}), "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, *args], capture_output=True, text=True, env=env
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"brdm {' '.join(args)} on {tree} exited {proc.returncode}:\n"
            f"{proc.stderr.strip() or f'exit {proc.returncode}'}"
        )


def write_outputs(
    tree: Path, out: Path, runs: list[tuple[str, str, str | None]], env: dict | None = None
) -> None:
    """Run ``brdm`` on the sources of ``tree`` once per run, each into ``out / label``.

    ``runs`` holds (label, subcommand, config text or None) as ``config_runs``
    gives them; each config is written next to ``out``, as ``label.cfg``.
    """
    for label, command, config in runs:
        args = [command, "--out", str(out / label)]
        if config is not None:
            cfgfile = out.parent / f"{label}.cfg"
            cfgfile.write_text(config)
            args += ["--config", str(cfgfile)]
        brdm(tree, *args, env=env)


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
        for index, tree in enumerate((args.old, args.new)):
            tree, out = tree.resolve(), Path(tmp) / f"tree{index}"
            write_outputs(tree, out, config_runs(args.seeds))
            brdm(
                tree, "plot", "--no-render", "--out", str(out / "default_plot"),
                "--summary", str(out / "default_run" / "summary.csv"),
                "--frontier", str(out / "baseline_defaults" / "frontier.csv"),
            )
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
