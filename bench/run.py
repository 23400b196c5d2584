"""Run one benchmark workload of brdm in this process and print its metrics.

    python3 bench/run.py --workload paper_sweep --seed 1 --seconds 40 --trace 0

Each timed repeat calls ``brdm.cli.main`` (the ``brdm`` command) with
``--workers 1`` on a fresh temporary directory under ``bench/out/``, checks
the files it wrote against ``checks.py``, and deletes them. Repeats run
until the next one would end after ``--seconds``; a timing is the median
over the repeats, scaled by the CPU speed that a probe measures while each
repeat runs. Before each repeat, fresh ``run.py --setup-only`` processes time
the set-up from their start. With ``--trace 1`` untraced and traced repeats
alternate, and the per-layer figures of the traced ones are printed instead
of the end-to-end metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

# Set-up is timed from here, before any other import (numpy's included).
STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import ExitStack, contextmanager, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from reference import load_reference  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Cold set-ups, each in a fresh process, before each repeat, so that they
# sample the whole run; setup_s is their median.
SETUPS_PER_REPEAT = 3
SETUP_TIMEOUT_S = 60

# On a shared host the CPU's speed can drift: on a 2-core Xeon VM it varied
# by up to 2x within a second and by tens of percent over minutes, and CPU
# time drifted with wall time. So every timed stretch is sampled by a fixed
# micro-probe, run from a timer signal every PROBE_INTERVAL_S of wall time
# (SETUP_PROBE_INTERVAL_S during the short set-ups); its time is taken out
# of the stretch, and the rest is scaled by PROBE_REFERENCE_S / (mean probe
# time in the stretch): seconds of a CPU on which one probe takes
# PROBE_REFERENCE_S, a round figure near that VM's fastest mean probe time.
PROBE_INTERVAL_S = 0.05
SETUP_PROBE_INTERVAL_S = 0.01
PROBE_ROUNDS = 500
PROBE_REFERENCE_S = 0.001

KNOWN_FAULT = (
    "known fault: rate_distortion_curve stops on a max-norm change, and the warm "
    "start leaves mass at _MARGINAL_FLOOR, so solves stop short of the optimum"
)


class SpeedProbe:
    """CPU speed sampled during timed stretches by a micro-probe on SIGALRM.

    With a tracer, every probe is noted there too, so that the per-layer
    figures can take probe time out of the spans it fell into.
    """

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.times: list[float] = []
        self.spent = 0.0  # wall time inside the probe, to take out of a stretch
        self._busy = False
        self._tracer = tracer

    def sample(self, _signum=None, _frame=None) -> None:
        if self._busy:  # a signal that arrives during a probe is dropped
            return
        self._busy = True
        t = time.perf_counter()
        x = np.zeros(16)
        s = 0.0
        for i in range(PROBE_ROUNDS):
            x = np.maximum(x * 0.5 + 0.1, 0.0)
            s += math.exp(-i * 1e-6)
        elapsed = time.perf_counter() - t
        self.times.append(elapsed)
        self.spent += elapsed
        if self._tracer is not None:
            self._tracer.note_probe(t, t + elapsed)
        self._busy = False

    @contextmanager
    def sampling(self, interval: float = PROBE_INTERVAL_S):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args):
        """(result, seconds of ``fn`` with the probe's own time taken out)."""
        spent = self.spent
        t = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - t - (self.spent - spent)

    def scale(self) -> float:
        """Factor from this probe's stretches to reference-CPU seconds."""
        if not self.times:
            self.sample()
        return PROBE_REFERENCE_S / statistics.fmean(self.times)


class Setup:
    """The import of brdm plus the workload's config file and reference."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path):
        self.cli = importlib.import_module("brdm.cli")
        if not Path(self.cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"brdm imported from {self.cli.__file__}, not {SRC}")
        self.config_path = run_dir / f"{workload.name}-seed{seed}.cfg"
        self.config_path.write_text(workload.config_text(seed))
        self.reference = load_reference()


class Repeat:
    """One call of the brdm command, its time, and the check of its outputs.

    ``seconds`` is the command's wall time without the probe's; ``scale``
    turns that into reference-CPU seconds, ``scaled``.
    """

    def __init__(self, setup: Setup, workload: Workload, tracer: tracing.Tracer | None = None):
        out = Path(tempfile.mkdtemp(prefix="out-", dir=setup.config_path.parent))
        argv = [workload.command, "--config", str(setup.config_path), "--out", str(out),
                "--workers", "1"]
        main = setup.cli.main
        probe = SpeedProbe(tracer)
        try:
            with ExitStack() as stack:
                stack.enter_context(redirect_stdout(io.StringIO()))
                if tracer is not None:
                    stack.enter_context(tracing.installed(tracer))
                    main = tracer.wrap("command", main)
                stack.enter_context(probe.sampling())
                code, self.seconds = probe.timed(main, argv)
            self.scale = probe.scale()
            self.scaled = self.seconds * self.scale
            if code != 0:
                raise RuntimeError(f"brdm {' '.join(argv)} exited with {code}")
            self.check = checks.check_outputs(out, workload, setup.reference)
            try:
                self.utility = checks.result_utility(out, workload)
            except (OSError, ValueError) as exc:
                self.check.problems.append(f"result utility unreadable: {exc}")
                self.utility = 0.0
            digest = hashlib.sha256()
            for path in sorted(out.glob("*.csv")):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            self.digest = digest.hexdigest()
        finally:
            shutil.rmtree(out, ignore_errors=True)


def cold_setup_seconds(workload: Workload, seed: int) -> float:
    """Set-up time of a fresh ``run.py --setup-only`` process, as it reports it.

    It runs from the start of ``run.py`` (before numpy is imported) to the
    point where a timed command would start, so every import that brdm or the
    benchmark makes is in it, a new dependency's too.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up exited with {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def cold_setups(workload: Workload, seed: int) -> list[float]:
    """Scaled times of SETUPS_PER_REPEAT cold set-ups.

    This process probes the CPU's speed while it waits for each child.
    """
    probe = SpeedProbe()
    with probe.sampling(SETUP_PROBE_INTERVAL_S):
        raw = [cold_setup_seconds(workload, seed) for _ in range(SETUPS_PER_REPEAT)]
    scale = probe.scale()
    return [r * scale for r in raw]


def setup_only(workload: Workload, seed: int) -> float:
    """Set up as a run does and return the seconds since this process started."""
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"setup-{workload.name}-", dir=OUT))
    try:
        Setup(workload, seed, run_dir)
        return time.perf_counter() - STARTED
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _traced(setup: Setup, workload: Workload, trace_path: Path) -> tuple[Repeat, dict]:
    """A traced repeat and its per-layer figures; its spans go to ``trace_path``."""
    tracer = tracing.Tracer()
    rep = Repeat(setup, workload, tracer)
    tracer.write(trace_path)
    return rep, tracing.layer_metrics(tracer, workload.ops_per_command, rep.scale)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        return _run(workload, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(workload: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    setup_seconds: list[float] = []
    repeats: list[Repeat] = []
    traced: list[tuple[Repeat, dict]] = []
    trace_path = OUT / f"trace-{workload.name}.npz"
    setup = Setup(workload, seed, run_dir)
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        setup_seconds += cold_setups(workload, seed)
        if trace and len(repeats) % 2:  # alternate which of the pair runs first
            traced.append(_traced(setup, workload, trace_path))
            repeats.append(Repeat(setup, workload))
        else:
            repeats.append(Repeat(setup, workload))
            if trace:
                traced.append(_traced(setup, workload, trace_path))
        if time.perf_counter() - start + (time.perf_counter() - t) > seconds:
            break

    every = repeats + [rep for rep, _ in traced]
    problems = [p for rep in every for p in rep.check.problems]
    if len({rep.digest for rep in every}) != 1:
        problems.append("repeats of the same seed wrote different files")
    first = every[0].check
    for line in first.failures[:5] + first.below_bound[:2] + problems[:5]:
        print(f"{workload.name}: {line}")
    if first.below_bound:
        print(f"{workload.name}: {len(first.below_bound)} of {first.attempted} beta-solves "
              f"per frontier fall below the certified lower bound ({KNOWN_FAULT})")
    wall = statistics.median(rep.scaled for rep in repeats)
    print(f"{workload.name}: {len(repeats)} repeats, median wall time "
          f"{statistics.median(r.seconds for r in repeats):.4f} s unscaled, "
          f"{wall:.4f} s scaled")

    if trace:
        metrics = {name: statistics.median(m[name] for _, m in traced)
                   for name in traced[0][1]}
        metrics["trace.overhead_ratio"] = statistics.median(r.scaled for r, _ in traced) / wall
        metrics = {name: _metric(metrics[name], unit)
                   for name, unit in tracing.LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_seconds), "s"),
            "wall_s": _metric(wall, "s"),
            "ops_per_s": _metric(workload.ops_per_command / wall, "1/s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "result_utility": _metric(every[0].utility, "utility"),
        }
    return {
        "correct": not problems,
        "attempted": sum(rep.check.attempted for rep in every),
        "failed": sum(rep.check.failed for rep in every),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the seconds since this process started, and exit")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required")
    if not (SRC / "brdm" / "cli.py").is_file():
        print(f"error: brdm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(repr(setup_only(WORKLOADS[args.workload], args.seed)))
        return 0
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
