"""Tests of the benchmark itself: each output check catches a planted fault,
and tracing leaves brdm's output files byte-identical.

Run with ``python3 -m pytest bench/test_bench.py`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
for path in (str(BENCH), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

import brdm.agents  # noqa: E402
import brdm.cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from reference import load_reference, solve, utility_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL_EPISODES = 300


def _small(name: str):
    """The workload with fewer episodes, so that a test runs in seconds."""
    w = WORKLOADS[name]
    if w.command == "baseline":
        return w
    return dataclasses.replace(w, config={**w.config, "episodes": SMALL_EPISODES})


def _run_brdm(workload, out: Path, seed: int = 3) -> Path:
    out.mkdir(parents=True)
    config = out.parent / f"{out.name}.cfg"
    config.write_text(workload.config_text(seed))
    argv = [workload.command, "--config", str(config), "--out", str(out), "--workers", "1"]
    assert brdm.cli.main(argv) == 0
    return out


@pytest.fixture(scope="module")
def reference():
    return load_reference()


@pytest.fixture(scope="module")
def sweep_out(tmp_path_factory):
    return _run_brdm(_small("paper_sweep"), tmp_path_factory.mktemp("sweep") / "out")


@pytest.fixture(scope="module")
def frontier_out(tmp_path_factory):
    return _run_brdm(WORKLOADS["exact_frontier"], tmp_path_factory.mktemp("frontier") / "out")


def _copy(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def _edit_line(path: Path, line_no: int, column: int, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[line_no].rstrip("\n").split(",")
    fields[column] = edit(fields[column])
    lines[line_no] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


def test_real_sweep_outputs_pass(sweep_out, reference):
    result = checks.check_outputs(sweep_out, _small("paper_sweep"), reference)
    assert result.problems == [] and result.failed == 0
    assert result.attempted == 2 * SMALL_EPISODES


def test_changed_episode_utility_fails_one_episode(sweep_out, reference, tmp_path):
    out = _copy(sweep_out, tmp_path)
    log = out / checks.episode_log_name("multi", 100, 75, 0)
    _edit_line(log, 17, 5, lambda u: repr(float(u) + 1e-9))
    result = checks.check_outputs(out, _small("paper_sweep"), reference)
    assert result.failed == 1
    assert "episode 16" in result.failures[0]


def test_edited_summary_row_is_a_problem(sweep_out, reference, tmp_path):
    out = _copy(sweep_out, tmp_path)
    _edit_line(out / "summary.csv", 1, 7, lambda s: repr(float(s) * 1.001))
    result = checks.check_outputs(out, _small("paper_sweep"), reference)
    assert result.failed == 0
    assert any("stddev_delta_u" in p for p in result.problems)


def test_frontier_fails_exactly_the_points_below_the_certified_bound(frontier_out, reference):
    result = checks.check_outputs(frontier_out, WORKLOADS["exact_frontier"], reference)
    assert result.problems == []
    assert (result.attempted, result.failed) == (20, 18)


def test_frontier_point_lowered_by_ten_tol_fails(frontier_out, reference, tmp_path):
    out = _copy(frontier_out, tmp_path)
    workload = WORKLOADS["exact_frontier"]
    before = checks.check_outputs(out, workload, reference).failed
    # the last row is one of the two points at the certified optimum
    _edit_line(out / "frontier.csv", 20, 2, lambda eu: repr(float(eu) - 10 * 1e-10))
    result = checks.check_outputs(out, workload, reference)
    assert result.failed == before + 1
    assert "beta 10000" in result.below_bound[-1]


def test_frontier_mi_out_of_range_fails_apart_from_the_known_fault(
        frontier_out, reference, tmp_path):
    out = _copy(frontier_out, tmp_path)
    _edit_line(out / "frontier.csv", 20, 1, lambda mi: "inf")
    result = checks.check_outputs(out, WORKLOADS["exact_frontier"], reference)
    assert result.failed == 19 and len(result.below_bound) == 18
    assert len(result.failures) == 1 and "MI inf" in result.failures[0]


def test_reference_bounds_bracket_and_match_the_stored_file(reference):
    table = utility_table()
    for stored in reference["points"][::4]:
        fresh = solve(stored["beta"], table, max_iter=2000)
        assert fresh["lower"] <= stored["upper"] + 1e-12
        assert stored["lower"] <= fresh["upper"] + 1e-12
        assert 0.0 <= stored["gap"] < 1e-7


def test_traced_run_writes_identical_files(tmp_path):
    workload = _small("short_budget_multi")
    plain = _run_brdm(workload, tmp_path / "plain")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = _run_brdm(workload, tmp_path / "traced")
    names = sorted(p.name for p in plain.glob("*.csv"))
    assert names == sorted(p.name for p in traced.glob("*.csv")) and len(names) == 7
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name

    layers = tracing.layer_metrics(tracer, workload.ops_per_command)
    assert layers["vae.train_steps"] == 6 * SMALL_EPISODES
    # seed + action steps + 3 priors x 3 samples, for the cells t8 a4 and t12 a8
    assert layers["core.utility_calls_per_op"] == ((1 + 4 + 9) + (1 + 8 + 9)) / 2
    assert 0.0 < layers["mcmc.acceptance_rate"] < 1.0
    assert 0.0 < layers["agents.episode_self_us"] < layers["agents.episode_us"]
    # wrappers are removed again
    assert brdm.agents.run_action_chain.__module__ == "brdm.mcmc"


def test_speed_probe_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = run.SpeedProbe()
    with probe.sampling(0.01):
        _, seconds = probe.timed(lambda: [i * i for i in range(1_000_000)])
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.times) >= 2 and 0.0 < seconds
    mean = sum(probe.times) / len(probe.times)
    assert probe.scale() == pytest.approx(run.PROBE_REFERENCE_S / mean)


def test_probe_time_is_taken_out_of_the_spans_that_hold_it():
    tracer = tracing.Tracer()

    def chain():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.02:
            pass
        tracer.note_probe(t0, time.perf_counter())

    episode = tracer.wrap("agents.episode", tracer.wrap("mcmc.action_chain", chain))
    episode()
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    (t0, t1, innermost), = tracer.probes
    assert innermost == 1  # the chain span, inside the episode span
    layers = tracing.layer_metrics(tracer, ops=1, scale=2.0)
    assert layers["mcmc.action_chain_us"] == pytest.approx(2e6 * (dur[1] - (t1 - t0)))
    assert layers["agents.episode_us"] == pytest.approx(2e6 * (dur[0] - (t1 - t0)))
    assert layers["agents.episode_self_us"] == pytest.approx(2e6 * (dur[0] - dur[1]))


def _setup_seconds(checkout: Path) -> float:
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--setup-only",
         "--workload", "exact_frontier", "--seed", "1"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def test_cold_setup_sees_a_slow_new_dependency(tmp_path):
    """A module that brdm newly imports, outside brdm, lengthens the set-up."""
    checkouts = {}
    for name in ("plain", "planted"):
        checkout = tmp_path / name
        shutil.copytree(BENCH, checkout / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copytree(SRC / "brdm", checkout / "src" / "brdm",
                        ignore=shutil.ignore_patterns("__pycache__"))
        checkouts[name] = checkout
    planted = checkouts["planted"] / "src"
    (planted / "slowdep.py").write_text(
        "import time\n"
        "_t = time.perf_counter()\n"
        "while time.perf_counter() - _t < 0.3:\n"
        "    pass\n")
    init = planted / "brdm" / "__init__.py"
    init.write_text("import slowdep  # noqa: F401\n" + init.read_text())

    seconds = {name: [] for name in checkouts}
    for _ in range(2):
        for name, checkout in checkouts.items():
            seconds[name].append(_setup_seconds(checkout))
    plain, slow = (statistics.median(seconds[n]) for n in ("plain", "planted"))
    assert 0.0 < plain and slow - plain > 0.2, seconds


# Pure-Python work added to every action chain call: about as long as the
# chain itself at budget 100.
BUSY_ROUNDS = 5000


def test_scaled_time_moves_with_a_planted_slowdown_as_raw_time_does(monkeypatch, tmp_path):
    """The probe's speed does not depend on what brdm runs between probes."""
    workload = _small("paper_sweep")
    plain_chain = brdm.agents.run_action_chain

    def slow_chain(*args, **kwargs):
        s = 0.0
        for i in range(BUSY_ROUNDS):
            s += math.exp(-i * 1e-6)
        return plain_chain(*args, **kwargs)

    config = tmp_path / "w.cfg"
    config.write_text(workload.config_text(3))
    times = {"plain": [], "slow": []}
    for i in range(5):
        for kind, chain in (("plain", plain_chain), ("slow", slow_chain)):
            monkeypatch.setattr(brdm.agents, "run_action_chain", chain)
            argv = ["run", "--config", str(config), "--out", str(tmp_path / f"{kind}{i}"),
                    "--workers", "1"]
            probe = run.SpeedProbe()
            with probe.sampling():
                code, seconds = probe.timed(brdm.cli.main, argv)
            assert code == 0
            times[kind].append((seconds, seconds * probe.scale()))
    med = {kind: [statistics.median(t[j] for t in times[kind]) for j in (0, 1)]
           for kind in times}
    raw_ratio = med["slow"][0] / med["plain"][0]
    scaled_ratio = med["slow"][1] / med["plain"][1]
    assert raw_ratio > 1.3, times
    assert scaled_ratio == pytest.approx(raw_ratio, rel=0.3), times
