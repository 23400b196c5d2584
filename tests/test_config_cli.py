import inspect
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import brdm.experiment
from brdm.agents import BudgetSplit, SystemConfig
from brdm.baseline import rate_distortion_curve, solve_single_stage, solve_two_stage
from brdm.cli import cmd_baseline, cmd_plot, cmd_run, main
from brdm.config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    serialize_config,
    system_config,
    task_spec,
    validate_config,
)
from brdm.core import GaussianTaskSpec
from brdm.mcmc import ChainConfig, SelectionConfig
from brdm.vae import VaeArch
from brdm.experiment import (
    FRONTIER_CSV_HEADER,
    SUMMARY_CSV_HEADER,
    CsvFormatError,
    SummaryRow,
    build_cells,
    read_frontier_csv,
    read_summary_csv,
    run_sweep,
    write_frontier_csv,
    write_summary_csv,
)
from brdm.baseline import FrontierPoint
from brdm.plotting import generate_plot_script


def small_config(**kw):
    cfg = ExperimentConfig(
        total_steps=(12,),
        selection_steps=(4,),
        episodes=30,
        replicates=1,
        betas=(0.0, 1.0, 10.0),
        workers=1,
    )
    for k, v in kw.items():
        setattr(cfg, k, v)
    validate_config(cfg)
    return cfg


def test_empty_config_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing but a comment\n\n")
    cfg = load_config(path)
    assert cfg.num_worlds == 6
    assert cfg.num_priors == 3
    assert cfg.total_steps == (100,)
    assert cfg.seed == 0
    assert cfg.width == 0.1
    assert len(cfg.betas) == 20


def test_config_parses_values_and_comments(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "episodes = 250   # short run\n"
        "total_steps = 25, 50, 100\n"
        "agent_kinds = multi\n"
        "width = 0.08\n"
        "betas = 1, 0.5, 10\n"
    )
    cfg = load_config(path)
    assert cfg.episodes == 250
    assert cfg.total_steps == (25, 50, 100)
    assert cfg.agent_kinds == ("multi",)
    assert cfg.width == 0.08
    assert cfg.betas == (0.5, 1.0, 10.0)  # sorted ascending


def test_config_unknown_key_reports_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("episodes = 10\nnot_a_key = 3\n")
    with pytest.raises(ConfigError, match="line 2.*not_a_key"):
        load_config(path)


def test_config_bad_value_reports_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("episodes = soon\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(path)


def test_config_split_exceeding_budget_names_keys(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("total_steps = 100\nselection_steps = 120\n")
    with pytest.raises(ConfigError, match="selection_steps.*total_steps"):
        load_config(path)


def test_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "episodes = 123\nbetas = 0.3, 2.5\nwidth = 0.0625\nagent_kinds = single\n"
    )
    cfg = load_config(path)
    path2 = tmp_path / "round.cfg"
    path2.write_text(serialize_config(cfg))
    assert load_config(path2) == cfg


def test_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/path.cfg")


def test_build_cells_layout():
    cfg = small_config(agent_kinds=("single", "multi"), total_steps=(12, 20), replicates=2)
    cells = build_cells(cfg)
    kinds = {(c.kind, c.budget.total_steps, c.budget.action_steps) for c in cells}
    # single runs its whole budget on the action chain
    assert ("single", 12, 12) in kinds and ("single", 20, 20) in kinds
    # multi pairs each total with the feasible splits
    assert ("multi", 12, 8) in kinds and ("multi", 20, 16) in kinds
    assert [c.index for c in cells] == list(range(len(cells)))
    assert sum(1 for c in cells if c.replicate == 1) == len(cells) // 2


def test_build_cells_fraction_rule():
    cfg = small_config(selection_steps=(), selection_fraction=0.25, total_steps=(100,))
    cells = build_cells(cfg)
    multi = [c for c in cells if c.kind == "multi"]
    assert all(c.budget.action_steps == 75 for c in multi)


def test_run_sweep_rows_and_worker_independence(tmp_path):
    cfg = small_config()
    rows1 = run_sweep(replace(cfg, workers=1))
    rows2 = run_sweep(replace(cfg, workers=2))
    assert rows1 == rows2
    assert {r.agent_kind for r in rows1} == {"single", "multi"}


def test_run_sweep_pool_never_exceeds_the_cells(monkeypatch):
    pool_sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(brdm.experiment, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cfg = small_config()
    cells = len(build_cells(cfg))
    assert cells == 2
    serial = run_sweep(cfg)
    assert run_sweep(replace(cfg, workers=10_000)) == serial
    assert run_sweep(replace(cfg, workers=0)) == serial
    assert pool_sizes == [cells, cells]


def test_summary_csv_format(tmp_path):
    cfg = small_config(agent_kinds=("single",))
    rows = run_sweep(cfg)
    out = tmp_path / "summary.csv"
    with open(out, "w", newline="\n") as fh:
        write_summary_csv(rows, fh)
    text = out.read_text()
    assert text.startswith(SUMMARY_CSV_HEADER + "\n")
    assert text.endswith("\n")
    parsed = read_summary_csv(out)
    assert len(parsed) == len(rows)
    assert parsed[0][0] == "single"
    # every field comes back with its declared type, floats as their .12g text
    for row, back in zip(rows, parsed):
        for name, kind in get_type_hints(SummaryRow).items():
            value = getattr(row, name)
            assert type(getattr(back, name)) is kind
            assert getattr(back, name) == (float(format(value, ".12g")) if kind is float else value)


def test_frontier_csv_flags_only_when_needed(tmp_path):
    good = [FrontierPoint(1.0, 0.5, 0.6), FrontierPoint(2.0, 0.8, 0.7)]
    out = tmp_path / "frontier.csv"
    with open(out, "w", newline="\n") as fh:
        write_frontier_csv(good, fh)
    assert out.read_text().splitlines()[0] == FRONTIER_CSV_HEADER

    flagged = [FrontierPoint(1.0, 0.5, 0.6), FrontierPoint(2.0, 0.8, 0.7, converged=False)]
    with open(out, "w", newline="\n") as fh:
        write_frontier_csv(flagged, fh)
    lines = out.read_text().splitlines()
    assert lines[0] == FRONTIER_CSV_HEADER + ",converged"
    assert lines[2].endswith(",0")
    rows = read_frontier_csv(out)
    assert rows[1][3] is False


def test_cmd_baseline_deterministic(tmp_path):
    p1 = cmd_baseline(small_config(), tmp_path / "a")
    p2 = cmd_baseline(small_config(), tmp_path / "b")
    assert p1.read_bytes() == p2.read_bytes()
    rows = read_frontier_csv(p1)
    assert [r[0] for r in rows] == [0.0, 1.0, 10.0]
    assert rows[0][1] == pytest.approx(0.0, abs=1e-9)


def test_cmd_run_writes_logs_and_summary(tmp_path):
    summary = cmd_run(small_config(), tmp_path / "run")
    assert summary.exists()
    logs = sorted(p.name for p in summary.parent.glob("episodes_*.csv"))
    assert logs == [
        "episodes_multi_t12_a8_r0.csv",
        "episodes_single_t12_a12_r0.csv",
    ]
    rows = read_summary_csv(summary)
    assert len(rows) == 2
    # per-episode evaluation counts are constant within a cell and follow
    # the accounting rule: action_steps + 1, plus samples x priors when the
    # selection stage runs
    multi_lines = (summary.parent / logs[0]).read_text().splitlines()[1:]
    evals = {int(line.split(",")[-1]) for line in multi_lines}
    assert evals == {8 + 1 + 3 * 3}
    single_lines = (summary.parent / logs[1]).read_text().splitlines()[1:]
    assert {int(line.split(",")[-1]) for line in single_lines} == {13}


def test_cmd_run_refuses_nonempty_dir(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    with pytest.raises(ConfigError, match="force"):
        cmd_run(small_config(), out)
    cmd_run(small_config(), out, force=True)


def test_run_force_removes_stale_episode_logs(tmp_path):
    def config(totals):
        path = tmp_path / f"t{totals}.cfg"
        path.write_text(
            f"episodes = 20\ntotal_steps = {totals}\nselection_steps = 3\n"
            "replicates = 1\nagent_kinds = single\nworkers = 1\n"
        )
        return str(path)

    out = tmp_path / "run"
    assert main(["run", "--config", config("10, 12"), "--out", str(out)]) == 0
    assert len(list(out.glob("episodes_*.csv"))) == 2
    (out / "notes.txt").write_text("kept")
    assert main(["run", "--config", config("12"), "--out", str(out), "--force"]) == 0
    assert sorted(p.name for p in out.glob("episodes_*.csv")) == [
        "episodes_single_t12_a12_r0.csv"
    ]
    assert (out / "notes.txt").read_text() == "kept"
    assert len(read_summary_csv(out / "summary.csv")) == 1


def _run_and_baseline(out):
    cmd_run(small_config(), out)
    cmd_baseline(small_config(), out, force=True)


def test_cmd_plot_outputs(tmp_path):
    out = tmp_path / "run"
    _run_and_baseline(out)
    script = cmd_plot(str(out), render=False)
    assert script.exists()
    assert (out / "plot_data.json").exists()
    bundle = json.loads((out / "plot_data.json").read_text())
    assert len(bundle["summary"]) == 2
    assert bundle["figures"] == ["efficiency_frontier.png", "delta_u_vs_budget.png"]

    # regeneration is byte-identical
    text1 = script.read_text()
    script2 = cmd_plot(str(out), force=True, render=False)
    assert script2.read_text() == text1

    # every summary row appears exactly once in the script
    rows = read_summary_csv(out / "summary.csv")
    for row in rows:
        assert text1.count(f"{tuple(row)!r}") == 1


def test_cmd_plot_renders_figures(tmp_path):
    pytest.importorskip("matplotlib")
    out = tmp_path / "run"
    _run_and_baseline(out)
    cmd_plot(str(out), render=True)
    for name in ("efficiency_frontier.png", "delta_u_vs_budget.png"):
        assert (out / name).exists()
        assert (out / name).stat().st_size > 0


def test_plot_without_matplotlib_is_runtime_error(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    out = tmp_path / "run"
    _run_and_baseline(out)
    with pytest.raises(RuntimeError, match="matplotlib") as info:
        cmd_plot(str(out), render=True)
    # the message names the written script to run, not a rerun that would fail
    assert str(out / "plot_figures.py") in str(info.value)
    assert "--no-render" not in str(info.value)
    assert (out / "plot_figures.py").exists()
    assert (out / "plot_data.json").exists()
    assert not (out / "efficiency_frontier.png").exists()

    assert main(["plot", "--out", str(out), "--force"]) == 2
    assert main(["plot", "--out", str(out), "--force", "--no-render"]) == 0


def test_plot_rejects_the_flags_it_does_not_read(tmp_path, capsys):
    out = tmp_path / "run"
    _run_and_baseline(out)
    for flag in (["--config", str(tmp_path / "none.cfg")], ["--seed", "1"], ["--workers", "1"]):
        assert main(["plot", "--out", str(out), "--no-render", *flag]) == 1
        assert capsys.readouterr().err.startswith("usage error: unrecognized arguments")
        assert not (out / "plot_figures.py").exists()
    assert main(["plot", "--out", str(out), "--no-render"]) == 0


def test_plot_script_frontier_only_for_empty_summary(tmp_path):
    script = generate_plot_script([(1.0, 0.2, 0.5)], [])
    assert "plot_frontier" in script
    assert "plot_delta_u" not in script
    script2 = generate_plot_script([(1.0, 0.2, 0.5)], [])
    assert script == script2


def test_read_csv_reports_line_numbers(tmp_path):
    bad = tmp_path / "frontier.csv"
    bad.write_text("beta,mi_bits,expected_utility\n1.0,0.5\n")
    with pytest.raises(CsvFormatError, match="line 2"):
        read_frontier_csv(bad)
    bad.write_text("wrong,header\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        read_frontier_csv(bad)
    bad.write_text("beta,mi_bits,expected_utility,extra\n1.0,0.5,0.6,1\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        read_frontier_csv(bad)
    summary = tmp_path / "summary.csv"
    short_header = SUMMARY_CSV_HEADER.rsplit(",", 1)[0]
    summary.write_text(f"{short_header}\nsingle,12,12,0,0.5,0.6,0.1\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        read_summary_csv(summary)
    # brdm never writes a non-finite float, and a plot script cannot embed one
    rows = ["single,12,12,0,0.5,0.6,0.1,0.2", "single,12,12,1,nan,0.6,0.1,0.2"]
    summary.write_text("\n".join([SUMMARY_CSV_HEADER, *rows]) + "\n")
    with pytest.raises(CsvFormatError, match=re.escape(f"{summary}: line 3: non-finite")):
        read_summary_csv(summary)
    bad.write_text("beta,mi_bits,expected_utility\n1.0,0.5,-inf\n")
    with pytest.raises(CsvFormatError, match=re.escape(f"{bad}: line 2: non-finite")):
        read_frontier_csv(bad)


@pytest.mark.parametrize("flag", ["7", "-3", "2"])
def test_read_frontier_csv_accepts_only_0_or_1_as_converged(tmp_path, flag):
    frontier = tmp_path / "frontier.csv"
    rows = ["1.0,0.5,0.6,1", "2.0,0.8,0.7,0", f"3.0,0.9,0.8,{flag}"]
    frontier.write_text("\n".join([FRONTIER_CSV_HEADER + ",converged", *rows]) + "\n")
    with pytest.raises(CsvFormatError, match=re.escape(f"{frontier}: line 4: converged must be")):
        read_frontier_csv(frontier)


COUNTS_RULE = "need total_steps >= 1, 0 <= action_steps <= total_steps, replicate >= 0"


# each cell breaks one rule, named by its id; the other fields are in range
@pytest.mark.parametrize("cell, message", [
    pytest.param("bogus,12,12,0", "agent_kind must be one of", id="agent_kind"),
    pytest.param("single,-12,-12,0", COUNTS_RULE, id="total_steps_negative"),
    pytest.param("single,0,0,0", COUNTS_RULE, id="total_steps_zero"),
    pytest.param("multi,12,99,0", COUNTS_RULE, id="action_steps_above_total"),
    pytest.param("multi,12,-1,0", COUNTS_RULE, id="action_steps_negative"),
    pytest.param("single,12,12,-1", COUNTS_RULE, id="replicate_negative"),
])
def test_read_summary_csv_rejects_a_row_no_sweep_writes(tmp_path, cell, message):
    summary = tmp_path / "summary.csv"
    rows = ["single,12,12,0,0.5,0.6,0.1,0.2", f"{cell},0.5,0.6,0.1,0.2"]
    summary.write_text("\n".join([SUMMARY_CSV_HEADER, *rows]) + "\n")
    with pytest.raises(CsvFormatError, match=re.escape(f"{summary}: line 3: {message}")):
        read_summary_csv(summary)


GOOD_FRONTIER_ROW = "1.0,0.5,0.6"
GOOD_SUMMARY_ROW = "multi,12,8,0,0.5,0.6,0.1,0.2"


def _with_field(row, index, text):
    fields = row.split(",")
    fields[index] = text
    return ",".join(fields)


# each case puts one bad field into an otherwise good row; brdm writes none of them
@pytest.mark.parametrize("csv_name, row, message", [
    pytest.param("frontier", _with_field(GOOD_FRONTIER_ROW, 0, "-5"), "beta must lie in",
                 id="frontier_beta_negative"),
    pytest.param("frontier", _with_field(GOOD_FRONTIER_ROW, 1, "-2.5"), "mi_bits must lie in",
                 id="frontier_mi_bits_negative"),
    pytest.param("frontier", _with_field(GOOD_FRONTIER_ROW, 2, "7.5"),
                 "expected_utility must lie in [0.0, 1.0]", id="frontier_expected_utility_above_1"),
    pytest.param("frontier", _with_field(GOOD_FRONTIER_ROW, 2, "-0.1"),
                 "expected_utility must lie in [0.0, 1.0]", id="frontier_expected_utility_negative"),
    pytest.param("summary", _with_field(GOOD_SUMMARY_ROW, 1, "1_2"),
                 "expected an integer in decimal digits, not '1_2'", id="total_steps_underscore"),
    pytest.param("summary", _with_field(GOOD_SUMMARY_ROW, 2, "+8"),
                 "expected an integer in decimal digits, not '+8'", id="action_steps_plus_sign"),
    pytest.param("summary", _with_field(GOOD_SUMMARY_ROW, 3, " 0"),
                 "expected an integer in decimal digits, not ' 0'", id="replicate_space"),
    pytest.param("summary", _with_field(GOOD_SUMMARY_ROW, 4, "-1"), "mi_bits must lie in",
                 id="summary_mi_bits_negative"),
    pytest.param("summary", _with_field(GOOD_SUMMARY_ROW, 5, "9"),
                 "expected_utility must lie in [0.0, 1.0]", id="summary_expected_utility_above_1"),
    pytest.param("summary", _with_field(GOOD_SUMMARY_ROW, 6, "1.5"),
                 "mean_delta_u must lie in [-1.0, 1.0]", id="mean_delta_u_above_1"),
    pytest.param("summary", _with_field(GOOD_SUMMARY_ROW, 6, "-1.5"),
                 "mean_delta_u must lie in [-1.0, 1.0]", id="mean_delta_u_below_minus_1"),
    pytest.param("summary", _with_field(GOOD_SUMMARY_ROW, 7, "-0.2"), "stddev_delta_u must lie in",
                 id="stddev_delta_u_negative"),
])
def test_plot_exits_1_naming_file_and_line_on_a_field_out_of_range(
    tmp_path, capsys, csv_name, row, message
):
    frontier, summary = tmp_path / "frontier.csv", tmp_path / "summary.csv"
    frontier.write_text(f"{FRONTIER_CSV_HEADER}\n{GOOD_FRONTIER_ROW}\n")
    summary.write_text(f"{SUMMARY_CSV_HEADER}\n{GOOD_SUMMARY_ROW}\n")
    assert main(["plot", "--out", str(tmp_path), "--no-render"]) == 0
    bad = tmp_path / f"{csv_name}.csv"
    bad.write_text(bad.read_text() + row + "\n")
    assert main(["plot", "--out", str(tmp_path), "--no-render", "--force"]) == 1
    assert f"{bad}: line 3: {message}" in capsys.readouterr().err


def test_plot_exits_1_on_an_out_of_range_csv_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    _run_and_baseline(out)
    frontier, summary = out / "frontier.csv", out / "summary.csv"
    good_frontier, good_summary = frontier.read_text(), summary.read_text()
    frontier.write_text(FRONTIER_CSV_HEADER + ",converged\n1.0,0.5,0.6,7\n")
    assert main(["plot", "--out", str(out), "--no-render"]) == 1
    assert f"{frontier}: line 2: converged must be 0 or 1" in capsys.readouterr().err
    frontier.write_text(good_frontier)
    summary.write_text(good_summary.replace("multi,12,8,", "multi,12,99,", 1))
    assert main(["plot", "--out", str(out), "--no-render"]) == 1
    assert f"{summary}: line " in capsys.readouterr().err
    assert not (out / "plot_figures.py").exists()
    summary.write_text(good_summary)
    assert main(["plot", "--out", str(out), "--no-render"]) == 0


def test_main_exit_codes(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        "episodes = 20\ntotal_steps = 10\nselection_steps = 3\n"
        "replicates = 1\nbetas = 0, 1\nagent_kinds = single\nworkers = 1\n"
    )
    out = tmp_path / "out"
    assert main(["baseline", "--config", str(cfgfile), "--out", str(out)]) == 0
    # non-empty dir without --force is a usage error
    assert main(["baseline", "--config", str(cfgfile), "--out", str(out)]) == 1
    assert main(["baseline", "--config", str(cfgfile), "--out", str(out), "--force"]) == 0
    # unknown flag and bad config are usage errors
    assert main(["baseline", "--bogus"]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope = 1\n")
    assert main(["run", "--config", str(bad)]) == 1
    # plot without inputs, or with a directory or non-UTF-8 bytes as an input CSV,
    # is a usage error
    assert main(["plot", "--out", str(tmp_path / "missing")]) == 1
    assert main(["plot", "--out", str(out), "--summary", str(tmp_path), "--no-render"]) == 1
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"\xff\xfe\x00\x81")
    assert main(["plot", "--out", str(out), "--summary", str(binary), "--no-render"]) == 1


def test_plot_reads_its_inputs_before_creating_out(tmp_path, capsys):
    new = tmp_path / "new"
    assert main(["plot", "--out", str(new), "--no-render"]) == 1
    assert "cannot read" in capsys.readouterr().err
    assert not new.exists()


@pytest.mark.parametrize("command", ["baseline", "run", "plot"])
def test_out_naming_a_file_exits_1_and_keeps_the_file(tmp_path, capsys, command):
    blocked = tmp_path / "blocked"
    blocked.write_text("file, not dir")
    for out in (blocked, blocked / "sub"):
        assert main([command, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: --out")
        assert blocked.read_text() == "file, not dir"


# values that a domain type rejects, and the output directory, which is only --out
REJECTED_VALUES = [
    "means = 0.9, 0.1, 0.3, 0.5, 0.7, 0.8",
    "proposal_sigma = 0",
    "gamma0 = -1",
    "alpha = -1",
    "gamma_sel0 = -1",
    "alpha_sel = -1",
    "utility_samples = 0",
    "hidden_dim = 0",
    "latent_dim = 0",
    "decoder_variance = 0",
    "buffer_size = 0",
    "batch_size = 0",
    "num_worlds = 0",
    "grid_size = 1",
    "hidden_activation = tanh",
    "step_size = -1",
    "step_size = nan",
    "betas = nan",
    "betas = 1, inf",
    "gamma0 = nan",
    "alpha = inf",
    "alpha_sel = nan",
    "width = inf",
    "means = nan, 0.3, 0.5, 0.7, 0.8, 0.9",
    "tol = 0",
    "tol = -1",
    "tol = nan",
    "tol = inf",
    "max_iter = 0",
    "max_iter = -1",
    "betas = 0.5, nan",
    "betas = -0.1, 1",
    "seed = -1",
    "out = elsewhere",
    "width = 1e-200",
    "total_steps = 0",
    "total_steps =",
    "selection_steps = -1",
    "selection_fraction = 1",
    "selection_fraction = -0.5",
    "episodes = 0",
    "replicates = 0",
    "agent_kinds = bogus",
    "agent_kinds =",
    "betas =",
    "summary_window = 0",
    "summary_window = 1.5",
    "mi_bins = 0",
    "workers = -1",
    "seed = 1\nseed = 2",
]


@pytest.mark.parametrize("line", REJECTED_VALUES)
def test_rejected_value_exits_1_before_out_is_touched(tmp_path, line):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(line + "\n")
    for command in ("run", "baseline"):
        out = tmp_path / command
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 1
        assert not out.exists()
    # --force must not clear an earlier sweep's logs for a config that fails
    earlier = tmp_path / "earlier"
    earlier.mkdir()
    log = earlier / "episodes_multi_t100_a75_r0.csv"
    log.write_text("kept\n")
    assert main(["run", "--config", str(cfgfile), "--out", str(earlier), "--force"]) == 1
    assert log.read_text() == "kept\n"


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_exits_1_before_out_is_touched(tmp_path, capsys, kind):
    cfgfile = tmp_path / "exp.cfg"
    if kind == "directory":
        cfgfile.mkdir()
    else:
        cfgfile.write_bytes(b"seed = 1  # \xff\xfe\n")
    for command in ("run", "baseline"):
        out = tmp_path / command
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file") and err.count("\n") == 1
        assert not out.exists()


# a step size this large drives the VAE weights, and so the decisions, to NaN
DIVERGING_CONFIG = (
    "agent_kinds = multi\ntotal_steps = 20\nselection_steps = 5\n"
    "episodes = 300\nreplicates = 1\nstep_size = 1000\nworkers = 1\n"
)


def test_diverged_decisions_exit_2_without_traceback(tmp_path, capsys):
    cfgfile = tmp_path / "diverge.cfg"
    cfgfile.write_text(DIVERGING_CONFIG)
    assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("runtime error: non-finite decisions")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_diverged_run_prints_one_stderr_line(tmp_path):
    # numpy's overflow and invalid-value warnings must not precede the error
    cfgfile = tmp_path / "diverge.cfg"
    cfgfile.write_text(DIVERGING_CONFIG)
    src = Path(__file__).resolve().parents[1] / "src"
    entry = "import sys; from brdm.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", entry, "run", "--config", str(cfgfile), "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("runtime error: non-finite decisions")


def test_main_run_and_plot_end_to_end(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        "episodes = 20\ntotal_steps = 10\nselection_steps = 3\n"
        "replicates = 1\nbetas = 0, 1\nworkers = 1\n"
    )
    out = tmp_path / "exp"
    assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0
    assert main(["baseline", "--config", str(cfgfile), "--out", str(out), "--force"]) == 0
    assert main(["plot", "--out", str(out), "--no-render"]) == 0
    assert (out / "plot_figures.py").exists()


def test_the_pinned_sweep_and_frontiers_read_back(tmp_path):
    # the readers accept every summary and frontier the byte-pinned configs write
    from test_log_digests import CONFIG, FRONTIER_DIGESTS

    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(CONFIG)
    assert main(["run", "--config", str(cfgfile), "--out", str(tmp_path / "run")]) == 0
    assert len(read_summary_csv(tmp_path / "run" / "summary.csv")) == 12
    for index, config in enumerate(FRONTIER_DIGESTS):
        cfgfile.write_text(config)
        out = tmp_path / f"baseline{index}"
        assert main(["baseline", "--config", str(cfgfile), "--out", str(out)]) == 0
        assert len(read_frontier_csv(out / "frontier.csv")) == len(ExperimentConfig().betas)


def test_seed_override_changes_results(tmp_path):
    cmd_run(small_config(), tmp_path / "s0")
    cmd_run(small_config(seed=1), tmp_path / "s1")
    a = (tmp_path / "s0" / "summary.csv").read_text()
    b = (tmp_path / "s1" / "summary.csv").read_text()
    assert a != b


# a valid value, unlike the default, for every config key that names a domain field
NON_DEFAULT_SHARED = dict(
    num_worlds=4,
    width=0.2,
    means=(0.1, 0.4, 0.6, 0.9),
    num_priors=5,
    gamma0=2.0,
    alpha=3.0,
    proposal_sigma=0.05,
    gamma_sel0=0.5,
    alpha_sel=7.0,
    utility_samples=4,
    hidden_dim=8,
    latent_dim=3,
    decoder_variance=0.02,
    step_size=0.005,
    buffer_size=128,
    batch_size=16,
)
DOMAIN_TYPES = (GaussianTaskSpec, ChainConfig, SelectionConfig, VaeArch, SystemConfig)


def _shared_keys():
    config_keys = {f.name for f in fields(ExperimentConfig)}
    return {f.name for cls in DOMAIN_TYPES for f in fields(cls)} & config_keys


def test_every_shared_config_key_reaches_its_domain_type():
    assert set(NON_DEFAULT_SHARED) == _shared_keys()
    defaults = ExperimentConfig()
    for key, value in NON_DEFAULT_SHARED.items():
        assert value != getattr(defaults, key), key
    cfg = replace(defaults, **NON_DEFAULT_SHARED)
    validate_config(cfg)
    budget = BudgetSplit(40, 10)
    multi = system_config(cfg, "multi", budget)
    built = (task_spec(cfg), multi.chain, multi.selection, multi.vae, multi)
    carried = set()
    for obj in built:
        for f in fields(obj):
            if f.name in NON_DEFAULT_SHARED:
                assert getattr(obj, f.name) == NON_DEFAULT_SHARED[f.name], f.name
                carried.add(f.name)
    assert carried == set(NON_DEFAULT_SHARED)
    assert multi.budget == budget
    single = system_config(cfg, "single", budget)
    assert single.num_priors == 1
    assert replace(single, num_priors=cfg.num_priors) == multi


def test_library_and_cli_defaults_agree():
    defaults = ExperimentConfig()
    for cls in DOMAIN_TYPES:
        for f in fields(cls):
            if f.name in _shared_keys():
                assert f.default == getattr(defaults, f.name), (cls.__name__, f.name)
    for solver in (solve_single_stage, solve_two_stage, rate_distortion_curve):
        params = inspect.signature(solver).parameters
        for key in ("grid_size", "tol", "max_iter"):
            assert params[key].default == getattr(defaults, key), (solver.__name__, key)
    assert BudgetSplit() == BudgetSplit.fraction(
        defaults.total_steps[0], defaults.selection_fraction
    )
