"""The benchmark's workloads: the config each one hands to ``brdm``.

Every key the output checks rely on is written out in the config, so a
change of brdm's defaults cannot silently change what a workload runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from reference import BETAS, GRID_SIZE, NUM_WORLDS, WIDTH

TASK = {"num_worlds": NUM_WORLDS, "width": WIDTH}
AGENT = {"num_priors": 3, "utility_samples": 3, "summary_window": 0.1, "mi_bins": 100}
FRONTIER = {"grid_size": GRID_SIZE, "tol": 1e-10, "max_iter": 10_000}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # brdm subcommand: "run" or "baseline"
    config: dict
    # (agent kind, total steps, action steps) of the sweep cells; each runs
    # config["replicates"] times (once when the key is absent)
    cells: tuple[tuple[str, int, int], ...] = ()

    @property
    def cell_runs(self) -> list[tuple[str, int, int, int]]:
        """(kind, total steps, action steps, replicate) of every cell brdm trains."""
        reps = range(self.config.get("replicates", 1))
        return [(*cell, rep) for cell in self.cells for rep in reps]

    @property
    def ops_per_command(self) -> int:
        """Episodes for a sweep, beta-solves for a frontier."""
        if self.command == "run":
            return len(self.cell_runs) * self.config["episodes"]
        return len(self.config["betas"])

    def config_text(self, seed: int) -> str:
        lines = [f"{k} = {_format(v)}" for k, v in self.config.items()]
        lines.append(f"seed = {seed}")
        return "\n".join(lines) + "\n"


def _format(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_sweep",
            "run",
            {**TASK, **AGENT, "agent_kinds": ("single", "multi"), "total_steps": (100,),
             "selection_steps": (25,), "episodes": 5000},
            cells=(("multi", 100, 75), ("single", 100, 100)),
        ),
        Workload(
            "short_budget_multi",
            "run",
            {**TASK, **AGENT, "agent_kinds": ("multi",), "total_steps": (8, 12),
             "selection_steps": (4,), "episodes": 5000, "replicates": 3},
            cells=(("multi", 8, 4), ("multi", 12, 8)),
        ),
        Workload("exact_frontier", "baseline", {**TASK, **FRONTIER, "betas": BETAS}),
    )
}
