"""Spans around brdm's layer boundaries, recorded from outside the package.

Each public function is wrapped where its caller looks it up (for example
``brdm.agents.run_action_chain``, which ``DecisionSystem.run_episode``
calls, and ``brdm.experiment.make_gaussian_task``, whose world's utility
is wrapped), so brdm itself stays untouched. A span is (name, start, end,
parent); spans live in flat arrays in memory and are written out once, at
the end. Counts (chain acceptances, ELBO values, solver iterations) are
read off the wrapped calls' results at the same wrappers.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.proposals = 0
        self.accepted = 0
        self.cell_elbos: list[list[float]] = [[]]
        self.iterations = 0
        self.capped = 0
        # (start, end, innermost open span) of each CPU-speed probe that ran
        # from a signal handler in the middle of the traced code
        self.probes: list[tuple[float, float, int]] = []

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording one span per call; ``note(result)`` takes counts."""
        nid = self.name_id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if note is not None:
                note(result)
            return result

        return traced

    def note_probe(self, start: float, end: float) -> None:
        """Record a probe; it writes none of the span arrays, which it may interrupt."""
        self.probes.append((start, end, self._stack[-1]))

    # counts taken from results at the wrappers
    def _note_chain(self, result) -> None:
        steps = result.evaluations - 1
        self.proposals += steps
        self.accepted += round(result.acceptance_rate * steps)

    def _note_train_step(self, report) -> None:
        self.cell_elbos[-1].append(report.elbo)

    def _note_cell(self, _row) -> None:
        self.cell_elbos.append([])

    def _note_solve(self, policy) -> None:
        self.iterations += policy.iterations
        self.capped += not policy.converged

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "span_name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "probes": np.array(self.probes, dtype=float).reshape(-1, 3),
        }

    def write(self, path: Path) -> None:
        np.savez(path, **self.arrays())


def _targets(tracer: Tracer):
    """(owner, attribute, span name, note) for every wrapped lookup.

    Imported here rather than at the top: the benchmark puts brdm's sources
    on ``sys.path`` only once it has found them.
    """
    import brdm.agents
    import brdm.baseline
    import brdm.cli
    import brdm.experiment

    return [
        (brdm.experiment, "run_cell", "experiment.cell", tracer._note_cell),
        (brdm.experiment, "write_episode_csv", "experiment.csv_write", None),
        (brdm.cli, "write_summary_csv", "experiment.csv_write", None),
        (brdm.cli, "write_frontier_csv", "experiment.csv_write", None),
        (brdm.agents.DecisionSystem, "run_episode", "agents.episode", None),
        (brdm.agents, "run_action_chain", "mcmc.action_chain", tracer._note_chain),
        (brdm.agents, "run_selection_chain", "mcmc.selection_chain", None),
        (brdm.agents, "sample_action", "vae.sample", None),
        (brdm.agents, "sample_actions", "vae.sample", None),
        (brdm.agents, "train_step", "vae.train_step", tracer._note_train_step),
        (brdm.baseline, "solve_single_stage", "baseline.solve", tracer._note_solve),
        (brdm.baseline, "utility_table", "baseline.utility_table", None),
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap brdm's layer calls for the duration of the block, then restore them."""
    import brdm.experiment

    saved = []
    try:
        for owner, attr, name, note in _targets(tracer):
            original = getattr(owner, attr)  # a renamed lookup fails loudly here
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, note))

        make_task = brdm.experiment.make_gaussian_task
        saved.append((brdm.experiment, "make_gaussian_task", make_task))

        def traced_task(spec):
            world = make_task(spec)
            return dataclasses.replace(world, utility=tracer.wrap("core.utility", world.utility))

        brdm.experiment.make_gaussian_task = traced_task
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# name -> unit of every per-layer metric, in report order
LAYER_UNITS = {
    "mcmc.action_chain_us": "us",
    "mcmc.selection_chain_us": "us",
    "mcmc.acceptance_rate": "ratio",
    "vae.train_step_us": "us",
    "vae.sample_us": "us",
    "vae.train_steps": "count",
    "vae.elbo_final": "nats",
    "core.utility_calls_per_op": "count",
    "core.utility_us": "us",
    "agents.episode_us": "us",
    "agents.episode_self_us": "us",
    "experiment.cell_s": "s",
    "experiment.csv_write_s": "s",
    "baseline.iterations": "count",
    "baseline.iteration_us": "us",
    "baseline.capped_solves": "count",
    "baseline.utility_table_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(tracer: Tracer, ops: int, scale: float = 1.0) -> dict[str, float]:
    """Per-layer figures of one traced command; a layer it never calls reads 0.

    Times per call are inclusive of child spans except the ``_self`` ones.
    Probe time is taken out of every span that holds it, and times are
    multiplied by ``scale``. ``trace.overhead_ratio`` is filled in by the
    caller.
    """
    a = tracer.arrays()
    names, parent, start, end = a["span_name"], a["parent"], a["start"], a["end"]
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    own = dur - child
    work = dur.copy()
    for t0, t1, i in tracer.probes:
        # the span open at the signal, or an ancestor if that one had
        # already ended or not yet started when the probe ran
        innermost = True
        while i >= 0:
            if start[i] <= t0 and t1 <= end[i]:
                work[i] -= t1 - t0
                if innermost:
                    own[i] -= t1 - t0
                    innermost = False
            i = parent[i]
    own *= scale
    work *= scale

    def mask(name: str) -> np.ndarray:
        if name not in tracer.names:
            return np.zeros(len(dur), dtype=bool)
        return names == tracer.names.index(name)

    def mean(values: np.ndarray, name: str, unit: float = 1e6) -> float:
        m = mask(name)
        return float(values[m].mean()) * unit if m.any() else 0.0

    def total(name: str) -> float:
        return float(work[mask(name)].sum())

    elbos = [e[-max(1, len(e) // 10):] for e in tracer.cell_elbos if e]
    iterations = tracer.iterations
    return {
        "mcmc.action_chain_us": mean(work, "mcmc.action_chain"),
        "mcmc.selection_chain_us": mean(work, "mcmc.selection_chain"),
        "mcmc.acceptance_rate": tracer.accepted / tracer.proposals if tracer.proposals else 0.0,
        "vae.train_step_us": mean(work, "vae.train_step"),
        "vae.sample_us": mean(work, "vae.sample"),
        "vae.train_steps": float(mask("vae.train_step").sum()),
        "vae.elbo_final": float(np.mean([np.mean(e) for e in elbos])) if elbos else 0.0,
        "core.utility_calls_per_op": float(mask("core.utility").sum()) / ops,
        "core.utility_us": mean(work, "core.utility"),
        "agents.episode_us": mean(work, "agents.episode"),
        "agents.episode_self_us": mean(own, "agents.episode"),
        "experiment.cell_s": mean(work, "experiment.cell", unit=1.0),
        "experiment.csv_write_s": total("experiment.csv_write"),
        "baseline.iterations": float(iterations),
        "baseline.iteration_us": (float(own[mask("baseline.solve")].sum()) / iterations * 1e6
                                  if iterations else 0.0),
        "baseline.capped_solves": float(tracer.capped),
        "baseline.utility_table_s": total("baseline.utility_table"),
    }
