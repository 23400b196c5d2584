"""Shared test helpers: tabular worlds, rank correlation, task fixture."""

import numpy as np
import pytest

from brdm.core import GaussianTaskSpec, WorldModel, make_gaussian_task

# one line per acceptance criterion, printed in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_tabular_world(table, rho=None):
    """World whose utility is a lookup into a (num_worlds, num_actions) table.

    Column j corresponds to the grid point (j + 0.5) / num_actions, so solving
    on a grid of the same size evaluates exactly the table entries.
    """
    table = np.asarray(table, dtype=float)
    num_worlds, num_actions = table.shape
    if rho is None:
        rho = np.full(num_worlds, 1.0 / num_worlds)

    def utility(w, a):
        j = min(int(a * num_actions), num_actions - 1)
        return float(table[w, j])

    return WorldModel(num_worlds=num_worlds, rho=np.asarray(rho, dtype=float), utility=utility)


def spearman_rho(x, y):
    """Spearman rank correlation (average ranks for ties)."""
    def ranks(v):
        v = np.asarray(v, dtype=float)
        order = np.argsort(v)
        r = np.empty_like(v)
        r[order] = np.arange(1.0, len(v) + 1.0)
        for value in np.unique(v):
            mask = v == value
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx**2).sum() * (ry**2).sum())
    return float((rx * ry).sum() / denom)


@pytest.fixture(scope="session")
def gaussian_task():
    return make_gaussian_task(GaussianTaskSpec())
