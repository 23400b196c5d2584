"""Figure generation for the frontier and utility-gain panels.

``generate_plot_script`` emits a self-contained matplotlib script that
embeds the rows of the frontier and summary CSVs (read by
:mod:`brdm.experiment`) as literals; regenerating from identical inputs
gives byte-identical text. ``render_plot_script`` executes that script so
the rendered PNGs always match what the standalone script would produce.
Only rendering needs matplotlib (the ``plot`` extra); generating the script
does not.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import Sequence

PLOT_SCRIPT_NAME = "plot_figures.py"
PLOT_DATA_NAME = "plot_data.json"


_SCRIPT_PREAMBLE = '''#!/usr/bin/env python3
"""Redraws the efficiency-frontier and utility-gain panels from embedded data."""
import os

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt

OUT_DIR = os.path.dirname(os.path.abspath(__file__))
'''

# figure file: (drawing function, the lines between the ones every panel shares), drawn in order
_PANELS = {
    "efficiency_frontier.png": ("plot_frontier", '''
    mi = [row[1] for row in FRONTIER]
    eu = [row[2] for row in FRONTIER]
    ax.plot(mi, eu, color="black", lw=1.5, label="efficiency frontier")
    seen = set()
    for kind, marker, color in (("single", "x", "tab:orange"), ("multi", "o", "tab:blue")):
        rows = [r for r in SUMMARY if r[0] == kind]
        if not rows:
            continue
        ax.scatter(
            [r[4] for r in rows],
            [r[5] for r in rows],
            marker=marker,
            s=28,
            color=color,
            label=f"{kind}-prior agents",
            zorder=3,
        )
        for r in rows:
            key = (kind, r[2])
            if key in seen:
                continue
            seen.add(key)
            ax.annotate(str(r[2]), (r[4], r[5]), fontsize=7, xytext=(3, 3),
                        textcoords="offset points")
    ax.set_xlabel("I(W;A) [bits]")
    ax.set_ylabel("expected utility")
    ax.legend(loc="lower right", fontsize=8)
'''),
    "delta_u_vs_budget.png": ("plot_delta_u", '''
    for kind, color in (("single", "tab:orange"), ("multi", "tab:blue")):
        rows = [r for r in SUMMARY if r[0] == kind]
        totals = sorted({r[1] for r in rows})
        if not totals:
            continue
        means, bands = [], []
        for total in totals:
            cell = [r for r in rows if r[1] == total]
            means.append(sum(r[6] for r in cell) / len(cell))
            bands.append(sum(r[7] for r in cell) / len(cell))
        lo = [m - b for m, b in zip(means, bands)]
        hi = [m + b for m, b in zip(means, bands)]
        ax.plot(totals, means, marker="o", color=color, label=f"{kind}-prior")
        ax.fill_between(totals, lo, hi, color=color, alpha=0.2)
    ax.set_xlabel("total MCMC steps")
    ax.set_ylabel("utility gained by the action chain")
    ax.legend(loc="best", fontsize=8)
'''),
}


def figure_names(summary_rows: Sequence[tuple]) -> list[str]:
    """The figures a plot script draws: the utility-gain panel only when the summary has rows."""
    return list(_PANELS)[: 2 if summary_rows else 1]


def generate_plot_script(
    frontier_rows: Sequence[tuple], summary_rows: Sequence[tuple]
) -> str:
    """Self-contained plot script; every summary row appears exactly once."""
    parts = [_SCRIPT_PREAMBLE]
    for name, rows in (("FRONTIER", frontier_rows), ("SUMMARY", summary_rows)):
        parts += [f"\n{name} = [\n", *(f"    {tuple(row)!r},\n" for row in rows), "]\n"]
    figures = figure_names(summary_rows)
    for figure in figures:
        function, body = _PANELS[figure]
        parts += [
            f"\ndef {function}():\n    fig, ax = plt.subplots(figsize=(6.0, 4.0))",
            body,
            f'    fig.tight_layout()\n    fig.savefig(os.path.join(OUT_DIR, "{figure}"), dpi=150)\n',
            "    plt.close(fig)\n",
        ]
    parts.append('\nif __name__ == "__main__":\n')
    parts += [f"    {_PANELS[figure][0]}()\n" for figure in figures]
    return "".join(parts)


def render_plot_script(script_path: str | Path) -> None:
    """Execute a generated script in place, writing PNGs next to it.

    Raises RuntimeError, before running anything, if matplotlib is missing;
    the message names the script, which renders the figures when run once
    the ``plot`` extra is installed.
    """
    script_path = Path(script_path)
    if importlib.util.find_spec("matplotlib") is None:
        raise RuntimeError(
            "rendering the figures needs matplotlib, which is not installed; "
            f"install the 'plot' extra (pip install -e .[plot]) and run python {script_path}"
        )
    source = script_path.read_text()
    code = compile(source, str(script_path), "exec")
    exec(code, {"__name__": "__main__", "__file__": str(script_path)})
