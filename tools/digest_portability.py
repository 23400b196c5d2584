"""Rerun the pinned digest runs under other SIMD kernels and report what differs.

The digests in ``tests/test_log_digests.py`` were recorded with the kernels
that OpenBLAS and NumPy pick on one CPU. This script reruns that test's
sweep with ``brdm run``, and each of its ``FRONTIER_DIGESTS`` configs with
``brdm baseline``, in a child process per run, through the runner of
``tools/compare_outputs.py``; the environment variables of each setting
reach only those children, and they make OpenBLAS or NumPy use the kernels
of an older CPU. For each setting it prints one line for the sweep, naming
the files whose SHA-256 differs from the test's ``DIGESTS``, and one for the
frontier, naming the configs whose frontier.csv differs.

Run from the repository root:

    python tools/digest_portability.py

Exit status 0 when every setting matches every digest, 1 otherwise.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from compare_outputs import ROOT, brdm, digests
from test_log_digests import CONFIG, DIGESTS, FRONTIER_DIGESTS

AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
SETTINGS = {
    "default": {},
    "OpenBLAS Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "OpenBLAS Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "NumPy without AVX-512": {"NPY_DISABLE_CPU_FEATURES": AVX512},
    "NumPy without AVX-512 and X86_V3": {"NPY_DISABLE_CPU_FEATURES": AVX512 + " X86_V3"},
}
# each frontier config by its lines, the empty one by what it runs
FRONTIER = {
    config.strip().replace("\n", "; ") or "defaults": digest
    for config, digest in FRONTIER_DIGESTS.items()
}


def run(command: str, config: str, out: Path, env: dict[str, str]) -> dict[str, str]:
    """Digests of what ``brdm command`` writes to ``out`` for ``config`` under ``env``."""
    cfgfile = out.with_suffix(".cfg")
    cfgfile.write_text(config)
    brdm(ROOT, command, "--config", str(cfgfile), "--out", str(out), env=env)
    return digests(out)


def report(label: str, expected: dict[str, str], got: dict[str, str]) -> bool:
    """Print the keys of ``expected`` whose digest ``got`` lacks; True when there are none."""
    differ = [key for key, digest in expected.items() if got.get(key) != digest]
    if differ:
        print(f"{label}: {len(differ)} of {len(expected)} differ: {', '.join(differ)}", flush=True)
    else:
        print(f"{label}: all {len(expected)} match", flush=True)
    return not differ


def main() -> int:
    all_match = True
    with tempfile.TemporaryDirectory() as tmp:
        for index, (label, env) in enumerate(SETTINGS.items()):
            out = Path(tmp) / f"setting{index}"
            out.mkdir()
            try:
                all_match &= report(label, DIGESTS, run("run", CONFIG, out / "sweep", env))
            except RuntimeError as error:
                all_match = False
                print(f"{label}: sweep failed: {str(error).splitlines()[-1]}", flush=True)
            try:
                got = {
                    name: run("baseline", config, out / f"baseline{i}", env)["frontier.csv"]
                    for i, (name, config) in enumerate(zip(FRONTIER, FRONTIER_DIGESTS))
                }
                all_match &= report(f"{label} frontier", FRONTIER, got)
            except RuntimeError as error:
                all_match = False
                print(f"{label} frontier: failed: {str(error).splitlines()[-1]}", flush=True)
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.exit(main())
