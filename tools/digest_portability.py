"""Rerun the episode-log digest sweep under other SIMD kernels and report what differs.

The digests in ``tests/test_log_digests.py`` were recorded with the kernels
that OpenBLAS and NumPy pick on one CPU. This script reruns that test's
sweep with ``brdm run`` in a child process per setting; the environment
variables of each setting reach only that child, and they make OpenBLAS or
NumPy use the kernels of an older CPU. For each setting it prints the files
whose SHA-256 differs from the test's ``DIGESTS``.

Run from the repository root:

    python tools/digest_portability.py

Exit status 0 when every setting matches every digest, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_log_digests import CONFIG, DIGESTS  # noqa: E402

AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
SETTINGS = {
    "default": {},
    "OpenBLAS Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "OpenBLAS Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "NumPy without AVX-512": {"NPY_DISABLE_CPU_FEATURES": AVX512},
    "NumPy without AVX-512 and X86_V3": {"NPY_DISABLE_CPU_FEATURES": AVX512 + " X86_V3"},
}
ENTRY = "import sys; from brdm.cli import main; sys.exit(main(sys.argv[1:]))"


def run_child_sweep(out: Path, extra_env: dict[str, str]) -> str | None:
    """Write the digest sweep into ``out`` in a child process; its error text on failure."""
    cfgfile = out.parent / f"{out.name}.cfg"
    cfgfile.write_text(CONFIG)
    env = {**os.environ, **extra_env, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY, "run", "--config", str(cfgfile), "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    return None if proc.returncode == 0 else proc.stderr.strip() or f"exit {proc.returncode}"


def differing_files(out: Path) -> list[str]:
    """Names in ``DIGESTS`` whose file in ``out`` is missing or has another digest."""
    return [
        name
        for name, digest in sorted(DIGESTS.items())
        if not (out / name).exists()
        or hashlib.sha256((out / name).read_bytes()).hexdigest() != digest
    ]


def main() -> int:
    all_match = True
    with tempfile.TemporaryDirectory() as tmp:
        for index, (label, extra_env) in enumerate(SETTINGS.items()):
            out = Path(tmp) / f"sweep{index}"
            error = run_child_sweep(out, extra_env)
            differ = [] if error else differing_files(out)
            all_match &= not (error or differ)
            if error:
                report = f"sweep failed: {error.splitlines()[-1]}"
            elif differ:
                report = f"{len(differ)} of {len(DIGESTS)} differ: {', '.join(differ)}"
            else:
                report = f"all {len(DIGESTS)} match"
            print(f"{label}: {report}", flush=True)
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.exit(main())
