"""Rerun the episode-log digest sweep under other SIMD kernels and report what differs.

The digests in ``tests/test_log_digests.py`` were recorded with the kernels
that OpenBLAS and NumPy pick on one CPU. This script reruns that test's
sweep with ``brdm run`` in a child process per setting, through the runner
of ``tools/compare_outputs.py``; the environment variables of each setting
reach only that child, and they make OpenBLAS or NumPy use the kernels of an
older CPU. For each setting it prints the files
whose SHA-256 differs from the test's ``DIGESTS``.

Run from the repository root:

    python tools/digest_portability.py

Exit status 0 when every setting matches every digest, 1 otherwise.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from compare_outputs import ROOT, brdm, digests
from test_log_digests import CONFIG, DIGESTS

AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
SETTINGS = {
    "default": {},
    "OpenBLAS Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "OpenBLAS Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "NumPy without AVX-512": {"NPY_DISABLE_CPU_FEATURES": AVX512},
    "NumPy without AVX-512 and X86_V3": {"NPY_DISABLE_CPU_FEATURES": AVX512 + " X86_V3"},
}


def main() -> int:
    all_match = True
    with tempfile.TemporaryDirectory() as tmp:
        cfgfile = Path(tmp) / "sweep.cfg"
        cfgfile.write_text(CONFIG)
        for index, (label, env) in enumerate(SETTINGS.items()):
            out = Path(tmp) / f"sweep{index}"
            try:
                brdm(ROOT, "run", "--config", str(cfgfile), "--out", str(out), env=env)
            except RuntimeError as error:
                all_match = False
                print(f"{label}: sweep failed: {str(error).splitlines()[-1]}", flush=True)
                continue
            got = digests(out)
            differ = [name for name, digest in sorted(DIGESTS.items()) if got.get(name) != digest]
            all_match &= not differ
            if differ:
                report = f"{len(differ)} of {len(DIGESTS)} differ: {', '.join(differ)}"
            else:
                report = f"all {len(DIGESTS)} match"
            print(f"{label}: {report}", flush=True)
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.exit(main())
