"""Rerun the pinned digest runs under other SIMD kernels and report what differs.

The digests of ``PINNED`` in ``tests/test_log_digests.py`` were recorded
with the kernels that OpenBLAS and NumPy pick on one CPU. This script reruns
every ``PINNED`` run under each setting below, in a child process per run,
through the runner of ``tools/compare_outputs.py``; the environment
variables of each setting reach only those children, and they make OpenBLAS
or NumPy use the kernels of an older CPU. It prints one line per setting,
naming each pinned file, as ``label/file``, whose SHA-256 differs.

Run from the repository root:

    python tools/digest_portability.py

Exit status 0 when every setting matches every digest, 1 otherwise.
"""

import sys
import tempfile
from pathlib import Path

from compare_outputs import PINNED_RUNS, ROOT, digests, write_outputs
from test_log_digests import PINNED

AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
SETTINGS = {
    "default": {},
    "OpenBLAS Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "OpenBLAS Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "NumPy without AVX-512": {"NPY_DISABLE_CPU_FEATURES": AVX512},
    "NumPy without AVX-512 and X86_V3": {"NPY_DISABLE_CPU_FEATURES": AVX512 + " X86_V3"},
}
# every pinned digest, keyed by its path under the output directory of a setting
EXPECTED = {
    f"{label}/{name}": digest
    for label, (_, _, files) in PINNED.items()
    for name, digest in files.items()
}


def main() -> int:
    all_match = True
    with tempfile.TemporaryDirectory() as tmp:
        for index, (setting, env) in enumerate(SETTINGS.items()):
            out = Path(tmp) / f"setting{index}"
            try:
                write_outputs(ROOT, out, PINNED_RUNS, env)
            except RuntimeError as error:
                all_match = False
                print(f"{setting}: failed: {str(error).splitlines()[-1]}", flush=True)
                continue
            got = digests(out)
            differ = [key for key, digest in EXPECTED.items() if got.get(key) != digest]
            all_match &= not differ
            if differ:
                report = f"{len(differ)} of {len(EXPECTED)} differ: {', '.join(differ)}"
            else:
                report = f"all {len(EXPECTED)} match"
            print(f"{setting}: {report}", flush=True)
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.exit(main())
