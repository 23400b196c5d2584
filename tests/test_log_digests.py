"""Episode logs and the summary are pinned byte for byte.

A small sweep runs through the CLI: single-prior and multi-prior cells,
multi-prior cells with and without a selection stage, two replicates each.
Every CSV it writes is compared by SHA-256 with digests recorded before the
episode loop's bookkeeping moved onto Python scalars. A change that alters
these bytes on purpose records new digests and says why.
"""

import hashlib

from brdm.cli import main

CONFIG = """\
agent_kinds = single, multi
total_steps = 6, 10
selection_steps = 0, 4
episodes = 400
replicates = 2
workers = 1
seed = 5
"""

DIGESTS = {
    "episodes_multi_t10_a10_r0.csv": "2e232d50877bffb5d95db2dbae63605468d10d6c47d502875eaeb8cfe3b2af3a",
    "episodes_multi_t10_a10_r1.csv": "62d7ff24bca82adbc3ca273d4ec84aabc05657a5362efa0433f917ed932f170c",
    "episodes_multi_t10_a6_r0.csv": "df45f9bc469c4d8bd1e8fbc61840e93d637118a3f56b261f1b5634c2130cb7dd",
    "episodes_multi_t10_a6_r1.csv": "ae751d53ae58d896d088ff8da4dc4f4c3ea1d15aa64ad0ab888a2a0e4772bb44",
    "episodes_multi_t6_a2_r0.csv": "bb2e27f23770bebaf70ec303cbe1c4c0442f1cf80f84e634a64ecfd01a613b98",
    "episodes_multi_t6_a2_r1.csv": "3cbb85a882bff25b512371de676f381723a309f1440252c6b4fb726008cb9afe",
    "episodes_multi_t6_a6_r0.csv": "d4f995edbf0b7e452b5a5363c658d9eb6f0b9003e0f7040831406f2b635d964c",
    "episodes_multi_t6_a6_r1.csv": "b66f6b273079ff3a53098383a47adf2b77ab4dab67be99948db99d5eb7e4a10d",
    "episodes_single_t10_a10_r0.csv": "2ca52cd76162c29eeab3320d3855d5fb8a409f8a05dbea181fbf47108e2a2581",
    "episodes_single_t10_a10_r1.csv": "e35fdfb63f33abf402edf5eeb36d2a79d3ed6d4f68466dd9be49f7e3fa997b12",
    "episodes_single_t6_a6_r0.csv": "e9fbbc437401344e4b20126c75aa52b4ecbd43966f98b4d7a4fe9a4a0af76713",
    "episodes_single_t6_a6_r1.csv": "265f3fa5f8e3deaf6fc2785f546289063a4fe82a8f30bc7182a83064fe39d0c1",
    "summary.csv": "139ba76763e965a8b809be9825eea9edf162d23a9f6bd551f7585971664179d1",
}


def test_sweep_logs_match_recorded_digests(tmp_path):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(CONFIG)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*.csv"))
    }
    assert digests == DIGESTS
