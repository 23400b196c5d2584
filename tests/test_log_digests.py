"""Episode logs, the summary and the frontier are pinned byte for byte.

A small sweep runs through the CLI: single-prior and multi-prior cells,
multi-prior cells with and without a selection stage, two replicates each.
Every CSV it writes is compared by SHA-256 with digests recorded before the
episode loop's bookkeeping moved onto Python scalars. ``brdm baseline``'s
frontier.csv is pinned the same way, with digests recorded before the exact
solvers' fixed-point equations moved into shared helpers. A change that
alters these bytes on purpose records new digests and says why.
"""

import hashlib
from pathlib import Path

from brdm.cli import main

ROOT = Path(__file__).resolve().parents[1]

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


# Other VAE shapes: a batch of 7 drawn from a 10-decision buffer, so the
# first steps of each prior train on a buffer holding fewer than 7. Digests
# recorded before the training step moved onto per-prior buffers.
SHAPES_CONFIG = """\
agent_kinds = single, multi
total_steps = 6, 10
selection_steps = 0, 4
episodes = 300
replicates = 1
hidden_dim = 5
latent_dim = 3
batch_size = 7
buffer_size = 10
workers = 1
seed = 17
"""

SHAPES_DIGESTS = {
    "episodes_multi_t10_a10_r0.csv": "4a90f7103f6f763677435189e1dcca23debbb611967ce0c887367718813c7485",
    "episodes_multi_t10_a6_r0.csv": "9551b28b5705d16df91d7416d127afbb2bd2faa5cc364ac67e053f035c9b98a6",
    "episodes_multi_t6_a2_r0.csv": "c4dd6eb2bb88e07940d1a08cf3e9e8962d38fc87cc576f28dfe54227aa2843c0",
    "episodes_multi_t6_a6_r0.csv": "936fe27259451de06f77e35a9cb00c9731e7bd1cb8f2cbd029e423bb0a2968fc",
    "episodes_single_t10_a10_r0.csv": "2e70038c9d54e868070dc59d9aea965a2b75a58cf5be1dae26ac3021f501bbad",
    "episodes_single_t6_a6_r0.csv": "f44289b898b3222d126c5ce2e3c3574dc5bdd8949fc1000277a83c03775aed81",
    "summary.csv": "f1eb531a33d8b6a5bbaa83ed41c93f979527ca7a2d6ef46a82626c96b0eada31",
}


def _sweep_digests(tmp_path, config):
    cfgfile = tmp_path / "sweep.cfg"
    cfgfile.write_text(config)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*.csv"))
    }


def test_sweep_logs_match_recorded_digests(tmp_path):
    assert _sweep_digests(tmp_path, CONFIG) == DIGESTS


def test_other_vae_shapes_match_recorded_digests(tmp_path):
    assert _sweep_digests(tmp_path, SHAPES_CONFIG) == SHAPES_DIGESTS


# frontier.csv of `brdm baseline` at the default config, and with max_iter = 50,
# where no point converges and the optional `converged` column appears. The
# solvers sweep in blocks of 1, 2, 4, ... up to 64 at the default grid, so
# caps of 1, 3, 7, 63 and 127 end a solve at the end of a block, and 64, 65
# and 129 just after one; at 129 the high betas converge inside a block. At
# grid_size = 2000 the blocks grow to 4 sweeps, and the cap of 301 leaves
# both converged and capped points. The digests at caps 1, 3, 7 and 127 were
# recorded with fixed 64-sweep blocks, before the blocks grew by doubling.
FRONTIER_DIGESTS = {
    "": "a6236ade2585560063f41c6084c6cdb1e3b2caf6c01299b7915daa776d95f058",
    "max_iter = 1\n": "82698be91fdcd92d7aa71f7185b75a9fa94ade4db28fcf82ff23aac83b22a20b",
    "max_iter = 3\n": "c438f45d2a2c9a1829b6c4d8a4bf29d3115ddfdb230cac2387e44db0143e14cc",
    "max_iter = 7\n": "393da2ef40fa6ad302a0774fc13f745aaa1542b23dbbb3e598ea967fbf8c0da9",
    "max_iter = 50\n": "854a9a79b4d049f62d93871efa368af366cb27d7826a5bf0b57a9b354edf31cb",
    "max_iter = 63\n": "e561d5608aac695ebbc332bf341afaedf93bba57e1fa467bf59bd72d59c2789a",
    "max_iter = 64\n": "f42e58b7ac1edb13d45fe049339debe3cf06b581beae33a2a9a39d6059143402",
    "max_iter = 65\n": "c16048271942ae60bbfec856e846339e80753d9dbfe60d446ea6f81218dc3ee1",
    "max_iter = 127\n": "f6c65782d60749ad80d62cc6b08f112e6bc941c098fb024cf86cc641a50b3da4",
    "max_iter = 129\n": "87a0a6e5a8de3f4276504e778de5d3eb1f24d7ef79d7e21a008c189681e52618",
    "grid_size = 2000\nmax_iter = 301\n": (
        "29210501e4f3b497b1bb5dced88e9e4ae65cfd23c7a7cabc39b688235e490635"
    ),
}


def test_frontier_csv_matches_recorded_digests(tmp_path):
    for index, (config, digest) in enumerate(FRONTIER_DIGESTS.items()):
        cfgfile = tmp_path / f"baseline{index}.cfg"
        cfgfile.write_text(config)
        out = tmp_path / f"baseline{index}"
        assert main(["baseline", "--config", str(cfgfile), "--out", str(out)]) == 0
        frontier = (out / "frontier.csv").read_bytes()
        assert hashlib.sha256(frontier).hexdigest() == digest, config
    assert b",converged" in frontier


def test_the_tools_child_runner_reproduces_a_frontier_digest(tmp_path, monkeypatch):
    # tools/compare_outputs.py and tools/digest_portability.py run brdm this way
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from compare_outputs import brdm, digests

    cfgfile = tmp_path / "capped.cfg"
    cfgfile.write_text("max_iter = 1\n")
    out = tmp_path / "capped"
    brdm(ROOT, "baseline", "--config", str(cfgfile), "--out", str(out))
    assert digests(out)["frontier.csv"] == FRONTIER_DIGESTS["max_iter = 1\n"]
