"""Every byte the CLI writes, pinned by SHA-256 on small tie-rich inputs.

A change that should not alter any output (a refactor, a speed-up) must keep
these digests.  A change that alters output on purpose updates the digest it
changes here and says in CHANGES.md which output changed and why.
"""

import hashlib
import json

import numpy as np
import pytest

from survconcord.cli import main

_PROFILE_FILE = [{
    "name": "custom",
    "family": "C_tau",
    "requires_tau": False,
    "notes": "uneven tie credit under IPCW",
    "policy": {
        "case_table": {"1A": [1, 1], "1B": [1, 0], "2A": [1, 1], "2B": [1, 0],
                       "1C": [0.3, 0.7], "6A": [0.5, 1], "6B": [0.5, 0]},
        "tie_tolerance": 0.05,
        "weight_scheme": "uno_squared",
        "truncation": {"mode": "value", "value": 12},
    },
}]

_PARAMS = {
    "event": {"shape": 3.0, "scale": 2.05e-7, "coefficients": [0.7, -0.4, 0.25]},
    "censoring": {"shape": 1.0, "scale": 1.0 / 600.0},
}

_COMMANDS = {
    "cindex-bootstrap": ["cindex", "--subjects", "in/s.csv", "--risk-col", "risk",
                         "--profile-file", "in/p.json", "--tau", "15",
                         "--bootstrap", "5", "--seed", "3", "--out", "out/boot"],
    "cindex-matrix": ["cindex", "--subjects", "in/s.csv", "--matrix", "in/m.csv",
                      "--grid", "0:40:2", "--transform", "neg-rmst:30",
                      "--out", "out/matrix"],
    "cindex-matrix-bootstrap": ["cindex", "--subjects", "in/s.csv", "--matrix", "in/m.csv",
                                "--grid", "0:40:2", "--transform", "neg-rmst:30",
                                "--tau", "15", "--bootstrap", "4", "--seed", "7",
                                "--out", "out/mboot"],
    "simulate": ["simulate", "--params", "in/params.json", "--n", "40",
                 "--datasets", "2", "--seed", "5", "--out-dir", "out/sim"],
    "km-event": ["km", "--subjects", "in/s.csv", "--target", "event",
                 "--out", "out/km_event.csv"],
    "km-censoring": ["km", "--subjects", "in/s.csv", "--target", "censoring",
                     "--out", "out/km_censoring.csv"],
}

_DIGESTS = {
    'cindex-bootstrap': {
        'boot.csv':
            '0b7ee51321073edc0b57d72a86a17830bc5fbad79849ea31b4e50d2c150e4699',
        'boot.json':
            'cb35c7bf24081e127d9d7fcb3a29da85349c4661248bb6cc26f58252fb387f3b',
    },
    'cindex-matrix': {
        'matrix.csv':
            'c4f41c4b97d73e77b7b2d1c8cfc3746ccd81a8d79555f8693be8d4c7db6e5cc9',
        'matrix.json':
            '50646f789820aff935dc5537274aa562d47788d33f32f386e0be9737d9e62fb0',
    },
    'cindex-matrix-bootstrap': {
        'mboot.csv':
            '4f6273f18331d414c326e577472fbcaebdef8d724efaf53c05873a5a04015a2d',
        'mboot.json':
            '736d58716f1b15a2ea61272253e9d2d12b0859740c8062225045a0912ee45126',
    },
    'simulate': {
        'sim/eps_0/dataset_000.csv':
            '4c879129ed0e05d8060f2ceff5dad207a9d3aae7784cc199efd0f3f1524f2de9',
        'sim/eps_0/dataset_001.csv':
            'c48443eac21eb3d40355851f043e038b21c0ab65ff4b6982f26eff4c14eb8d78',
        'sim/eps_0.5/dataset_000.csv':
            'de5956ca095c9fd96f6d1e6c1ab156021280ad7fd0fe59ce71be99b861a2193c',
        'sim/eps_0.5/dataset_001.csv':
            '9978c22208e2e47e3505b11686680c7b615a298130bd011bc2814eccd2376909',
        'sim/eps_1/dataset_000.csv':
            '494153bbedc77d36c8da9703b188226b6c9407205428d08b5c9d7342c4ddd23b',
        'sim/eps_1/dataset_001.csv':
            '22c8254a82b93fd2c6ad285ca3847ea8a302efce35f21fad41786ed3abe4046c',
        'sim/eps_13/dataset_000.csv':
            '4a135a1c6a8f6b15709e22dc65cdb0038aa5b06d1254cc81db53556494985c7e',
        'sim/eps_13/dataset_001.csv':
            '1324db3ec222cafab1543064597d2057aac540d5e5a5ed47bd5120cd5920ea41',
        'sim/eps_3/dataset_000.csv':
            '185146fcf28086a1401ed0154bffad3f61fcdeb1bb6535b3934a8f55b78a3af9',
        'sim/eps_3/dataset_001.csv':
            'd81273e6b5cf7c31333831eb5c81bb8a4fc012c03cb3f6e435a93273505587cd',
        'sim/eps_7/dataset_000.csv':
            'f24bf440c1c2dcf5874ceda277227fe4737e7a0440c18a7a21f97771db946645',
        'sim/eps_7/dataset_001.csv':
            '8706c4c41923e2692c1b8f3e191289fea4396d28b8754e5d2cd7a67e674597ac',
        'sim/manifest.json':
            '7481ece0e7fdc732979f2470f8d66ad29603d03afa6ae9552f8228ae662dc74a',
        'sim/oracle.csv':
            'de762a8fd29c97d42b883d754e780f4369168419abff785c61d09f2c28d0c70d',
        'sim/summary.csv':
            '56dbd105362ec5c8680fcae3db3e95820822ae4b6ea9151bbee3928a5f8090b0',
        'sim/uncensored/dataset_000.csv':
            '4c879129ed0e05d8060f2ceff5dad207a9d3aae7784cc199efd0f3f1524f2de9',
        'sim/uncensored/dataset_001.csv':
            'c48443eac21eb3d40355851f043e038b21c0ab65ff4b6982f26eff4c14eb8d78',
    },
    'km-event': {
        'km_event.csv':
            '4b2f5f988256c9c7121577192627ee6029298ff840438d2b69859d36d3b87739',
    },
    'km-censoring': {
        'km_censoring.csv':
            'd53d25b574e52cff802c19d34a9255875f52d4fcd7d076dbe473fdd644fabe77',
    },
}


def _write_inputs(root):
    """Subjects with tied times and risks, and step-rounded curves with ties."""
    rng = np.random.default_rng(2026)
    n = 60
    times = rng.integers(1, 20, n).astype(float)
    events = (rng.random(n) < 0.6).astype(int)
    risks = np.round(rng.normal(size=n), 1)
    grid = np.arange(0.0, 44.0, 4.0)
    hazards = np.round(rng.uniform(0.01, 0.2, n), 2)
    probs = np.round(np.exp(-hazards[:, None] * grid[None, :]), 3)
    ids = [f"s{i}" for i in range(n)]
    (root / "s.csv").write_text("id,time,event,risk\n" + "".join(
        f"{i},{t!r},{e},{r!r}\n" for i, t, e, r in zip(ids, times.tolist(),
                                                      events.tolist(), risks.tolist())))
    (root / "m.csv").write_text("id," + ",".join(map(repr, grid.tolist())) + "\n" + "".join(
        i + "," + ",".join(map(repr, row)) + "\n" for i, row in zip(ids, probs.tolist())))
    (root / "p.json").write_text(json.dumps(_PROFILE_FILE))
    (root / "params.json").write_text(json.dumps(_PARAMS))


def _digests(out):
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_cli_output_bytes_are_pinned(command, tmp_path, monkeypatch):
    for d in ("in", "out"):
        (tmp_path / d).mkdir()
    _write_inputs(tmp_path / "in")
    monkeypatch.chdir(tmp_path)
    assert main(_COMMANDS[command]) == 0
    assert _digests(tmp_path / "out") == _DIGESTS[command]
