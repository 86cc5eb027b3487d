"""Byte-level guard on the CLI outputs of every preset path.

Each path runs in-process at seed 5 with its shots cut to at most 2,048
per scenario, more than one chunk of protocols.CHUNK_SHOTS, and the
sha256 of every CSV, and of fit.json and budget.json re-encoded with
indent=2 and sorted keys, must equal the digest recorded here. Every
JSON output must also be written compact, with sorted keys.
The digests were taken with numpy 2.4.6 on x86-64; a change that is
meant to move output bytes says why in CHANGES.md and records the new
digests.
"""

import hashlib
import json
import os

import pytest
from conftest import preset_config

from tweezersim.cli import main
from tweezersim.protocols import CHUNK_SHOTS


SHOTS = 2048  # two full chunks per scenario
FIG3_SHOTS = CHUNK_SHOTS + 76  # fig3 runs 13 analyzer phases per scenario

#: path -> [(command, config)], run in order into one out/ directory
#: next to the configs, so a later command reads an earlier one's output
RUNS = {
    "simulate-fig2": [("simulate", preset_config("fig2", shots=SHOTS))],
    "simulate-fig3": [("simulate", preset_config("fig3", shots=FIG3_SHOTS))],
    "simulate-fig4": [("simulate", preset_config("fig4", shots=SHOTS))],
    # a thermal data atom reaches n >= 2, where the two red-sideband modes differ
    "simulate-fig4-thermal": [("simulate", preset_config("fig4", shots=SHOTS, data_nbar=1.0))],
    "simulate-fig4-thermal-pulsed-rsb": [("simulate", preset_config(
        "fig4", shots=SHOTS, data_nbar=1.0, ideal_cooling_rsb=False))],
    "cool-fig4": [("cool", preset_config("fig4", shots=SHOTS))],
    "cool-fig4-pulsed-rsb": [("cool", preset_config("fig4", shots=SHOTS, ideal_cooling_rsb=False))],
    "simulate-fig3-thermal-noisy": [("simulate", {
        **preset_config("fig3", shots=FIG3_SHOTS, data_nbar=0.5),
        "noise": {"trap_frequency": {"kind": "quasi_static", "sigma_hz": 175.0}},
    })],
    # a laser PSD keeps H time-dependent: every noisy pulse runs the
    # multi-step kernel, its tree and its odd-step tails
    "simulate-fig3-psd": [("simulate", {
        **preset_config("fig3", shots=16),
        "noise": {"laser_frequency": {"kind": "psd", "frequencies_hz": [0, 5000], "values": [2000, 2000]}},
    })],
    "simulate-phase-calibration": [("simulate", {"protocol": {"kind": "phase_calibration"}})],
    "response": [("response", {})],
    "response-numeric": [("response", {"response": {"duration_s": 0.0005}})],
    "response-amplitude": [("response", {
        "response": {"channel": "laser_amplitude"},
        "noise": {"laser_amplitude": {"kind": "quasi_static", "sigma_hz": 50.0}},
    })],
    "fit-baseline": [("spectrum", {}), ("fit", {"fit": {"input_csv": "out/spectrum.csv"}})],
    "fit-cooled": [
        ("spectrum", {"spectrum": {"after_cooling": True}}),
        ("fit", {"fit": {"input_csv": "out/spectrum.csv", "mode": "cooled"}}),
    ],
    "detect": [
        ("simulate", preset_config("fig2", shots=SHOTS)),
        ("detect", {"detect": {"input_csv": "out/shots.csv", "n_cyc_list": [1, 2, 3, 4]}}),
    ],
}

DIGESTS = {
    "simulate-fig2": {
        "shots.csv": "e79191ef420854d03ac254e323efe0c391d12e1feb3ddb8ecfe44f85eb4e39d9",
    },
    "simulate-fig3": {
        "fringe.csv": "9899ba99ec1369e39b2810769369a32bf677ed2d031f83c29b3f76b2e70d5249",
        "shots.csv": "07af548ba49f46bc870b9cadeaa4a6c24deffb939c5ced368f2daeebf79d4c6f",
    },
    "simulate-fig4": {
        "shots.csv": "b91b574ea0db1056dcc227b2a6ad0d83d8a52355829624f51503aeb166c90f74",
    },
    "simulate-fig4-thermal": {
        "shots.csv": "a4a624798b0f55f777fbd491cd68cb96a062ccb1447679446c7bb82e23c8a331",
    },
    "simulate-fig4-thermal-pulsed-rsb": {
        "shots.csv": "e01980c35bb285e0cd89106db81f98314d7255cadd24e8f6e501df0c19a84160",
    },
    "cool-fig4": {
        "cool.csv": "e92bab74a4968d183218af2ba554ad0415d4fafed78694cf8a1833ed6893c722",
    },
    # the red-sideband pulse leaves the p0 columns of the ideal map
    "cool-fig4-pulsed-rsb": {
        "cool.csv": "e92bab74a4968d183218af2ba554ad0415d4fafed78694cf8a1833ed6893c722",
    },
    "simulate-fig3-thermal-noisy": {
        "fringe.csv": "03222ed51e838f49a49f61faf567e1b61d53a52554643baa4cdd34d01a33b7b2",
        "shots.csv": "d35fd8ef64e8e58b2e8baa81abc486b9cfdd92ea6ae4184265578785921bd4fd",
    },
    "simulate-fig3-psd": {
        "fringe.csv": "bd1589142997f475b99053c1b9fb508230e4929108b1c7b0c7d2a50de4a8e1f9",
        "shots.csv": "0f04c9ea2d8a906cfebb1a58639e12d8f0e4e5849ef101f6f0396166d0e25efc",
    },
    "simulate-phase-calibration": {
        "phase_calibration.csv": "04b7452de9a184e9b47894b3bcce68539e292b0d84f09ac42f24983302cdc54b",
    },
    "response": {
        "budget.json": "104aaa352799d242b0fe8d62e0fe953ed22a677447cd41e6d787f8ce72d78602",
        "response.csv": "e2db8bb709624bc33f39ba5b5c493968a004a3822a9c255d33ed0ea38d3587b2",
    },
    "response-numeric": {
        "budget.json": "cfb464f4250c5d8fb9c34d776cd298ce6451059d9a3a46643e1efd3c2f945af0",
        "response.csv": "4fa21d5d4a8db4a3807d74efd23b3a070682f795362202eb5b9a1516a5c7d22c",
    },
    "response-amplitude": {
        "budget.json": "a45409f73e22f5333b95d71064c07d4015b16ab854fcb8546a2f7c95185aad53",
        "response.csv": "28f2e20e8a73db532841a28fd98a682fd31b7f36f9d974295bad60fd29ab9016",
    },
    "fit-baseline": {
        "fit.json": "14919359c45bdaecfd253648c24cc800de1e6e7c9049df56c5c94b97a9e2fe79",
        "spectrum.csv": "7bb3f8f655e524422dd28606976ccdc730cf1102e1f3a87a92ab9a9226e2498b",
    },
    "fit-cooled": {
        "fit.json": "61afe964a724dda7c2f871fec3e11879259004a3d944d64797b73f7e73db5595",
        "spectrum.csv": "4966b8f0d42c8bd1c99601a76d055d7eb361625034009bd0525b4361d4299ac7",
    },
    "detect": {
        "detect.csv": "43d5061cf2d05603fddea210862e3c518668fe8070088bbcea5267a0155e2c17",
        "shots.csv": "e79191ef420854d03ac254e323efe0c391d12e1feb3ddb8ecfe44f85eb4e39d9",
    },
}


def _hashed_bytes(path):
    """A CSV's bytes; a JSON output re-encoded in the layout its digest was
    taken in, so the digest pins every key and value but not the whitespace."""
    raw = path.read_bytes()
    if path.suffix != ".json":
        return raw
    return (json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n").encode()


def _digests(out):
    return {
        name: hashlib.sha256(_hashed_bytes(out / name)).hexdigest()
        for name in sorted(os.listdir(out))
        if name.endswith(".csv") or name in ("fit.json", "budget.json")
    }


@pytest.mark.parametrize("path", list(RUNS))
def test_seed5_outputs_keep_their_bytes(tmp_path, path):
    for i, (command, cfg) in enumerate(RUNS[path]):
        config_path = tmp_path / f"{i}-{command}.json"
        config_path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(config_path), "--seed", "5", "--out", str(tmp_path / "out")]) == 0
    out = tmp_path / "out"
    got = _digests(out)
    assert sorted(got) == sorted(DIGESTS[path])
    changed = [name for name, digest in got.items() if digest != DIGESTS[path][name]]
    assert not changed, f"{path}: the bytes of {', '.join(changed)} changed"
    for name in sorted(os.listdir(out)):
        if name.endswith(".json"):  # report.json too: compact, sorted keys, one line
            raw = (out / name).read_bytes()
            compact = json.dumps(json.loads(raw), sort_keys=True, separators=(",", ":")) + "\n"
            assert raw == compact.encode(), f"{path}: {name} is not compact sorted-key JSON"
