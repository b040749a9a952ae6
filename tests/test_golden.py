"""Golden pins: the sha256 of every deterministic artifact of two small
training runs, one per agent kind, and the exact `lnnrl eval` line of the
hand-wired rule networks on hard maps.

A refactor that moves a single bit of the learning dynamics (summation
order, an extra random draw, a changed clamp) fails here even when every
convergence criterion still holds. Change a pin only for an intended change
of behaviour, and say why in CHANGES.md.

The small artifacts are also kept as files under `tests/golden/<agent>/`,
each the file its digest pins, so a failure prints a unified diff of what
moved. Traces and `mlp.txt` are pinned by digest alone.
"""

import difflib
import hashlib
from fnmatch import fnmatch
from pathlib import Path

import pytest

from lnnrl.agent import scripted_rule_networks
from lnnrl.cli import main
from lnnrl.harness import ExperimentConfig, run_experiment
from lnnrl.lnn import save_network

RUN = dict(difficulty="medium", epochs=30, eval_interval=10, n_seeds=2,
           n_train_games=8, n_test_per_level=2, base_seed=31)

PATTERNS = ("metrics.csv", "rules_seed*.txt", "trace_seed*.txt", "seed*/*.lnn", "seed*/mlp.txt")

GOLDEN = {
    "lnn": {
        "metrics.csv": "ce02e342bfa19e41e6b5e2e86423e3efc4860aa9986c9ba1bfa678605329997a",
        "rules_seed0.txt": "7ae256ccf54c5f6805292278cac20417b15bde70d29543692c3a6156e2f2c1bd",
        "rules_seed1.txt": "7ae256ccf54c5f6805292278cac20417b15bde70d29543692c3a6156e2f2c1bd",
        "trace_seed0.txt": "1a809adec370e372e8e4a4a4096ea8782d4cd06d771836426773068d08c8ed18",
        "trace_seed1.txt": "64476b3615d337b3c839ca998651c04c8e0db31f6583be0c35984277a6cc5c24",
        "seed0/direction.lnn": "0e8098660266170cfdc0938a9c31c5d52dca10b4b1f6f79c12cfb716bb82fbf2",
        "seed0/money.lnn": "0f798d5c7629815069868d2d69d21e1c3851ba38bd412c96cd828c4dab7e8882",
        "seed1/direction.lnn": "d716ecd3257c86ed034fb7d8c35018cfc5e1f7834632b17392b7f2e3e216ba3b",
        "seed1/money.lnn": "3df08a1fa8b608f0e5c4943d91b14e6bea36e54516cdd4ca75295945209f3561",
    },
    "nn": {
        "metrics.csv": "c78afa6b25a648cc8fb570168e0347b6a08db984d7c8da1f758cc766f49dd4bc",
        "trace_seed0.txt": "de03b6c2bc619ff5ce0ee686c3d4b45a1196851a00c127c491b3045e5a117f22",
        "trace_seed1.txt": "5f271746366c02d9eac9176c0d4bd704ee42380ee3c7a0201aa1aa7e0d09d909",
        "seed0/mlp.txt": "70f5babefc62e6e02b83082c7dd15385aac0d0db86c349b34bbab370d4f4c816",
        "seed1/mlp.txt": "7272af0facb3f6a19c914f8d0331f89141dd54d567ee357d66cb38c33e6f02d1",
    },
}

ORACLE_HARD_EVAL = "test games: 20  mean_reward=0.900000  mean_steps=44.250000\n"

GOLDEN_DIR = Path(__file__).parent / "golden"

#: pinned by digest alone: 300-420 KB traces and a 49 KB checkpoint
DIGEST_ONLY = ("trace_seed*.txt", "seed*/mlp.txt")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def kept_files(agent):
    """Each pinned artifact of `agent` kept as a file, by name: the file."""
    return {name: GOLDEN_DIR / agent / name for name in GOLDEN[agent]
            if not any(fnmatch(name, pattern) for pattern in DIGEST_ONLY)}


def moved(agent, name, want: bytes, got: bytes | None) -> str:
    """What moved in `name`, as a unified diff of the kept file and the run's."""
    if got is None:
        return f"{name}: the run wrote no such file"
    diff = difflib.unified_diff(want.decode("utf-8").splitlines(keepends=True),
                                got.decode("utf-8", "replace").splitlines(keepends=True),
                                f"tests/golden/{agent}/{name}", f"run/{name}")
    return f"{name} moved:\n" + "".join(diff)


@pytest.mark.parametrize("agent", sorted(GOLDEN))
def test_training_artifacts_match_pins(agent, tmp_path):
    run_experiment(ExperimentConfig(agent=agent, **RUN), tmp_path, trace=True)
    moves = []
    for name, path in kept_files(agent).items():
        # the kept file is the pinned one, so a diff against it is a diff against the pin
        want, produced = path.read_bytes(), tmp_path / name
        assert sha256(want) == GOLDEN[agent][name], f"{path} is not the pinned file"
        got = produced.read_bytes() if produced.is_file() else None
        if got != want:
            moves.append(moved(agent, name, want, got))
    if moves:
        pytest.fail("\n".join(moves), pytrace=False)
    digests = {
        path.relative_to(tmp_path).as_posix(): sha256(path.read_bytes())
        for pattern in PATTERNS
        for path in sorted(tmp_path.glob(pattern))
    }
    assert digests == GOLDEN[agent]


def test_oracle_eval_line_on_hard_maps_matches_pin(tmp_path, capsys):
    config = ExperimentConfig(difficulty="hard", n_test_per_level=4, n_seeds=1, base_seed=7)
    (tmp_path / "config.txt").write_text(config.to_text(), encoding="utf-8")
    (tmp_path / "seed0").mkdir()
    for category, net in scripted_rule_networks().items():
        save_network(net, tmp_path / "seed0" / f"{category}.lnn")
    assert main(["eval", "--run-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ORACLE_HARD_EVAL
