"""CLI subcommands exercised through main()."""

import shutil

import pytest

from lnnrl.cli import _parse_overrides, main
from lnnrl.harness import ExperimentConfig


def test_generate_prints_spec_and_adjacency(capsys):
    assert main(["generate", "--difficulty", "medium", "--level", "3",
                 "--seed", "4", "--adjacency"]) == 0
    out = capsys.readouterr().out
    assert "difficulty=medium level=3 seed=4 max_steps=100" in out
    assert "# medium level=3 seed=4" in out
    assert "start=0 coin=3" in out


def test_generate_count_emits_multiple_specs(capsys):
    assert main(["generate", "--count", "3", "--level", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3
    assert out[0] != out[1]


def test_generate_rejects_level_zero(capsys):
    assert main(["generate", "--level", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_generate_rejects_a_count_below_one(capsys, count):
    assert main(["generate", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: --count must be at least 1, got {count}\n"


TINY_ARGS = [
    "--set", "difficulty=easy", "--set", "epochs=6", "--set", "eval_interval=3",
    "--set", "n_train_games=3", "--set", "n_test_per_level=1",
    "--set", "test_levels=1,2", "--set", "n_seeds=1",
]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "exp"
    assert main(["train", "--out", str(out)] + TINY_ARGS) == 0
    return out


def test_train_writes_metrics_and_rules(tiny_run, capsys):
    assert (tiny_run / "metrics.csv").exists()
    assert (tiny_run / "rules_seed0.txt").exists()
    assert (tiny_run / "seed0" / "direction.lnn").exists()


def test_train_onto_an_existing_file_is_a_typed_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    assert main(["train", "--out", str(out)] + TINY_ARGS) == 2
    assert "error:" in capsys.readouterr().err


def test_train_rejects_unknown_key(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "x"), "--set", "bogus=1"]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "learning_rate=nan", "learning_rate=-1", "learning_rate=inf",
    "epsilon_start=-0.5", "epsilon_end=7",
    "bonus_coefficient=-1", "bonus_coefficient=nan",
    "alpha=0.3", "alpha=nan",
    "test_levels=0", "max_episode_steps=3", "epochs=-3", "rule_weight_threshold=nan",
])
def test_train_rejects_out_of_domain_trainer_values(tmp_path, capsys, setting):
    out = tmp_path / "x"
    # the setting comes last so TINY_ARGS cannot override it
    assert main(["train", "--out", str(out)] + TINY_ARGS + ["--set", setting]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["epochs=1_0", "n_seeds=\u0663", "learning_rate=0_5",
                                     "gate_cap=016", "test_levels=1,+2"])
def test_train_rejects_a_number_off_its_canonical_form(tmp_path, capsys, setting):
    out = tmp_path / "x"
    assert main(["train", "--out", str(out), "--set", setting]) == 2
    key, _, raw = setting.partition("=")
    assert capsys.readouterr().err == f"error: bad value {raw!r} for {key}\n"
    assert not out.exists()


def test_eval_reports_test_metrics(tiny_run, capsys):
    assert main(["eval", "--run-dir", str(tiny_run)]) == 0
    out = capsys.readouterr().out
    assert "mean_reward=" in out and "mean_steps=" in out



def test_eval_on_truncated_checkpoint_is_a_typed_error(tiny_run, tmp_path, capsys):
    run_dir = tmp_path / "damaged"
    shutil.copytree(tiny_run, run_dir)
    checkpoint = run_dir / "seed0" / "direction.lnn"
    checkpoint.write_text("\n".join(checkpoint.read_text(encoding="utf-8").splitlines()[:9]) + "\n",
                          encoding="utf-8")
    assert main(["eval", "--run-dir", str(run_dir)]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_on_an_or_weight_above_one_is_a_typed_error(tiny_run, tmp_path, capsys):
    run_dir = tmp_path / "out_of_domain"
    shutil.copytree(tiny_run, run_dir)
    checkpoint = run_dir / "seed0" / "money.lnn"
    lines = checkpoint.read_text(encoding="utf-8").splitlines()
    assert lines[-1].startswith("or bias ") and len(lines[-1].split()) > 4
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " 2.5"
    checkpoint.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["eval", "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "money.lnn" in err and "above 1" in err


def rewrite(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")


def swap_files(seed_dir):
    direction, money = seed_dir / "direction.lnn", seed_dir / "money.lnn"
    texts = direction.read_bytes(), money.read_bytes()
    direction.write_bytes(texts[1])
    money.write_bytes(texts[0])


# each leaves a seed directory of individually well-formed checkpoints that
# does not match the run-directory contract
RUN_DIR_FAULTS = {
    "missing_category": lambda d: (d / "money.lnn").unlink(),
    "extra_file": lambda d: shutil.copy(d / "money.lnn", d / "metal.lnn"),
    "misnamed_file": lambda d: (d / "money.lnn").rename(d / "coin.lnn"),
    "swapped_files": swap_files,
    "permuted_literals": lambda d: rewrite(d / "money.lnn", "literals find_x not_find_x",
                                           "literals not_find_x find_x"),
    "foreign_verb": lambda d: rewrite(d / "money.lnn", "verb take", "verb go"),
    "gates_over_cap": lambda d: rewrite(d / "money.lnn", "gate_cap 16", "gate_cap 0"),
}


@pytest.mark.parametrize("fault", sorted(RUN_DIR_FAULTS))
def test_eval_rejects_a_run_directory_off_contract(tiny_run, tmp_path, capsys, fault):
    run_dir = tmp_path / "damaged"
    shutil.copytree(tiny_run, run_dir)
    RUN_DIR_FAULTS[fault](run_dir / "seed0")
    assert main(["eval", "--run-dir", str(run_dir)]) == 2
    assert "error:" in capsys.readouterr().err


# each leaves config.txt well-formed line by line, but not one value per key,
# not one game set per test level, or a number off its canonical form
CONFIG_FAULTS = {
    "repeated_key": lambda text: text + "n_seeds=3\n",
    "empty_test_level": lambda text: text.replace("test_levels=1,2", "test_levels=1,,2"),
    "repeated_test_level": lambda text: text.replace("test_levels=1,2", "test_levels=1,1"),
    "signed_test_level": lambda text: text.replace("test_levels=1,2", "test_levels=1,+2"),
    "non_ascii_seed_count": lambda text: text.replace("n_seeds=1\n", "n_seeds=\u0661\n"),
}


@pytest.mark.parametrize("command", ["eval", "rules", "play"])
@pytest.mark.parametrize("fault", sorted(CONFIG_FAULTS))
def test_commands_reject_a_config_off_contract(tiny_run, tmp_path, monkeypatch, capsys,
                                               command, fault):
    monkeypatch.setattr("builtins.input", lambda prompt="": "quit")
    run_dir = tmp_path / "damaged"
    shutil.copytree(tiny_run, run_dir)
    config = run_dir / "config.txt"
    damaged = CONFIG_FAULTS[fault](config.read_text(encoding="utf-8"))
    assert damaged != config.read_text(encoding="utf-8")
    config.write_text(damaged, encoding="utf-8")
    assert main([command, "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("test_levels" in err or "n_seeds" in err)


def test_a_repeated_set_key_is_rejected(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--out", str(out), "--set", "epochs=1", "--set", "epochs=2"]) == 2
    assert capsys.readouterr().err == "error: --set epochs given twice\n"
    assert not out.exists()
    # overriding a key of the config file stays legal
    config = tmp_path / "config.txt"
    config.write_text("epochs=5\nn_seeds=2\n", encoding="utf-8")
    assert _parse_overrides(["epochs=1"]) == {"epochs": "1"}
    assert ExperimentConfig.from_file(config, _parse_overrides([" epochs = 1"])).epochs == 1


def test_rules_prints_quantified_notation(tiny_run, capsys):
    assert main(["rules", "--run-dir", str(tiny_run)]) == 0
    out = capsys.readouterr().out
    assert "∃x ∈ W_direction" in out
    assert "⟪" in out and "→" in out


def test_rules_default_to_the_run_threshold(tmp_path, capsys):
    out = tmp_path / "exp"
    assert main(["train", "--out", str(out)] + TINY_ARGS
                + ["--set", "rule_weight_threshold=0.0"]) == 0
    capsys.readouterr()
    assert main(["rules", "--run-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed == (out / "rules_seed0.txt").read_text(encoding="utf-8")
    # the run's threshold, not the library default, makes the difference
    assert main(["rules", "--run-dir", str(out), "--threshold", "0.55"]) == 0
    assert capsys.readouterr().out != printed


def test_compare_reports_crossings(tiny_run, tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_bytes((tiny_run / "metrics.csv").read_bytes())
    assert main(["compare", str(tiny_run / "metrics.csv"), str(other),
                 "--threshold", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "threshold 0.5" in out


def test_compare_on_a_directory_is_a_typed_error(tiny_run, capsys):
    assert main(["compare", str(tiny_run), str(tiny_run / "metrics.csv")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["rules", "compare"])
def test_non_finite_thresholds_are_rejected(tiny_run, capsys, command, value):
    metrics = str(tiny_run / "metrics.csv")
    args = {"rules": ["rules", "--run-dir", str(tiny_run)],
            "compare": ["compare", metrics, metrics]}[command]
    assert main(args + ["--threshold", value]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def tiny_mlp_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "mlp"
    assert main(["train", "--out", str(out)] + TINY_ARGS + ["--set", "agent=nn"]) == 0
    return out


@pytest.mark.parametrize("command", ["eval", "rules", "play"])
def test_commands_reading_networks_name_an_mlp_run(tiny_mlp_run, monkeypatch, capsys, command):
    monkeypatch.setattr("builtins.input", lambda prompt="": "quit")
    assert main([command, "--run-dir", str(tiny_mlp_run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "agent=nn" in err
    assert "logic-network checkpoints" in err


def test_play_session(monkeypatch, capsys):
    commands = iter(["facts", "help", "go coin", "fly", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(commands))
    assert main(["play", "--difficulty", "easy", "--level", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "find north = " in out                     # facts dump, 26 lines
    assert out.count(" = ") >= 26
    assert "commands: go <direction>" in out          # help text twice
    assert "invalid action: go coin" in out           # invalid action notice
