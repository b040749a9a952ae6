"""CLI subcommands exercised through main()."""

import shutil

import pytest

from lnnrl.cli import main


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


def test_train_rejects_unknown_key(tmp_path, capsys):
    assert main(["train", "--out", str(tmp_path / "x"), "--set", "bogus=1"]) == 2
    assert "unknown config key" in capsys.readouterr().err


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

def test_rules_prints_quantified_notation(tiny_run, capsys):
    assert main(["rules", "--run-dir", str(tiny_run)]) == 0
    out = capsys.readouterr().out
    assert "∃x ∈ W_direction" in out
    assert "⟪" in out and "→" in out


def test_compare_reports_crossings(tiny_run, tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_bytes((tiny_run / "metrics.csv").read_bytes())
    assert main(["compare", str(tiny_run / "metrics.csv"), str(other),
                 "--threshold", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "threshold 0.5" in out


def test_play_session(monkeypatch, capsys):
    commands = iter(["facts", "help", "go coin", "fly", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(commands))
    assert main(["play", "--difficulty", "easy", "--level", "2", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "find north = " in out                     # facts dump, 26 lines
    assert out.count(" = ") >= 26
    assert "commands: go <direction>" in out          # help text twice
    assert "invalid action: go coin" in out           # invalid action notice
