"""Experiment config parsing, seeding, metrics emission, and run comparison."""

import pytest

from lnnrl.harness import (
    ConfigError,
    ExperimentConfig,
    build_game_sets,
    compare_runs,
    first_crossing,
    moving_average,
    parse_key_value_text,
    run_experiment,
)
from lnnrl.agent import TrainerConfig


TINY = dict(
    difficulty="easy",
    epochs=8,
    eval_interval=4,
    n_train_games=4,
    n_test_per_level=2,
    test_levels=(1, 2),
    n_seeds=2,
)


def tiny_config(**overrides):
    return ExperimentConfig(**{**TINY, **overrides})


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_file_round_trip(tmp_path):
    config = tiny_config(base_seed=7)
    path = tmp_path / "config.txt"
    path.write_text(config.to_text(), encoding="utf-8")
    loaded = ExperimentConfig.from_file(path)
    assert loaded == config


def test_config_overrides_win(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("difficulty=easy\nepochs=8\n", encoding="utf-8")
    config = ExperimentConfig.from_file(path, {"difficulty": "medium", "gamma": "0.8"})
    assert config.difficulty == "medium"
    assert config.trainer.gamma == 0.8


def test_config_parses_lists_and_trainer_fields():
    config = ExperimentConfig.from_pairs(
        {"test_levels": "1,2,3", "learning_rate": "0.01", "n_seeds": "1"}
    )
    assert config.test_levels == (1, 2, 3)
    assert config.trainer.learning_rate == 0.01


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_pairs({"not_a_key": "1"})


def test_bad_config_values_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_pairs({"epochs": "many"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_pairs({"difficulty": "brutal"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_pairs({"agent": "transformer"})


def test_key_value_parser_reports_line():
    with pytest.raises(ConfigError, match=":2:"):
        parse_key_value_text("a=1\nnot a pair\n")


def test_default_epochs_follow_difficulty():
    assert ExperimentConfig(difficulty="easy").resolved_epochs() == 200
    assert ExperimentConfig(difficulty="medium").resolved_epochs() == 500
    assert ExperimentConfig(difficulty="medium", epochs=77).resolved_epochs() == 77


# ---------------------------------------------------------------------------
# game sets
# ---------------------------------------------------------------------------


def test_game_sets_are_disjoint_and_sized():
    config = ExperimentConfig(n_train_games=50, n_test_per_level=10)
    train, test = build_game_sets(config, run_seed=123)
    assert len(train) == 50 and len(test) == 50
    assert all(s.level == 5 for s in train)
    assert sorted({s.level for s in test}) == [5, 10, 15, 20, 25]
    assert not ({(s.level, s.seed) for s in train} & {(s.level, s.seed) for s in test})


def test_overlapping_game_sets_raise(monkeypatch):
    import lnnrl.harness as harness

    monkeypatch.setattr(harness, "derive_seed", lambda *parts: 1)
    with pytest.raises(ConfigError, match="overlap"):
        build_game_sets(ExperimentConfig(), run_seed=1)


# ---------------------------------------------------------------------------
# metrics helpers
# ---------------------------------------------------------------------------


def test_moving_average_window_one_is_identity():
    values = [0.1, 0.9, 0.4]
    assert moving_average(values, 1) == values


def test_moving_average_matches_hand_computation():
    values = [1.0, 0.0, 1.0, 1.0]
    assert moving_average(values, 2) == [1.0, 0.5, 0.5, 1.0]
    assert moving_average(values, 3) == [1.0, 0.5, 2.0 / 3.0, 2.0 / 3.0]


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def test_tiny_experiment_writes_all_artifacts(tmp_path):
    result = run_experiment(tiny_config(), tmp_path / "run")
    assert result.csv_path.exists()
    lines = result.csv_path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["epoch", "reward_mean", "steps_mean"]
    assert "reward_seed0" in header and "steps_seed1" in header
    epochs = [int(float(line.split(",")[0])) for line in lines[1:]]
    assert epochs == sorted(epochs) == [4, 8]
    for k in range(2):
        assert (tmp_path / "run" / f"seed{k}" / "direction.lnn").exists()
        assert (tmp_path / "run" / f"seed{k}" / "money.lnn").exists()
        assert (tmp_path / "run" / f"rules_seed{k}.txt").exists()
    assert (tmp_path / "run" / "config.txt").exists()


def test_experiment_is_byte_identical_across_runs(tmp_path):
    config = tiny_config(base_seed=5)
    a = run_experiment(config, tmp_path / "a")
    b = run_experiment(config, tmp_path / "b")
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
    for k in range(config.n_seeds):
        assert (tmp_path / "a" / f"rules_seed{k}.txt").read_bytes() == \
            (tmp_path / "b" / f"rules_seed{k}.txt").read_bytes()
        for name in ("direction.lnn", "money.lnn"):
            assert (tmp_path / "a" / f"seed{k}" / name).read_bytes() == \
                (tmp_path / "b" / f"seed{k}" / name).read_bytes()


def test_nn_experiment_writes_mlp_checkpoint(tmp_path):
    result = run_experiment(tiny_config(agent="nn", n_seeds=1), tmp_path / "nn")
    assert (tmp_path / "nn" / "seed0" / "mlp.txt").exists()
    assert result.rules_paths == []


def test_trace_files_written_on_request(tmp_path):
    run_experiment(tiny_config(n_seeds=1, epochs=4), tmp_path / "t", trace=True)
    trace = (tmp_path / "t" / "trace_seed0.txt").read_text(encoding="utf-8")
    assert trace.startswith("epoch=1 step=")


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------


def write_csv(path, rows):
    lines = ["epoch,reward_mean,steps_mean"]
    lines += [f"{e},{r:.6f},{s:.6f}" for e, r, s in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_identical_files_cross_at_the_same_epoch(tmp_path):
    path = tmp_path / "m.csv"
    write_csv(path, [(10, 0.5, 90.0), (20, 0.95, 20.0)])
    report = compare_runs(path, path, threshold=0.9)
    assert report.first_epoch_a == report.first_epoch_b == 20
    assert "difference: 0" in report.render()


def test_never_crossing_reports_not_reached(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, [(10, 0.95, 20.0)])
    write_csv(b, [(10, 0.1, 99.0), (20, 0.2, 95.0)])
    report = compare_runs(a, b, threshold=0.9)
    assert report.first_epoch_a == 10
    assert report.first_epoch_b is None
    assert "not reached" in report.render()


def test_schema_mismatch_is_an_error(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, [(10, 0.95, 20.0)])
    b.write_text("epoch,other\n10,1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="schema"):
        compare_runs(a, b)
    with pytest.raises(ValueError, match="schema"):
        first_crossing(b, 0.9)
