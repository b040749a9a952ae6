"""Experiment config parsing, seeding, metrics emission, and run comparison."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnnrl.harness import (
    ConfigError,
    ExperimentConfig,
    build_game_sets,
    compare_runs,
    first_crossing,
    moving_average,
    parse_key_value_text,
    read_metrics_csv,
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


def test_a_repeated_config_key_names_its_line():
    with pytest.raises(ConfigError, match=r"^run/config\.txt:3: repeated key 'n_seeds'$"):
        parse_key_value_text("n_seeds=2\n# comment\nn_seeds=3", source="run/config.txt")
    with pytest.raises(ConfigError, match=":2:"):
        parse_key_value_text("epochs=1\n  epochs = 1\n")


def test_an_empty_test_level_is_rejected():
    for raw in ("5,,10", "5,10,", ",5", ""):
        with pytest.raises(ConfigError, match="test_levels"):
            ExperimentConfig.from_pairs({"test_levels": raw})


# `int` and `float` read each of these, but no writer writes them
NON_CANONICAL_NUMBERS = {
    "epochs": "1_0",
    "n_seeds": "\u0663",
    "train_level": "+5",
    "max_episode_steps": "0100",
    "test_levels": "5, 10",
    "gate_cap": "1_6",
    "learning_rate": "0_5",
    "gamma": "\u0660.\u0665",
}


@pytest.mark.parametrize("key", sorted(NON_CANONICAL_NUMBERS))
def test_a_number_off_its_canonical_form_is_rejected(key):
    raw = NON_CANONICAL_NUMBERS[key]
    with pytest.raises(ConfigError, match=f"^{re.escape(f'bad value {raw!r} for {key}')}$"):
        ExperimentConfig.from_pairs({key: raw})


def test_repeated_test_levels_are_rejected():
    with pytest.raises(ConfigError, match="distinct"):
        ExperimentConfig.from_pairs({"test_levels": "5,5"})
    with pytest.raises(ConfigError, match="distinct"):
        tiny_config(test_levels=(1, 2, 1)).validate()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    levels = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True))
    train_level = draw(st.integers(1, 40))
    trainer = TrainerConfig(
        gamma=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        batch_size=draw(st.integers(1, 64)),
        update_period=draw(st.integers(1, 64)),
        epsilon_start=draw(st.floats(0.0, 1.0)),
        epsilon_end=draw(st.floats(0.0, 1.0)),
        epsilon_anneal_epochs=draw(st.integers(1, 10**6)),
        bonus_coefficient=draw(st.floats(0.0, 1e6)),
        learning_rate=draw(st.floats(0.0, 10.0)),
        replay_capacity=draw(st.integers(1, 10**6)),
        priority_fraction=draw(st.floats(0.0, 1.0)),
        target_update_period=draw(st.integers(1, 10**4)),
        alpha=draw(st.floats(0.5, 1.0)),
        gate_cap=draw(st.integers(1, 10**4)),
    )
    return ExperimentConfig(
        difficulty=draw(st.sampled_from(["easy", "medium", "hard"])),
        agent=draw(st.sampled_from(["lnn", "nn"])),
        n_train_games=draw(st.integers(1, 10**4)),
        train_level=train_level,
        test_levels=tuple(levels),
        n_test_per_level=draw(st.integers(1, 10**4)),
        epochs=draw(st.integers(0, 10**6)),
        eval_interval=draw(st.integers(1, 10**4)),
        n_seeds=draw(st.integers(1, 100)),
        base_seed=draw(st.integers(-(2**63), 2**63)),
        max_episode_steps=max(train_level, *levels) + 1 + draw(st.integers(0, 1000)),
        moving_average_window=draw(st.integers(1, 100)),
        rule_weight_threshold=draw(FINITE),
        trainer=trainer,
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(config=valid_configs())
def test_config_text_round_trips(config):
    config.validate()
    assert ExperimentConfig.from_pairs(parse_key_value_text(config.to_text())) == config


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


@pytest.mark.parametrize("row", ["30,0.95", "30,0.95,20.0,7", "30,0.95,x",
                                 "30,nan,20.0", "30,inf,20.0", "30,0.95,-inf",
                                 "3_0,0.95,20.0", "30,0.9_5,20.0", "30,\u0660.9,20.0"])
def test_rows_must_match_the_header_width(tmp_path, row):
    path = tmp_path / "m.csv"
    write_csv(path, [(10, 0.5, 90.0), (20, 0.6, 80.0)])
    path.write_text(path.read_text(encoding="utf-8") + row + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"m\.csv:4"):
        read_metrics_csv(path)
    with pytest.raises(ValueError, match=r"m\.csv:4"):
        compare_runs(path, path)


def test_compare_parses_each_metrics_file_once(tmp_path, monkeypatch):
    import lnnrl.harness as harness

    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, [(10, 0.5, 90.0), (20, 0.95, 20.0)])
    write_csv(b, [(10, 0.95, 20.0)])
    reads = []

    def counting_read(path):
        reads.append(path)
        return read_metrics_csv(path)

    monkeypatch.setattr(harness, "read_metrics_csv", counting_read)
    report = harness.compare_runs(a, b, threshold=0.9)
    assert (report.first_epoch_a, report.first_epoch_b) == (20, 10)
    assert reads == [a, b]
