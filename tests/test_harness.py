"""Experiment config parsing, seeding, metrics emission, and run comparison."""

import gc
import math
import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnnrl.harness import (
    AGENT_KINDS,
    RUN_FILES,
    ConfigError,
    ExperimentConfig,
    build_game_sets,
    compare_runs,
    moving_average,
    parse_key_value_text,
    read_metrics_csv,
    run_experiment,
)
from lnnrl.agent import DqnAgent, TrainerConfig
from lnnrl.worldsim import DIFFICULTIES, GameSpec, InvalidSpecError
from test_golden import run_files


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
        tiny_config(test_levels=(1, 2, 1))


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
        # a list is kept as the tuple a config file reads back
        test_levels=draw(st.sampled_from([list, tuple]))(levels),
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
    assert ExperimentConfig.from_pairs(parse_key_value_text(config.to_text())) == config


# ---------------------------------------------------------------------------
# checks made when a record is made, against the checks callers used to run
# ---------------------------------------------------------------------------


def reference_validate_spec(spec) -> None:
    """`GameSpec`'s rules as a separate check on its fields, the one its
    callers used to run: the reference a spec's own check must agree with."""
    if spec.difficulty not in DIFFICULTIES:
        raise InvalidSpecError(f"difficulty must be one of {DIFFICULTIES}, got {spec.difficulty!r}")
    if spec.level < 1:
        raise InvalidSpecError(f"level must be >= 1, got {spec.level}")
    if spec.max_episode_steps < spec.level + 1:
        raise InvalidSpecError(
            f"max_episode_steps={spec.max_episode_steps} cannot fit an optimal "
            f"episode of level {spec.level}"
        )


def reference_validate(config) -> None:
    """`ExperimentConfig`'s rules as a separate check on its fields, the one
    its callers used to run: the reference a config's own check must agree
    with, but for the difficulty text."""
    if config.difficulty not in DIFFICULTIES:
        raise ConfigError(f"difficulty must be one of {DIFFICULTIES}")
    if config.agent not in AGENT_KINDS:
        raise ConfigError(f"agent must be one of {AGENT_KINDS}")
    for name in ("n_train_games", "n_test_per_level", "eval_interval", "n_seeds",
                 "moving_average_window"):
        if getattr(config, name) <= 0:
            raise ConfigError(f"{name} must be positive")
    if not config.test_levels:
        raise ConfigError("test_levels must not be empty")
    if len(set(config.test_levels)) != len(config.test_levels):
        raise ConfigError(f"test_levels must be distinct, got {config.test_levels}")
    if config.epochs < 0:
        raise ConfigError(f"epochs must be nonnegative (0 means the default), got {config.epochs}")
    if not math.isfinite(config.rule_weight_threshold):
        raise ConfigError(f"rule_weight_threshold must be finite, got {config.rule_weight_threshold}")
    for level in (config.train_level, *config.test_levels):
        try:
            reference_validate_spec(SimpleNamespace(difficulty=config.difficulty, level=level,
                                                    max_episode_steps=config.max_episode_steps))
        except InvalidSpecError as exc:
            raise ConfigError(str(exc)) from exc


def fault(make, fields: dict):
    """The type and message of what `make(**fields)` raises, or None."""
    try:
        make(**fields)
    except (ConfigError, InvalidSpecError) as exc:
        return type(exc), str(exc)
    return None


SMALL = st.integers(-1, 3)
LEVEL_LISTS = st.lists(st.integers(-1, 8), max_size=4)

SPEC_FIELDS = st.fixed_dictionaries({
    "difficulty": st.sampled_from([*DIFFICULTIES, "nightmare", ""]),
    "level": st.integers(-1, 8),
    "seed": st.integers(-(2**63), 2**63),
    "max_episode_steps": st.integers(-1, 10),
})

CONFIG_FIELDS = st.fixed_dictionaries({
    "difficulty": st.sampled_from([*DIFFICULTIES, "nightmare"]),
    "agent": st.sampled_from([*AGENT_KINDS, "cnn"]),
    "n_train_games": SMALL,
    "train_level": st.integers(-1, 8),
    "test_levels": st.one_of(LEVEL_LISTS, LEVEL_LISTS.map(tuple)),
    "n_test_per_level": SMALL,
    "epochs": SMALL,
    "eval_interval": SMALL,
    "n_seeds": SMALL,
    "max_episode_steps": st.integers(-1, 10),
    "moving_average_window": SMALL,
    "rule_weight_threshold": st.floats() | st.sampled_from([0.55, math.inf, math.nan]),
})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fields=SPEC_FIELDS)
def test_a_spec_is_refused_when_made_exactly_as_its_old_check_refused_it(fields):
    made = fault(GameSpec, fields)
    assert made == fault(lambda **f: reference_validate_spec(SimpleNamespace(**f)), fields)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(fields=CONFIG_FIELDS)
def test_a_config_is_refused_when_made_exactly_as_its_old_check_refused_it(fields):
    made = fault(ExperimentConfig, fields)
    # a config keeps its levels as a tuple, so its messages show one
    reference = fault(lambda **f: reference_validate(SimpleNamespace(**f)),
                      {**fields, "test_levels": tuple(fields["test_levels"])})
    assert (made is None) == (reference is None)
    if made is not None:
        assert made[0] is reference[0] is ConfigError
        if fields["difficulty"] in DIFFICULTIES:
            assert made[1] == reference[1]
        else:
            # the difficulty rule is now the games' own, checked after every
            # other field, and its text names the value
            allowed = {reference[1] + f", got {fields['difficulty']!r}"}
            other = fault(ExperimentConfig, {**fields, "difficulty": "easy"})
            if other is not None:
                allowed.add(other[1])
            assert made[1] in allowed


def byte_edits(original: bytes, extra: bytes = b"") -> st.SearchStrategy:
    """`original` after 1-3 byte-level edits (a deletion, an insertion or an
    overwrite) at positions drawn evenly. Each new byte is one of `extra`
    half the time, else one of the file's own bytes, `extra`, 0xC3 (a UTF-8
    lead byte that no ASCII byte may follow) and 0xFF (never UTF-8)."""
    alphabet = sorted(set(original) | set(extra) | {0xC3, 0xFF})
    byte = st.sampled_from(alphabet)
    if extra:
        byte = st.sampled_from(sorted(set(extra))) | byte
    edit = st.tuples(st.sampled_from(("delete", "insert", "overwrite")),
                     st.sampled_from(range(len(original) + 1)), byte)

    def apply(edits) -> bytes:
        data = bytearray(original)
        for kind, at, byte in edits:
            if kind == "insert" or not data:
                data.insert(min(at, len(data)), byte)
            elif kind == "delete":
                del data[at % len(data)]
            else:
                data[at % len(data)] = byte
        return bytes(data)

    return st.lists(edit, min_size=1, max_size=3).map(apply)


CONFIG_BYTES = tiny_config().to_text().encode("utf-8")
NUMBER_BYTES = b"0123456789.,+-_e"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=byte_edits(CONFIG_BYTES, NUMBER_BYTES))
def test_a_mutated_config_file_reads_to_a_config_or_a_config_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated_config.txt"
    path.write_bytes(data)
    try:
        config = ExperimentConfig.from_file(path)
    except ConfigError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)
        return
    assert ExperimentConfig.from_pairs(parse_key_value_text(config.to_text())) == config
    if data == CONFIG_BYTES:
        assert config == tiny_config()


def test_config_file_faults_are_config_errors_naming_the_file(tmp_path):
    path = tmp_path / "config.txt"
    path.write_bytes(b"epochs=8\nn_seeds=\xff\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: byte 17 is not UTF-8"):
        ExperimentConfig.from_file(path)
    # TrainerConfig checks its own domain with a ValueError
    path.write_text("epsilon_start=71.0\n", encoding="utf-8")
    message = f"{path}: epsilon_start must lie in [0, 1], got 71.0"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ExperimentConfig.from_file(path)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))} with its overrides: "):
        ExperimentConfig.from_file(path, {"epsilon_start": "0.5", "gamma": "2"})


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
    result = run_experiment(tiny_config(), tmp_path / "run", trace=True)
    assert result.csv_path.exists()
    lines = result.csv_path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["epoch", "reward_mean", "steps_mean"]
    assert "reward_seed0" in header and "steps_seed1" in header
    epochs = [int(float(line.split(",")[0])) for line in lines[1:]]
    assert epochs == sorted(epochs) == [4, 8]
    run_files(tmp_path / "run", "lnn")
    assert result.rules_paths == [tmp_path / "run" / f"rules_seed{k}.txt" for k in range(2)]


def test_experiment_is_byte_identical_across_runs(tmp_path):
    config = tiny_config(base_seed=5)
    for name in "ab":
        run_experiment(config, tmp_path / name, trace=True)
    assert run_files(tmp_path / "a", "lnn") == run_files(tmp_path / "b", "lnn")


def test_nn_experiment_writes_mlp_checkpoint(tmp_path):
    result = run_experiment(tiny_config(agent="nn", n_seeds=1), tmp_path / "nn", trace=True)
    run_files(tmp_path / "nn", "nn")
    assert result.rules_paths == []


@pytest.mark.parametrize("agent", AGENT_KINDS)
def test_a_finished_seed_frees_its_trainer(agent, tmp_path):
    result = run_experiment(tiny_config(agent=agent, n_seeds=2), tmp_path / agent)
    gc.collect()
    # nothing keeps a seed's trainer, and the results keep its scorer
    assert not [obj for obj in gc.get_objects() if isinstance(obj, DqnAgent)]
    assert all(seed.scorer is not None for seed in result.seeds)


@pytest.mark.parametrize("pattern", sorted({p for patterns in RUN_FILES.values() for p in patterns}))
def test_a_directory_holding_a_run_file_is_refused_before_anything_is_written(pattern, tmp_path):
    """A file of either agent's run refuses both agents' runs, by name."""
    held = tmp_path / "out" / pattern.replace("*", "0")
    held.parent.mkdir(parents=True)
    held.write_text("kept", encoding="utf-8")
    for agent in AGENT_KINDS:
        with pytest.raises(ConfigError, match=re.escape(str(held))):
            run_experiment(tiny_config(agent=agent), tmp_path / "out")
    assert [p for p in (tmp_path / "out").rglob("*") if p.is_file()] == [held]
    assert held.read_text(encoding="utf-8") == "kept"


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
        compare_runs(b, b)


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
