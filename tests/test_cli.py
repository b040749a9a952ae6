"""CLI subcommands exercised through main()."""

import contextlib
import io
import os
import random
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import run_files
from test_harness import NUMBER_BYTES, byte_edits

import lnnrl
from lnnrl import cli, harness
from lnnrl.agent import DqnAgent, LnnScorer, enumerate_candidates, run_episode, scripted_rule_networks
from lnnrl.cli import _parse_overrides, main
from lnnrl.factextract import AgentMap, extract_propositions, parse_observation
from lnnrl.harness import ExperimentConfig, build_game_sets, evaluate, load_networks
from lnnrl.lexicon import default_lexicon
from lnnrl.lnn import save_network
from lnnrl.rng import derive_seed
from lnnrl.worldsim import GameSpec, generate_game, reset


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


# `int` and `float` read each of these; the file readers refuse them all
OFF_FORM_INTS = ["1_0", "+1", "064", "\u0663"]
OFF_FORM_FLOATS = ["0_5", "\u0660.5", "\u0663"]

# flag -> (the command line up to the flag, the values to refuse)
NUMBER_FLAGS = {
    "level": (["generate", "--level"], OFF_FORM_INTS),
    "seed": (["play", "--seed"], OFF_FORM_INTS),
    "count": (["generate", "--count"], OFF_FORM_INTS),
    "max-steps": (["generate", "--max-steps"], OFF_FORM_INTS),
    "seed-index": (["eval", "--run-dir", "unread", "--seed-index"], OFF_FORM_INTS),
    "threshold": (["compare", "a.csv", "b.csv", "--threshold"], OFF_FORM_FLOATS),
}


@pytest.mark.parametrize("flag", sorted(NUMBER_FLAGS))
def test_a_number_flag_refuses_text_off_its_canonical_form(capsys, flag):
    args, values = NUMBER_FLAGS[flag]
    for raw in values:
        with pytest.raises(SystemExit) as exited:
            main(args + [raw])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: argument --{flag}: " in captured.err and repr(raw) in captured.err


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
    run_files(tiny_run, "lnn", traced=False)


def test_train_onto_an_existing_file_is_a_typed_error(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    assert main(["train", "--out", str(out)] + TINY_ARGS) == 2
    assert "error:" in capsys.readouterr().err


def test_train_into_a_run_directory_exits_2_and_leaves_the_run_as_it_was(tmp_path, capsys):
    """A second run into a run directory, of either agent, would mix its
    files with the first's; it is refused, naming a file, and writes nothing."""
    out = tmp_path / "run"
    assert main(["train", "--out", str(out)] + TINY_ARGS) == 0
    capsys.readouterr()
    before = run_files(out, "lnn", traced=False)
    for agent in ("lnn", "nn"):
        assert main(["train", "--out", str(out), "--set", f"agent={agent}",
                     "--set", "base_seed=7"] + TINY_ARGS) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {out}{os.sep}" in captured.err
        assert run_files(out, "lnn", traced=False) == before


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


def test_a_run_configured_with_a_list_evaluates_from_its_own_config(tmp_path, capsys):
    config = ExperimentConfig(difficulty="easy", epochs=2, eval_interval=2, n_train_games=2,
                              n_test_per_level=1, test_levels=[1, 2], n_seeds=1)
    harness.run_experiment(config, tmp_path)
    assert main(["eval", "--run-dir", str(tmp_path)]) == 0
    assert "test games: 2 " in capsys.readouterr().out


ORACLE_CONFIG = ExperimentConfig(difficulty="hard", test_levels=(5, 10, 15), n_test_per_level=4,
                                 n_seeds=1, base_seed=3)


@pytest.fixture(scope="module")
def oracle_run(tmp_path_factory):
    """A hard run directory holding the hand-wired rule networks."""
    run_dir = tmp_path_factory.mktemp("oracle")
    (run_dir / "config.txt").write_text(ORACLE_CONFIG.to_text(), encoding="utf-8")
    (run_dir / "seed0").mkdir()
    for category, net in scripted_rule_networks().items():
        save_network(net, run_dir / "seed0" / f"{category}.lnn")
    return run_dir


def test_eval_plays_each_game_as_it_is_generated_and_drops_it(oracle_run, lexicon, monkeypatch,
                                                               capsys):
    _, specs = build_game_sets(ORACLE_CONFIG, derive_seed("run", ORACLE_CONFIG.base_seed, 0))
    scorer = LnnScorer(load_networks(oracle_run / "seed0"))
    reward, steps = evaluate(scorer, [generate_game(spec) for spec in specs], lexicon)

    generated = []          # a weak reference to every graph eval generated
    alive_at_start = []     # how many of them were alive as each episode began

    def generate(spec):
        graph = generate_game(spec)
        generated.append(weakref.ref(graph))
        return graph

    def play(*args, **kwargs):
        alive_at_start.append(sum(ref() is not None for ref in generated))
        return run_episode(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_game", generate)
    monkeypatch.setattr(harness, "run_episode", play)
    assert main(["eval", "--run-dir", str(oracle_run)]) == 0
    assert capsys.readouterr().out == (
        f"test games: {len(specs)}  mean_reward={reward:.6f}  mean_steps={steps:.6f}\n")
    # the game about to be played, and no other
    assert alive_at_start == [1] * len(specs)


def test_eval_builds_no_trainer(oracle_run, monkeypatch, capsys):
    """`eval` plays a bare scorer: no optimizer, replay buffer or target."""
    def refuse(*args, **kwargs):
        raise AssertionError("eval built a trainer")

    monkeypatch.setattr(DqnAgent, "__init__", refuse)
    assert main(["eval", "--run-dir", str(oracle_run)]) == 0
    assert capsys.readouterr().out.startswith(f"test games: {3 * 4}  mean_reward=")


# an overflowing learning rate is a legal setting; its nan is the test's subject
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_refuses_a_checkpoint_that_would_not_load_back(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["train", "--out", str(out), "--set", "difficulty=easy", "--set", "agent=nn",
                 "--set", "epochs=20", "--set", "eval_interval=10", "--set", "n_seeds=1",
                 "--set", "n_test_per_level=1", "--set", "learning_rate=1e300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite" in err
    assert not (out / "seed0" / "mlp.txt").exists()


# the first step's Adam update is about 1e300, so the second step's forward
# overflows: the run stops there instead of training every epoch on nan
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_stops_at_the_first_non_finite_td_loss(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["train", "--out", str(out), "--set", "difficulty=easy", "--set", "agent=nn",
                 "--set", "epochs=20", "--set", "eval_interval=10", "--set", "n_seeds=1",
                 "--set", "n_test_per_level=1", "--set", "learning_rate=1e300"]) == 2
    assert capsys.readouterr().err == "error: TD loss is non-finite at optimizer step 2\n"
    assert not (out / "seed0").exists()


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
def mutable_run(tiny_run, tmp_path_factory):
    """A copy of `tiny_run` whose config.txt a test may overwrite."""
    run_dir = tmp_path_factory.mktemp("mutable") / "run"
    shutil.copytree(tiny_run, run_dir)
    return run_dir


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_eval_on_a_mutated_config_exits_0_or_names_the_file(tiny_run, mutable_run, data):
    original = (tiny_run / "config.txt").read_bytes()
    config = mutable_run / "config.txt"
    config.write_bytes(data.draw(byte_edits(original, NUMBER_BYTES)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--run-dir", str(mutable_run)])
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().startswith("test games: ")
    else:
        assert code == 2 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {config}:"), lines


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


def test_play_with_a_run_dir_scores_with_the_run_networks(tiny_run, monkeypatch, capsys):
    commands = iter(["take coin", "quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(commands))
    assert main(["play", "--difficulty", "easy", "--level", "2", "--seed", "1",
                 "--run-dir", str(tiny_run)]) == 0
    scored = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[q] ")]

    # the start state's candidates, scored by the run's seed-0 networks
    state, observation = reset(generate_game(GameSpec("easy", 2, 1)))
    props = extract_propositions(parse_observation(observation), AgentMap.start(state.room))
    candidates = enumerate_candidates(props, default_lexicon())

    def q_line(nets):
        _, q_values = LnnScorer(nets).choose(props, candidates, 0.0, random.Random(0))
        return "[q] " + "  ".join(f"{c.action}:{q:.2f}" for c, q in zip(candidates, q_values))

    assert scored == [q_line(load_networks(tiny_run / "seed0"))]
    # the run's networks, not the hand-wired ones `play` reads without a run
    assert scored != [q_line(scripted_rule_networks())]


#: a tiny logic run and `lnnrl eval` on its run dir, with numpy made
#: unimportable first, so an import of it anywhere on the path raises at the
#: importing line; then the exit code and whatever numpy modules were loaded
NO_NUMPY = """
import sys, tempfile
sys.modules["numpy"] = None
from lnnrl import cli
from lnnrl.harness import ExperimentConfig, run_experiment
config = ExperimentConfig.from_pairs({"agent": "lnn", "difficulty": "easy", "epochs": "4",
                                      "eval_interval": "2", "n_seeds": "1", "n_train_games": "2",
                                      "n_test_per_level": "1"})
with tempfile.TemporaryDirectory() as out:
    run_experiment(config, out)
    code = cli.main(["eval", "--run-dir", out])
print(code, sys.modules["numpy"], sorted(name for name in sys.modules if name.startswith("numpy.")))
"""


def run_fresh(code: str) -> str:
    """The last line `code` prints in a fresh interpreter that imports this
    `lnnrl`."""
    path = os.pathsep.join(filter(None, [str(Path(lnnrl.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    return done.stdout.splitlines()[-1]


def test_a_logic_run_and_its_eval_never_import_numpy():
    """The logic networks, Adam's list form and the groundings are Python
    floats; only `agent=nn` loads numpy. This test process has imported
    numpy itself, so the run gets a fresh interpreter."""
    assert run_fresh(NO_NUMPY) == "0 None []"


#: which of the modules a generated record class would load `import
#: lnnrl.cli` adds to a fresh interpreter
IMPORT_FOOTPRINT = """
import sys
before = set(sys.modules)
import lnnrl.cli
print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
"""


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Every run pays for the package's import. The records are plain
    slotted classes, so no class is built by code generation and the
    import pulls in neither `dataclasses` nor the `inspect`, `ast` and
    `dis` it loads (about 16 ms of a 46 ms import on Python 3.11)."""
    assert run_fresh(IMPORT_FOOTPRINT) == "[]"
