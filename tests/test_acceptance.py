"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The desk-scale training
runs (criteria 7-9) share module-scoped fixtures so each experiment trains
once; expect a few minutes of wall time for the full module.
"""

import itertools
import os
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import lnnrl
from lnnrl.agent import LnnScorer, run_episode, scripted_rule_networks
from lnnrl.factextract import (
    AgentMap,
    extract_propositions,
    parse_observation,
)
from lnnrl.harness import ExperimentConfig, build_game_sets, read_metrics_csv, run_experiment
from lnnrl.lnn import extract_rules
from lnnrl.rng import derive_seed
from lnnrl.worldsim import (
    DIRECTIONS,
    DISTRACTORS_PER_ROOM,
    Action,
    GameSpec,
    dump_graph,
    generate_game,
    render_observation,
    reset,
    step,
)
from test_golden import run_files
from test_lnn import and_value, or_value

N_SEEDS = 3
BASE_SEED = 2024


def report(criterion: int, text: str) -> None:
    print(f"\ncriterion {criterion}: PASS — {text}")


# ---------------------------------------------------------------------------
# shared desk-scale runs (criteria 7, 8, 9, and the timing target)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def run_clock():
    return {}


@pytest.fixture(scope="module")
def easy_lnn(tmp_path_factory, run_clock):
    config = ExperimentConfig(difficulty="easy", agent="lnn", epochs=200,
                              n_seeds=N_SEEDS, base_seed=BASE_SEED)
    t0 = time.perf_counter()
    result = run_experiment(config, tmp_path_factory.mktemp("easy_lnn"))
    run_clock["easy_lnn"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def medium_lnn(tmp_path_factory, run_clock):
    config = ExperimentConfig(difficulty="medium", agent="lnn", epochs=500,
                              n_seeds=N_SEEDS, base_seed=BASE_SEED)
    t0 = time.perf_counter()
    result = run_experiment(config, tmp_path_factory.mktemp("medium_lnn"))
    run_clock["medium_lnn"] = time.perf_counter() - t0
    return result


@pytest.fixture(scope="module")
def medium_nn(tmp_path_factory, run_clock):
    config = ExperimentConfig(difficulty="medium", agent="nn", epochs=500,
                              n_seeds=N_SEEDS, base_seed=BASE_SEED)
    t0 = time.perf_counter()
    result = run_experiment(config, tmp_path_factory.mktemp("medium_nn"))
    run_clock["medium_nn"] = time.perf_counter() - t0
    return result


# ---------------------------------------------------------------------------
# criterion 1: crisp-logic equivalence
# ---------------------------------------------------------------------------


def test_criterion_1_crisp_logic_equivalence():
    t0 = time.perf_counter()
    cases = 0
    for arity in range(1, 5):
        for bits in itertools.product([0.0, 1.0], repeat=arity):
            x = np.array(bits)
            assert and_value(np.ones(arity), 1.0, x) == float(all(bits)), (arity, bits)
            assert or_value(np.ones(arity), 1.0, x) == float(any(bits)), (arity, bits)
            cases += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"AND/OR match classical truth tables on {cases} cases per node "
              f"(arity 1-4, exact) in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 2: gradient correctness
# ---------------------------------------------------------------------------


def test_criterion_2_gradient_correctness():
    from lnnrl.factextract import CATEGORY_LITERALS
    from lnnrl.lnn import LnnNetwork

    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    checked_networks = 0
    while checked_networks < 100:
        n_gates = int(rng.integers(1, 4))
        # gates, then OR weights, then the OR bias: this order fixes which 100 networks are checked
        gates = [(rng.uniform(0.05, 0.5, size=8), float(rng.uniform(0.8, 1.2))) for _ in range(n_gates)]
        or_weights = rng.uniform(0.2, 0.9, size=n_gates)
        net = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go",
                         rows=[(w, b, or_w) for (w, b), or_w in zip(gates, or_weights)],
                         or_bias=float(rng.uniform(0.9, 1.1)))
        x = rng.uniform(0.1, 0.9, size=8)
        _, trace = net.forward(x)
        in_open = (
            all(0.02 < p < 0.98 for p in trace.and_pre)
            and 0.02 < trace.or_pre < 0.98
        )
        if not in_open:
            continue
        checked_networks += 1
        upstream = float(rng.uniform(0.5, 2.0))
        grads = net.gradients(trace, upstream)
        params = net.buffer
        for i, grad in enumerate(grads):
            original = params[i]
            params[i] = original + 1e-6
            q_plus, _ = net.forward(x)
            params[i] = original - 1e-6
            q_minus, _ = net.forward(x)
            params[i] = original
            fd = upstream * (q_plus - q_minus) / 2e-6
            assert grad == pytest.approx(fd, rel=1e-5, abs=1e-9), i
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"analytic gradients match central differences (rel 1e-5) on "
              f"{checked_networks} open-region networks in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: environment structure
# ---------------------------------------------------------------------------


def bfs_distance(graph, a, b):
    seen = {a: 0}
    queue = deque([a])
    while queue:
        room = queue.popleft()
        if room == b:
            return seen[room]
        for d in DIRECTIONS:
            target = graph.exits.get((room, d))
            if target is not None and target not in seen:
                seen[target] = seen[room] + 1
                queue.append(target)
    return None


def test_criterion_3_environment_structure():
    t0 = time.perf_counter()
    per_difficulty = 0
    for difficulty in ("easy", "medium", "hard"):
        per_difficulty = 0
        expected = DISTRACTORS_PER_ROOM[difficulty]
        for level in range(1, 26):
            for seed in range(8):
                graph = generate_game(GameSpec(difficulty, level, seed))
                per_difficulty += 1
                assert bfs_distance(graph, graph.start, graph.coin_room) == level
                for room in range(graph.level):
                    off_path = sum(
                        1 for d in DIRECTIONS
                        if (room, d) in graph.exits
                        and graph.exits[(room, d)] not in range(graph.level + 1)
                    )
                    assert off_path == expected, (difficulty, level, seed, room)
        assert per_difficulty == 200
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, f"BFS(start, coin) == level and distractor counts exact on "
              f"200 games per difficulty, levels 1-25, in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 4: parser round-trip
# ---------------------------------------------------------------------------


def test_criterion_4_parser_round_trip():
    t0 = time.perf_counter()
    room_forms = set()
    rooms_checked = 0
    difficulties = ("easy", "medium", "hard")
    for i in range(100):
        difficulty = difficulties[i % 3]
        level = 1 + (i % 25)
        graph = generate_game(GameSpec(difficulty, level, 1000 + i))
        for room in graph.rooms:
            text = render_observation(graph, room)
            parsed = parse_observation(text)
            assert parsed.room_name == graph.names[room]
            assert parsed.open_exits == frozenset(graph.open_exits(room))
            assert ("coin" in parsed.objects_seen) == (room == graph.coin_room)
            room_forms.add(text.split(" the ")[0])
            rooms_checked += 1
    assert len(room_forms) == 3, "not every surface template was exercised"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(4, f"render -> parse recovered name/exits/coin on {rooms_checked} rooms "
              f"of 100 games across all templates in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 5: fact count
# ---------------------------------------------------------------------------


def test_criterion_5_fact_count_and_complements():
    import random as pyrandom

    rng = pyrandom.Random(5)
    produced = 0
    game_seed = 0
    while produced < 1000:
        difficulty = ("easy", "medium", "hard")[game_seed % 3]
        graph = generate_game(GameSpec(difficulty, 1 + game_seed % 8, game_seed))
        state, obs = reset(graph)
        agent_map = AgentMap.start(state.room)
        while not state.done and produced < 1000:
            props = extract_propositions(parse_observation(obs), agent_map)
            vec = np.array(props.as_vector())
            assert vec.shape == (26,)
            pairs = vec.reshape(13, 2)
            assert np.all(pairs.sum(axis=1) == 1.0), "negation complement broken"
            produced += 1
            direction = rng.choice(DIRECTIONS)
            outcome = step(state, Action("go", direction))
            if outcome.action_valid:
                agent_map.record_move(direction, outcome.room_id)
            obs = outcome.observation
            if state.steps >= 25:
                break
        game_seed += 1
    report(5, f"{produced} random reachable states all carry exactly 26 values "
              f"with exact negation complements")


# ---------------------------------------------------------------------------
# criterion 6: oracle-rule sanity
# ---------------------------------------------------------------------------


def test_criterion_6_oracle_rule_networks():
    t0 = time.perf_counter()
    lexicon = __import__("lnnrl.lexicon", fromlist=["default_lexicon"]).default_lexicon()
    policy = LnnScorer(scripted_rule_networks())

    for difficulty, step_bound in (("easy", lambda lvl: lvl + 1),
                                   ("medium", lambda lvl: 3 * (lvl + 1))):
        config = ExperimentConfig(difficulty=difficulty, base_seed=BASE_SEED, n_seeds=1)
        _, test_specs = build_game_sets(config, derive_seed("run", BASE_SEED, 0))
        assert len(test_specs) == 50
        for spec in test_specs:
            graph = generate_game(spec)
            result = run_episode(graph, policy, lexicon, mode="eval")
            assert result.quest_reward == 1.0, (difficulty, spec)
            assert result.steps <= step_bound(spec.level), (difficulty, spec, result.steps)
            if difficulty == "easy":
                assert result.steps == spec.level + 1, (spec, result.steps)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(6, f"hand-wired rule networks: easy minimal steps, medium within 3x "
              f"optimal, reward 1.0 on both 50-game test sets, in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 7: desk-scale reproduction (direction, not exact values)
# ---------------------------------------------------------------------------


def test_criterion_7_desk_scale_convergence(easy_lnn, medium_lnn, run_clock):
    for result, budget, label in ((easy_lnn, 200, "easy"), (medium_lnn, 500, "medium")):
        for seed_result in result.seeds:
            crossed = [
                epoch for epoch, reward in zip(seed_result.epochs, seed_result.rewards)
                if reward >= 0.9 and epoch <= budget
            ]
            assert crossed, (
                f"{label} seed {seed_result.seed_index} never reached 0.9 within "
                f"{budget} epochs: {list(zip(seed_result.epochs, seed_result.rewards))}"
            )
    easy_cross = [s.epochs[[r >= 0.9 for r in s.rewards].index(True)] for s in easy_lnn.seeds]
    medium_cross = [s.epochs[[r >= 0.9 for r in s.rewards].index(True)] for s in medium_lnn.seeds]
    total = run_clock["easy_lnn"] + run_clock["medium_lnn"]
    report(7, f"all {N_SEEDS} seeds reach mean test reward >= 0.9 "
              f"(easy at epochs {easy_cross} of 200, medium at {medium_cross} of 500); "
              f"train+eval wall time {total:.0f}s (15-minute target)")


# ---------------------------------------------------------------------------
# criterion 8: convergence ordering vs the MLP baseline
# ---------------------------------------------------------------------------


def seed_crossing(path, threshold, column):
    """The first epoch whose `column` in the metrics file reaches `threshold`, or None."""
    header, rows = read_metrics_csv(path)
    epoch_i, col_i = header.index("epoch"), header.index(column)
    return next((int(row[epoch_i]) for row in rows if row[col_i] >= threshold), None)


def test_criterion_8_convergence_ordering(medium_lnn, medium_nn, run_clock):
    from lnnrl.harness import compare_runs

    crossings = []
    for k in range(N_SEEDS):
        column = f"reward_seed{k}"
        lnn_cross = seed_crossing(medium_lnn.csv_path, 0.9, column)
        nn_cross = seed_crossing(medium_nn.csv_path, 0.9, column)
        assert lnn_cross is not None, f"logic agent never crossed 0.9 on seed {k}"
        assert nn_cross is None or lnn_cross < nn_cross, (k, lnn_cross, nn_cross)
        crossings.append((lnn_cross, nn_cross))
    mean_report = compare_runs(medium_lnn.csv_path, medium_nn.csv_path, threshold=0.9)
    assert mean_report.first_epoch_a is not None
    assert (mean_report.first_epoch_b is None
            or mean_report.first_epoch_a < mean_report.first_epoch_b)
    shown = ", ".join(
        f"seed{k}: {a} vs {b if b is not None else 'not reached'}"
        for k, (a, b) in enumerate(crossings)
    )
    report(8, f"logic agent crosses 0.9 strictly earlier than the MLP baseline on "
              f"every seed ({shown}); baseline wall time {run_clock['medium_nn']:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: rule extraction from the trained medium run
# ---------------------------------------------------------------------------


def test_criterion_9_rule_extraction(medium_lnn):
    threshold = medium_lnn.config.rule_weight_threshold
    for seed_result in medium_lnn.seeds:
        money_rules = extract_rules(seed_result.scorer.nets["money"], threshold)
        assert any(set(r.literals) == {"find_x"} for r in money_rules), (
            seed_result.seed_index, [r.literals for r in money_rules])

        direction_rules = extract_rules(seed_result.scorer.nets["direction"], threshold)
        literal_sets = [set(r.literals) for r in direction_rules]
        assert any({"find_x", "not_visited_x"} <= s for s in literal_sets), literal_sets
        assert any({"all_visited", "initial_x"} <= s for s in literal_sets), literal_sets
    sample = extract_rules(medium_lnn.seeds[0].scorer.nets["money"], threshold)[0].render()
    report(9, f"every seed extracts the take rule ({sample}) plus exploration and "
              f"dead-end-return go rules (literal-set containment, order-insensitive)")


# ---------------------------------------------------------------------------
# criterion 10: determinism
# ---------------------------------------------------------------------------


#: criterion 10's config
CRITERION_10 = dict(difficulty="medium", epochs=30, eval_interval=10, n_seeds=2,
                    n_train_games=8, n_test_per_level=2, base_seed=31)


def same_run_directories(root_a: Path, root_b: Path, agent: str) -> int:
    """Each traced run directory holds the files `RUN_FILES[agent]` lists, the
    two with the same names and bytes; how many files each holds."""
    a, b = run_files(root_a, agent), run_files(root_b, agent)
    assert sorted(a) == sorted(b)
    assert [name for name in a if a[name] != b[name]] == []
    return len(a)


def test_criterion_10_byte_identical_reruns(tmp_path):
    config = ExperimentConfig(**CRITERION_10)
    for name in "ab":
        run_experiment(config, tmp_path / name, trace=True)
    compared = same_run_directories(tmp_path / "a", tmp_path / "b", config.agent)

    # adjacency dumps from the generate path are equally reproducible
    for seed in range(5):
        spec = GameSpec("hard", 7, seed)
        assert dump_graph(generate_game(spec)) == dump_graph(generate_game(spec))
    report(10, f"two executions produced byte-identical run directories of {compared} "
               f"files (config, CSV, rules, traces, checkpoints)")


@pytest.mark.parametrize("agent", ["lnn", "nn"])
def test_reruns_are_byte_identical_across_processes_and_hash_seeds(tmp_path, agent):
    """Criterion 10 reruns in one process, under one hash seed, so an output
    that follows a set's iteration order or an object's address passes it.
    Here each run of its config is its own interpreter, one under
    PYTHONHASHSEED=0 and one under 12345, and every file each writes must
    match the other's byte for byte."""
    path = os.pathsep.join(filter(None, [str(Path(lnnrl.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "lnnrl.cli", "train", "--trace", "--set", f"agent={agent}"]
    for key, value in CRITERION_10.items():
        command += ["--set", f"{key}={value}"]
    runs = {hash_seed: tmp_path / hash_seed for hash_seed in ("0", "12345")}
    workers = [subprocess.Popen([*command, "--out", str(out)], stdout=subprocess.DEVNULL,
                                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed})
               for hash_seed, out in runs.items()]
    assert [worker.wait(timeout=120) for worker in workers] == [0, 0]
    same_run_directories(*runs.values(), agent)
