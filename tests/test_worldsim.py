"""World generation and step-engine behavior, checked against independent oracles."""

import hashlib
import random
from collections import deque

import pytest
from test_agent import recording

import lnnrl.agent as agent_module
import lnnrl.worldsim as worldsim
from lnnrl.factextract import parse_observation
from lnnrl.lexicon import default_lexicon
from lnnrl.worldsim import (
    ALL_ACTIONS,
    DIFFICULTIES,
    DIRECTIONS,
    DISTRACTORS_PER_ROOM,
    NOUNS,
    OPPOSITE,
    VERBS,
    Action,
    EpisodeFinishedError,
    GameSpec,
    GenerationError,
    InvalidSpecError,
    dump_graph,
    generate_game,
    render_observation,
    reset,
    step,
)


def bfs_distance(graph, a, b):
    """Independent breadth-first search over the emitted exits mapping."""
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


def distractor_count(graph, room):
    return sum(
        1
        for d in DIRECTIONS
        if (room, d) in graph.exits and graph.exits[(room, d)] not in range(graph.level + 1)
    )


# ---------------------------------------------------------------------------
# specs and action space
# ---------------------------------------------------------------------------


def test_action_space_has_exactly_ten_members():
    assert len(ALL_ACTIONS) == 10
    assert len(set(ALL_ACTIONS)) == 10
    assert {a.verb for a in ALL_ACTIONS} == set(VERBS)
    assert {a.noun for a in ALL_ACTIONS} == set(NOUNS)


def test_action_rejects_unknown_words():
    with pytest.raises(ValueError):
        Action("jump", "north")
    with pytest.raises(ValueError):
        Action("go", "key")


def test_level_zero_is_invalid():
    with pytest.raises(InvalidSpecError):
        GameSpec("easy", 0, 0)


def test_max_steps_must_fit_optimal_episode():
    with pytest.raises(InvalidSpecError):
        GameSpec("easy", 5, 0, max_episode_steps=5)
    GameSpec("easy", 5, 0, max_episode_steps=6)


def test_bad_difficulty_is_invalid():
    with pytest.raises(InvalidSpecError):
        GameSpec("nightmare", 5, 0)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_easy_level5_seed1_shape():
    graph = generate_game(GameSpec("easy", 5, 1))
    assert len(graph.rooms) == 6
    assert bfs_distance(graph, graph.start, graph.coin_room) == 5
    assert all(distractor_count(graph, r) == 0 for r in range(graph.level + 1))


def test_medium_level1_has_three_rooms():
    for seed in range(5):
        graph = generate_game(GameSpec("medium", 1, seed))
        assert len(graph.rooms) == 3
        assert distractor_count(graph, graph.start) == 1
        assert distractor_count(graph, graph.coin_room) == 0


@pytest.mark.parametrize("difficulty", ["easy", "medium", "hard"])
def test_difficulty_invariants_over_levels_and_seeds(difficulty):
    per_room = DISTRACTORS_PER_ROOM[difficulty]
    for level in range(1, 26, 4):
        for seed in range(3):
            graph = generate_game(GameSpec(difficulty, level, seed))
            assert bfs_distance(graph, graph.start, graph.coin_room) == level
            for room in range(graph.level):
                assert distractor_count(graph, room) == per_room
            assert distractor_count(graph, graph.coin_room) == 0
            # distractors are dead ends
            path = set(range(graph.level + 1))
            for room in graph.rooms:
                if room not in path:
                    assert len(graph.open_exits(room)) == 1
            if difficulty == "easy":
                assert all(len(graph.open_exits(r)) <= 2 for r in graph.rooms)


def test_exits_are_symmetric():
    graph = generate_game(GameSpec("hard", 8, 3))
    for (room, d), target in graph.exits.items():
        assert graph.exits[(target, OPPOSITE[d])] == room


def test_room_names_unique_and_printable():
    graph = generate_game(GameSpec("hard", 12, 9))
    names = list(graph.names.values())
    assert len(names) == len(set(names))
    assert all(name.strip() == name and name for name in names)


def test_generation_is_deterministic():
    a = generate_game(GameSpec("medium", 6, 77))
    b = generate_game(GameSpec("medium", 6, 77))
    assert dump_graph(a) == dump_graph(b)
    assert a.exits == b.exits and a.names == b.names


def test_different_seeds_differ():
    dumps = {dump_graph(generate_game(GameSpec("medium", 6, s))) for s in range(8)}
    assert len(dumps) > 1


#: sha256 of every map and room text over the grid below; any change to a
#: draw, a graph or a text moves it
WORLD_DIGEST = "f8f13d0d2f2c8fa02e4f8a6653a401509d09316ebe540efbd9411d252ca5a6e1"


def test_generated_maps_and_texts_match_their_pin():
    digest = hashlib.sha256()
    for difficulty in DIFFICULTIES:
        for level in range(1, 31):
            for seed in range(12):
                try:
                    graph = generate_game(GameSpec(difficulty, level, seed))
                except GenerationError as exc:
                    digest.update(str(exc).encode() + b"\n")
                    continue
                digest.update(dump_graph(graph).encode())
                for room in graph.rooms:
                    digest.update(render_observation(graph, room).encode() + b"\n")
    assert digest.hexdigest() == WORLD_DIGEST


def test_every_generated_map_is_a_tree():
    # reward shaping reads ⟨visited x⟩ as "the room behind x was visited",
    # which holds only if the one way there is the exit x: each map over the
    # pin grid has symmetric exits, one edge fewer than rooms, and is connected
    for difficulty in DIFFICULTIES:
        for level in range(1, 31):
            for seed in range(12):
                try:
                    graph = generate_game(GameSpec(difficulty, level, seed))
                except GenerationError:
                    continue
                for (room, d), target in graph.exits.items():
                    assert graph.exits[(target, OPPOSITE[d])] == room
                assert len(graph.exits) == 2 * (len(graph.rooms) - 1)
                reached = {graph.start}
                frontier = [graph.start]
                while frontier:
                    room = frontier.pop()
                    for d in graph.open_exits(room):
                        target = graph.exits[(room, d)]
                        if target not in reached:
                            reached.add(target)
                            frontier.append(target)
                assert reached == set(graph.rooms), (difficulty, level, seed)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_observation_names_exactly_the_open_exits():
    for seed in range(10):
        graph = generate_game(GameSpec("medium", 4, seed))
        for room in graph.rooms:
            text = render_observation(graph, room)
            open_dirs = set(graph.open_exits(room))
            for d in DIRECTIONS:
                assert (d in text) == (d in open_dirs), (seed, room, text)


def test_coin_mentioned_only_in_coin_room():
    graph = generate_game(GameSpec("easy", 5, 2))
    for room in graph.rooms:
        text = render_observation(graph, room)
        assert ("coin" in text) == (room == graph.coin_room)


def test_render_is_pure():
    graph = generate_game(GameSpec("medium", 3, 5))
    for room in graph.rooms:
        assert render_observation(graph, room) == render_observation(graph, room)


def test_room_name_bank_avoids_vocabulary_words():
    from lnnrl.worldsim import ROOM_NAME_BANK

    for name in ROOM_NAME_BANK:
        lowered = name.lower()
        for word in NOUNS:
            assert word not in lowered


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_reset_is_pure():
    graph = generate_game(GameSpec("easy", 5, 1))
    _, obs_a = reset(graph)
    _, obs_b = reset(graph)
    assert obs_a == obs_b


def test_reset_rejects_empty_graph():
    from lnnrl.worldsim import RoomGraph, WorldError

    empty = RoomGraph(
        difficulty="easy", level=1, seed=0, max_episode_steps=100,
        rooms=(), names={}, exits={}, start=0, coin_room=0,
        template_seed=0,
    )
    with pytest.raises(WorldError):
        reset(empty)


def test_take_coin_in_coin_room_wins():
    graph = generate_game(GameSpec("easy", 2, 0))
    state, _ = reset(graph)
    for a, b in zip(range(graph.level), range(1, graph.level + 1)):
        direction = next(d for d in DIRECTIONS if graph.exits.get((a, d)) == b)
        outcome = step(state, Action("go", direction))
        assert outcome.action_valid
    outcome = step(state, Action("take", "coin"))
    assert outcome.quest_reward == 1.0 and outcome.done


def test_optimal_play_uses_level_plus_one_actions():
    for level in (1, 4, 9):
        graph = generate_game(GameSpec("easy", level, 3))
        state, _ = reset(graph)
        total = 0.0
        for a, b in zip(range(graph.level), range(1, graph.level + 1)):
            direction = next(d for d in DIRECTIONS if graph.exits.get((a, d)) == b)
            total += step(state, Action("go", direction)).quest_reward
        total += step(state, Action("take", "coin")).quest_reward
        assert state.steps == level + 1
        assert total == 1.0


def test_invalid_actions_keep_room_and_distance():
    graph = generate_game(GameSpec("medium", 3, 1))
    state, _ = reset(graph)
    base_distance = bfs_distance(graph, state.room, graph.coin_room)
    closed = next(d for d in DIRECTIONS if (state.room, d) not in graph.exits)
    for action in (Action("go", "coin"), Action("take", "east"),
                   Action("take", "coin"), Action("go", closed)):
        outcome = step(state, action)
        assert not outcome.action_valid
        assert outcome.quest_reward == 0.0
        assert outcome.room_id == graph.start
        assert bfs_distance(graph, state.room, graph.coin_room) == base_distance


def test_a_step_renders_only_when_its_observation_is_read(monkeypatch):
    graph = generate_game(GameSpec("medium", 3, 1))
    rendered = []
    monkeypatch.setattr(worldsim, "render_observation", recording(render_observation, rendered))
    state = worldsim.start_episode(graph)
    out = graph.open_exits(graph.start)[0]
    outcomes = [step(state, action) for action in (Action("go", out), Action("take", "coin"))]
    assert rendered == [] and state.room == outcomes[-1].room_id != graph.start
    # each read renders the room the step ended in, afresh
    for outcome in outcomes + outcomes:
        assert outcome.observation == render_observation(graph, outcome.room_id)
    assert [room for (_, room), _ in rendered] == [outcome.room_id for outcome in outcomes] * 2


def play_exploring_episodes(graph, monkeypatch, seeds):
    """Play random-action train episodes on `graph`; the (graph, room) pairs
    rendered and the texts parsed, each with its result, in order."""
    rendered, parsed = [], []
    render = recording(render_observation, rendered)
    monkeypatch.setattr(worldsim, "render_observation", render)
    monkeypatch.setattr(agent_module, "render_observation", render)
    monkeypatch.setattr(agent_module, "parse_observation",
                        recording(agent_module.parse_observation, parsed))
    agent = agent_module.LnnAgent(agent_module.TrainerConfig())
    steps = [agent_module.run_episode(graph, agent, default_lexicon(), mode="train",
                                      epsilon=1.0, rng=random.Random(seed)).steps
             for seed in seeds]
    monkeypatch.undo()
    return rendered, parsed, steps


def test_a_game_renders_and_parses_each_room_once_across_episodes(monkeypatch):
    graph = generate_game(GameSpec("medium", 3, 1))
    rendered, parsed, steps = play_exploring_episodes(graph, monkeypatch, (0, 1, 2))
    assert min(steps) > len(graph.rooms)     # every episode revisits rooms
    assert set(graph.readings) == set(graph.rooms)

    rooms = [room for (_, room), _ in rendered]
    assert len(rooms) == len(set(rooms)) == len(parsed) == len(graph.readings)
    assert set(rooms) == set(graph.readings) and graph.start in rooms
    assert all(g is graph for (g, _), _ in rendered)
    assert [text for (text,), _ in parsed] == [text for _, text in rendered]
    for room, reading in graph.readings.items():
        assert reading == parse_observation(render_observation(graph, room))

    # a later episode reads every room from the memo
    rendered, parsed, _ = play_exploring_episodes(graph, monkeypatch, (3,))
    assert rendered == [] and parsed == []


def test_equal_graphs_do_not_share_readings(monkeypatch):
    spec = GameSpec("medium", 3, 1)
    first, second = generate_game(spec), generate_game(spec)
    assert first == second and first is not second
    _, parsed, _ = play_exploring_episodes(first, monkeypatch, (0,))
    assert parsed and second.readings == {}
    _, parsed_again, _ = play_exploring_episodes(second, monkeypatch, (0,))
    assert parsed_again == parsed and second.readings == first.readings
    assert all(second.readings[room] is not first.readings[room] for room in first.readings)


def test_episode_caps_at_max_steps_with_zero_reward():
    graph = generate_game(GameSpec("easy", 1, 0, max_episode_steps=4))
    state, _ = reset(graph)
    outcomes = [step(state, Action("go", "coin")) for _ in range(4)]
    assert [o.done for o in outcomes] == [False, False, False, True]
    assert outcomes[-1].quest_reward == 0.0


def test_stepping_finished_episode_raises():
    graph = generate_game(GameSpec("easy", 1, 0, max_episode_steps=2))
    state, _ = reset(graph)
    step(state, Action("go", "coin"))
    step(state, Action("go", "coin"))
    with pytest.raises(EpisodeFinishedError):
        step(state, Action("go", "coin"))


def test_action_sequence_replay_is_deterministic():
    graph = generate_game(GameSpec("medium", 4, 8))
    actions = [Action("go", d) for d in ("north", "east", "south", "west")] * 5

    def rollout():
        state, obs = reset(graph)
        outcomes = [obs]
        for action in actions:
            if state.done:
                break
            outcome = step(state, action)
            outcomes.append((outcome.observation, outcome.room_id,
                             outcome.quest_reward, outcome.action_valid))
        return outcomes

    assert rollout() == rollout()


def test_dump_graph_lists_every_room():
    graph = generate_game(GameSpec("medium", 5, 4))
    dump = dump_graph(graph)
    for room in graph.rooms:
        assert f"\t{graph.names[room]}\t" in dump
    assert dump == dump_graph(graph)
