"""World generation and step-engine behavior, checked against independent oracles."""

from collections import deque

import pytest

from lnnrl.worldsim import (
    ALL_ACTIONS,
    DIRECTIONS,
    DISTRACTORS_PER_ROOM,
    NOUNS,
    OPPOSITE,
    VERBS,
    Action,
    EpisodeFinishedError,
    GameSpec,
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
        if (room, d) in graph.exits and graph.exits[(room, d)] not in graph.optimal_path
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
        GameSpec("easy", 0, 0).validate()


def test_max_steps_must_fit_optimal_episode():
    with pytest.raises(InvalidSpecError):
        GameSpec("easy", 5, 0, max_episode_steps=5).validate()
    GameSpec("easy", 5, 0, max_episode_steps=6).validate()


def test_bad_difficulty_is_invalid():
    with pytest.raises(InvalidSpecError):
        GameSpec("nightmare", 5, 0).validate()


def test_spec_line_round_trip():
    spec = GameSpec("medium", 7, 42, 80)
    assert GameSpec.from_line(spec.to_line()) == spec


def test_spec_line_rejects_garbage():
    with pytest.raises(InvalidSpecError):
        GameSpec.from_line("difficulty=easy level")
    with pytest.raises(InvalidSpecError):
        GameSpec.from_line("level=3 seed=0")


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_easy_level5_seed1_shape():
    graph = generate_game(GameSpec("easy", 5, 1))
    assert len(graph.rooms) == 6
    assert bfs_distance(graph, graph.start, graph.coin_room) == 5
    assert all(distractor_count(graph, r) == 0 for r in graph.optimal_path)


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
            for room in graph.optimal_path[:-1]:
                assert distractor_count(graph, room) == per_room
            assert distractor_count(graph, graph.coin_room) == 0
            # distractors are dead ends
            path = set(graph.optimal_path)
            for room in graph.rooms:
                if room not in path:
                    assert graph.degree(room) == 1
            if difficulty == "easy":
                assert all(graph.degree(r) <= 2 for r in graph.rooms)


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
        optimal_path=(), template_seed=0,
    )
    with pytest.raises(WorldError):
        reset(empty)


def test_take_coin_in_coin_room_wins():
    graph = generate_game(GameSpec("easy", 2, 0))
    state, _ = reset(graph)
    for a, b in zip(graph.optimal_path, graph.optimal_path[1:]):
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
        for a, b in zip(graph.optimal_path, graph.optimal_path[1:]):
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


def test_an_episode_renders_each_room_once(monkeypatch):
    import lnnrl.worldsim as worldsim

    graph = generate_game(GameSpec("medium", 3, 1))
    rendered = []

    def counting_render(g, room):
        rendered.append(room)
        return render_observation(g, room)

    monkeypatch.setattr(worldsim, "render_observation", counting_render)
    state, opening = reset(graph)
    texts = {graph.start: opening}
    out = graph.open_exits(graph.start)[0]
    wait = Action("take", "coin")   # invalid: the coin is three rooms away
    # back and forth through one doorway, with invalid actions in both rooms
    for action in (Action("go", out), wait, Action("go", OPPOSITE[out]), wait) * 3:
        outcome = step(state, action)
        assert outcome.action_valid == (action is not wait)
        text = texts.setdefault(outcome.room_id, outcome.observation)
        assert outcome.observation is text
        assert text == render_observation(graph, outcome.room_id)
    assert len(texts) == 2 and sorted(rendered) == sorted(texts)

    # the texts go with the episode: a new one renders its start room again
    rendered.clear()
    _, again = reset(graph)
    assert rendered == [graph.start] and again == opening


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
