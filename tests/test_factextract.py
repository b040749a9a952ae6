"""Parser round-trips, history tracking, and the 26-value proposition contract."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_agent import reference_vector

from lnnrl.factextract import (
    GROUNDINGS,
    PROPOSITION_NAMES,
    AgentMap,
    ObservationParseError,
    ParsedObservation,
    PropositionSet,
    extract_propositions,
    ground_facts,
    parse_observation,
)
from lnnrl.worldsim import (
    DIFFICULTIES,
    DIRECTIONS,
    EXIT_TEMPLATES,
    NOUNS,
    Action,
    GameSpec,
    generate_game,
    render_observation,
    _join_directions,
    reset,
    step,
)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_round_trip_recovers_room_exits_and_coin():
    for seed in range(12):
        graph = generate_game(GameSpec("medium", 4, seed))
        for room in graph.rooms:
            parsed = parse_observation(render_observation(graph, room))
            assert parsed.room_name == graph.names[room]
            assert parsed.open_exits == frozenset(graph.open_exits(room))
            assert ("coin" in parsed.objects_seen) == (room == graph.coin_room)


# the characters of the grammar, so that many mutations still parse or fail late
GRAMMAR_CHARS = st.sampled_from(list("abcdefghijklmnopqrstuvwxyz ,."))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(difficulty=st.sampled_from(DIFFICULTIES), level=st.integers(1, 25),
       seed=st.integers(0, 2**16), data=st.data())
def test_parser_inverts_the_renderer_and_rejects_mutations_with_a_typed_error(
        difficulty, level, seed, data):
    graph = generate_game(GameSpec(difficulty, level, seed))
    room = data.draw(st.sampled_from(graph.rooms), label="room")
    text = render_observation(graph, room)
    parsed = parse_observation(text)
    assert parsed.room_name == graph.names[room]
    assert parsed.open_exits == frozenset(graph.open_exits(room))
    assert parsed.objects_seen == (frozenset({"coin"}) if room == graph.coin_room else frozenset())

    pos = data.draw(st.integers(0, len(text) - 1), label="position")
    char = data.draw(st.one_of(GRAMMAR_CHARS, st.characters()), label="character")
    edit = data.draw(st.sampled_from(["replace", "insert", "delete"]), label="edit")
    resume = pos if edit == "insert" else pos + 1
    mutated = text[:pos] + ("" if edit == "delete" else char) + text[resume:]
    try:
        parse_observation(mutated)
    except ObservationParseError:
        pass


def test_all_template_variants_are_parseable():
    from lnnrl.worldsim import COIN_TEMPLATES, EXIT_TEMPLATES, ROOM_TEMPLATES

    for room_t in ROOM_TEMPLATES:
        for exit_t, plural_t in EXIT_TEMPLATES:
            for coin_t in (None, *COIN_TEMPLATES):
                text = room_t.format(name="Dusty Cellar") + " " + exit_t.format(dirs="north")
                if coin_t:
                    text += " " + coin_t
                parsed = parse_observation(text)
                assert parsed.room_name == "Dusty Cellar"
                assert parsed.open_exits == {"north"}

                many = room_t.format(name="Quiet Study") + " " + plural_t.format(
                    dirs="north, east and south"
                )
                parsed = parse_observation(many)
                assert parsed.open_exits == {"north", "east", "south"}


def exit_lists(words):
    """Every way to write the words as a list: the renderer's ", ... and ",
    commas alone and "and" alone."""
    joined = words[0] if len(words) == 1 else ", ".join(words[:-1]) + " and " + words[-1]
    return {joined, ", ".join(words), " and ".join(words)}


def test_the_parser_accepts_exactly_the_rendered_exit_sentences():
    forms = {form for pair in EXIT_TEMPLATES for form in pair}
    for n in range(1, len(DIRECTIONS) + 1):
        for exits in itertools.combinations(DIRECTIONS, n):
            # what `render_observation` writes for these exits, one text per template
            rendered = {pair[n > 1].format(dirs=_join_directions(exits)) for pair in EXIT_TEMPLATES}
            # every order of the words, and every order with one word repeated
            sequences = {seq for extra in ((), *((word,) for word in exits))
                         for seq in itertools.permutations(exits + extra)}
            accepted = set()
            for words in sequences:
                for text in exit_lists(words):
                    for form in forms:
                        sentence = form.format(dirs=text)
                        try:
                            parsed = parse_observation(f"You are in the Dusty Cellar. {sentence}")
                        except ObservationParseError:
                            continue
                        assert parsed.open_exits == frozenset(exits)
                        accepted.add(sentence)
            assert accepted == rendered, exits


def test_parse_error_names_the_unmatched_span():
    with pytest.raises(ObservationParseError, match="no room sentence"):
        parse_observation("A dragon blocks the way.")
    with pytest.raises(ObservationParseError, match="no exit sentence"):
        parse_observation("You are in the Dusty Cellar. The walls are damp.")
    with pytest.raises(ObservationParseError, match="trailing text"):
        parse_observation("You are in the Dusty Cellar. A doorway leads north. Extra words.")
    with pytest.raises(ObservationParseError, match="unknown direction word"):
        parse_observation("You are in the Dusty Cellar. A doorway leads sideways.")


# ---------------------------------------------------------------------------
# history
# ---------------------------------------------------------------------------


def test_record_move_sets_entry_direction_on_first_entry_only():
    agent_map = AgentMap.start(0)
    agent_map.record_move("north", 1)
    assert agent_map.visited == {0, 1}
    assert agent_map.entry_direction[1] == "south"
    # going back and re-entering must not rewrite the entry direction
    agent_map.record_move("south", 0)
    agent_map.record_move("north", 1)
    assert agent_map.entry_direction[1] == "south"
    assert 0 not in agent_map.entry_direction


def test_loop_records_both_edges():
    agent_map = AgentMap.start(0)
    agent_map.record_move("east", 1)
    agent_map.record_move("west", 0)
    assert agent_map.adjacency == {
        (0, "east"): 1,
        (1, "west"): 0,
    }
    assert agent_map.visited == {0, 1}
    assert agent_map.current == 0


def test_record_move_rejects_non_directions():
    agent_map = AgentMap.start(0)
    with pytest.raises(ValueError):
        agent_map.record_move("coin", 1)
    assert agent_map.current == 0


# ---------------------------------------------------------------------------
# propositions
# ---------------------------------------------------------------------------


def walk_episode(graph, moves):
    """Drive an episode along `moves`, returning the live map and last parse."""
    state, obs = reset(graph)
    agent_map = AgentMap.start(state.room)
    for direction in moves:
        outcome = step(state, Action("go", direction))
        assert outcome.action_valid, direction
        agent_map.record_move(direction, outcome.room_id)
        obs = outcome.observation
    return agent_map, parse_observation(obs)


def test_start_state_propositions():
    graph = generate_game(GameSpec("easy", 5, 1))
    agent_map, parsed = walk_episode(graph, [])
    props = extract_propositions(parsed, agent_map)
    open_dirs = set(parsed.open_exits)
    for d in DIRECTIONS:
        assert props.find[d] == (d in open_dirs)
        assert props.visited_dir[d] is False
        assert props.initial_dir[d] is False
    assert props.find["coin"] is False
    assert props.all_visited is False


def test_initial_direction_after_first_move():
    graph = generate_game(GameSpec("easy", 5, 1))
    first = next(d for d in DIRECTIONS if (graph.start, d) in graph.exits)
    agent_map, parsed = walk_episode(graph, [first])
    props = extract_propositions(parsed, agent_map)
    back = {"north": "south", "south": "north", "east": "west", "west": "east"}[first]
    assert props.initial_dir[back] is True
    assert props.visited_dir[back] is True
    assert sum(props.initial_dir.values()) == 1


def test_all_visited_in_dead_end_and_after_full_exploration():
    # brute-force a seeded medium level-2 game by explicit walking
    graph = generate_game(GameSpec("medium", 2, 0))
    start = graph.start
    distractor_dir = next(
        d for d in DIRECTIONS
        if (start, d) in graph.exits and graph.exits[(start, d)] not in graph.optimal_path
    )
    path_dir = next(
        d for d in DIRECTIONS if graph.exits.get((start, d)) == graph.optimal_path[1]
    )
    back = {"north": "south", "south": "north", "east": "west", "west": "east"}

    # inside the dead-end distractor: single exit, already traversed
    agent_map, parsed = walk_episode(graph, [distractor_dir])
    props = extract_propositions(parsed, agent_map)
    assert parsed.open_exits == {back[distractor_dir]}
    assert props.all_visited is True

    # back at start with the path exit still unexplored
    agent_map, parsed = walk_episode(graph, [distractor_dir, back[distractor_dir]])
    props = extract_propositions(parsed, agent_map)
    assert props.all_visited is False

    # after also walking the path edge and returning, every exit is known
    agent_map, parsed = walk_episode(
        graph, [distractor_dir, back[distractor_dir], path_dir, back[path_dir]]
    )
    props = extract_propositions(parsed, agent_map)
    assert props.all_visited is True


def random_reachable_states(n_states, seed=0):
    """Random-walk sampler yielding (parsed, map) pairs from seeded games."""
    rng = random.Random(seed)
    produced = 0
    game_seed = 0
    while produced < n_states:
        difficulty = ("easy", "medium", "hard")[game_seed % 3]
        graph = generate_game(GameSpec(difficulty, 1 + game_seed % 6, game_seed))
        state, obs = reset(graph)
        agent_map = AgentMap.start(state.room)
        for _ in range(30):
            if state.done or produced >= n_states:
                break
            yield parse_observation(obs), agent_map
            produced += 1
            direction = rng.choice(DIRECTIONS)
            outcome = step(state, Action("go", direction))
            if outcome.action_valid:
                agent_map.record_move(direction, outcome.room_id)
            obs = outcome.observation
        game_seed += 1


def test_proposition_set_has_26_complementary_values():
    assert len(PROPOSITION_NAMES) == 26
    for parsed, agent_map in random_reachable_states(300):
        vec = extract_propositions(parsed, agent_map).as_vector()
        assert vec.shape == (26,)
        pairs = vec.reshape(13, 2)
        assert np.all(pairs.sum(axis=1) == 1.0)
        assert set(np.unique(vec)) <= {0.0, 1.0}


def test_extract_propositions_is_pure():
    graph = generate_game(GameSpec("medium", 3, 3))
    agent_map, parsed = walk_episode(graph, [])
    a = extract_propositions(parsed, agent_map)
    b = extract_propositions(parsed, agent_map)
    assert a == b


def reference_propositions(parsed, agent_map):
    """The per-step construction that the shared records replaced."""
    room = agent_map.current
    find = {noun: False for noun in NOUNS}
    for d in parsed.open_exits:
        find[d] = True
    for obj in parsed.objects_seen:
        if obj in find:
            find[obj] = True
    visited_dir = {}
    for d in DIRECTIONS:
        target = agent_map.adjacency.get((room, d))
        visited_dir[d] = target is not None and target in agent_map.visited
    entry = agent_map.entry_direction.get(room)
    initial_dir = {d: d == entry for d in DIRECTIONS}
    all_visited = all(visited_dir[d] for d in parsed.open_exits)
    return PropositionSet(find, visited_dir, initial_dir, all_visited)


ROOMS = st.integers(0, 5)


@st.composite
def observed_maps(draw):
    """A parsed observation and an agent map, not necessarily from one game."""
    current = draw(ROOMS)
    agent_map = AgentMap(
        current=current,
        visited=draw(st.sets(ROOMS)) | {current},
        adjacency=draw(st.dictionaries(st.tuples(ROOMS, st.sampled_from(DIRECTIONS)), ROOMS,
                                       max_size=16)),
        entry_direction=draw(st.dictionaries(ROOMS, st.sampled_from(DIRECTIONS))),
    )
    parsed = ParsedObservation(
        room_name="kitchen",
        open_exits=draw(st.frozensets(st.sampled_from(DIRECTIONS))),
        objects_seen=draw(st.sampled_from([frozenset(), frozenset({"coin"})])),
    )
    return parsed, agent_map


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(observations=st.lists(observed_maps(), min_size=1, max_size=8))
def test_equal_truth_assignments_share_one_read_only_record(observations):
    results = [extract_propositions(parsed, agent_map) for parsed, agent_map in observations]
    references = [reference_propositions(parsed, agent_map) for parsed, agent_map in observations]
    for props, reference in zip(results, references):
        assert (props.find, props.visited_dir, props.initial_dir, props.all_visited) == (
            reference.find, reference.visited_dir, reference.initial_dir, reference.all_visited)
        assert all(type(v) is bool for v in (*props.find.values(), *props.visited_dir.values(),
                                            *props.initial_dir.values(), props.all_visited))
        assert np.array_equal(props.as_vector(), reference_vector(reference))
        for mapping in (props.find, props.visited_dir, props.initial_dir):
            with pytest.raises(TypeError):
                mapping["north"] = True
        with pytest.raises(ValueError):
            props.as_vector()[0] = 0.5
    for i, props in enumerate(results):
        for j, other in enumerate(results):
            assert (props is other) == (references[i] == references[j]), (i, j)
        assert extract_propositions(*observations[i]) is props


def test_dump_lists_26_named_bits():
    graph = generate_game(GameSpec("easy", 2, 0))
    agent_map, parsed = walk_episode(graph, [])
    dump = extract_propositions(parsed, agent_map).dump()
    lines = dump.splitlines()
    assert len(lines) == 26
    assert [line.split(" = ")[0] for line in lines] == list(PROPOSITION_NAMES)


# ---------------------------------------------------------------------------
# grounding
# ---------------------------------------------------------------------------


def test_direction_grounding_layout():
    graph = generate_game(GameSpec("easy", 5, 1))
    agent_map, parsed = walk_episode(graph, [])
    props = extract_propositions(parsed, agent_map)
    open_dir = next(iter(parsed.open_exits))
    facts = ground_facts(props, "direction", open_dir)
    assert facts.values.tolist() == [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]


def test_money_grounding_layout():
    graph = generate_game(GameSpec("easy", 1, 0))
    # stand in the coin room
    agent_map, parsed = walk_episode(
        graph, [next(d for d in DIRECTIONS if (graph.start, d) in graph.exits)]
    )
    props = extract_propositions(parsed, agent_map)
    facts = ground_facts(props, "money", "coin")
    assert facts.values.tolist() == [1.0, 0.0]


def test_grounded_pairs_sum_to_one_over_random_states():
    for parsed, agent_map in random_reachable_states(200, seed=9):
        props = extract_propositions(parsed, agent_map)
        for d in DIRECTIONS:
            values = ground_facts(props, "direction", d).values
            assert values[0] + values[1] == 1.0
            assert values[2] + values[3] == 1.0
            assert values[4] + values[5] == 1.0
            assert values[6] + values[7] == 1.0
        money = ground_facts(props, "money", "coin").values
        assert money[0] + money[1] == 1.0


def test_equal_truth_assignments_share_one_values_array_across_nouns():
    arrays = {id(c.values): c.values for c in GROUNDINGS.values()}
    # 2**4 direction assignments and 2 coin assignments
    assert len(arrays) == 18
    for values in arrays.values():
        with pytest.raises(ValueError):
            values[0] = 0.5
    for (category, noun, bits), candidate in GROUNDINGS.items():
        assert candidate.values.tolist() == [float(v) for b in bits for v in (b, not b)]
        for (other_category, _, other_bits), other in GROUNDINGS.items():
            same = (category, bits) == (other_category, other_bits)
            assert (candidate.values is other.values) == same


def test_grounding_category_noun_mismatch_raises():
    graph = generate_game(GameSpec("easy", 2, 0))
    agent_map, parsed = walk_episode(graph, [])
    props = extract_propositions(parsed, agent_map)
    with pytest.raises(ValueError):
        ground_facts(props, "direction", "coin")
    with pytest.raises(ValueError):
        ground_facts(props, "money", "north")
    with pytest.raises(ValueError):
        ground_facts(props, "metal", "coin")
