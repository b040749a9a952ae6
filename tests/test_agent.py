"""Candidate grounding, action selection, shaping, replay, TD targets, training."""

import contextlib
import copy
import io
import random
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_baseline import SHARED_STATES, as_props, float_bits
from test_lnn import counting_constructions, named, same_bits

import lnnrl.agent as agent_module
from lnnrl.agent import (
    DqnAgent,
    EpisodeReport,
    LnnAgent,
    LnnScorer,
    Memo,
    ReplayBuffer,
    TrainerConfig,
    Transition,
    enumerate_candidates,
    epsilon_at,
    explore,
    fresh_networks,
    greedy,
    run_episode,
    scripted_rule_networks,
    select_action,
    shape_reward,
    td_target,
)
from lnnrl.baseline import MlpAgent, MlpScorer
from lnnrl.factextract import (
    CATEGORY_LITERALS,
    CATEGORY_VERBS,
    GROUNDINGS,
    AgentMap,
    Candidate,
    PropositionSet,
    extract_propositions,
    ground_facts,
    parse_observation,
)
from lnnrl.harness import evaluate
from lnnrl.lexicon import default_lexicon, parse_lexicon
from lnnrl.lnn import OR_BIAS_FLOOR, LnnNetwork
from lnnrl.optim import AdamOptimizer
from lnnrl.rng import substream
from lnnrl.worldsim import (
    ALL_ACTIONS,
    DIFFICULTIES,
    DIRECTIONS,
    NOUNS,
    OPPOSITE,
    Action,
    GameSpec,
    generate_game,
    render_observation,
    reset,
    step,
)


def start_props(graph):
    state, obs = reset(graph)
    agent_map = AgentMap.start(state.room)
    return extract_propositions(parse_observation(obs), agent_map)


def make_candidate(category, facts):
    noun = "coin" if category == "money" else "north"
    return Candidate(category, noun, Action(CATEGORY_VERBS[category], noun),
                     tuple(map(float, facts)))


def shared_candidate(category, facts):
    """The shared grounding `ground_facts` returns for crisp `facts`."""
    noun = "coin" if category == "money" else "north"
    return GROUNDINGS[category, noun, tuple(bool(v) for v in facts[::2])]


def make_transition(category, facts, reward, terminal, next_candidates=(),
                    candidate=make_candidate):
    chosen = candidate(category, facts)
    props = as_props(np.zeros(26))
    return Transition(
        props=props, action=chosen.action,
        reward=reward, terminal=terminal, next_props=props,
        next_candidates=tuple(candidate(c, f) for c, f in next_candidates),
        chosen=chosen,
    )


def trainer(config, nets, run_seed=0):
    """The trainer `LnnAgent(config, run_seed)` builds, over the given
    networks in place of fresh ones."""
    return DqnAgent(config, LnnScorer(nets), substream("replay-sampling", run_seed))


def parameter_bytes(agent):
    """Every parameter's exact bits, by name."""
    return {name: np.asarray(p, dtype=np.float64).tobytes()
            for name, p in agent.scorer.parameters().items()}


# ---------------------------------------------------------------------------
# candidate enumeration
# ---------------------------------------------------------------------------


def test_exactly_five_candidates_in_fixed_order(lexicon):
    graph = generate_game(GameSpec("medium", 3, 0))
    candidates = enumerate_candidates(start_props(graph), lexicon)
    assert [c.noun for c in candidates] == list(NOUNS)
    assert [c.action for c in candidates] == [
        Action("go", "north"), Action("go", "east"), Action("go", "south"),
        Action("go", "west"), Action("take", "coin"),
    ]
    assert [len(c.values) for c in candidates] == [8, 8, 8, 8, 2]


# lexicon texts that drop, add or misassign categories
DIRECTION_ONLY_LEXICON = "".join(f"{d}\tdirection\n" for d in DIRECTIONS)
EXTRA_CATEGORY_LEXICON = DIRECTION_ONLY_LEXICON + "coin\tmoney\ncoin\tmetal\n"
MISASSIGNED_LEXICON = DIRECTION_ONLY_LEXICON + "north\tmoney\ncoin\tmoney\ncoin\tdirection\n"


def test_missing_lexicon_category_drops_candidate_without_error():
    table = parse_lexicon(DIRECTION_ONLY_LEXICON)
    graph = generate_game(GameSpec("easy", 2, 0))
    candidates = enumerate_candidates(start_props(graph), table)
    assert [c.noun for c in candidates] == list(DIRECTIONS)


def test_unknown_categories_are_ignored():
    table = parse_lexicon(EXTRA_CATEGORY_LEXICON)
    graph = generate_game(GameSpec("easy", 2, 0))
    candidates = enumerate_candidates(start_props(graph), table)
    assert len(candidates) == 5  # metal has no verb binding, so no sixth candidate


def test_ungroundable_category_claims_are_skipped():
    # a lexicon may claim odd categories for game nouns; only groundable
    # (category, noun) pairs become candidates
    table = parse_lexicon(MISASSIGNED_LEXICON)
    graph = generate_game(GameSpec("easy", 2, 0))
    candidates = enumerate_candidates(start_props(graph), table)
    assert [(c.category, c.noun) for c in candidates] == [
        ("direction", "north"), ("direction", "east"),
        ("direction", "south"), ("direction", "west"), ("money", "coin"),
    ]


def reference_facts(props, category, noun):
    """The per-step grounding that the shared tables replaced."""
    f = props.find[noun]
    if category == "money":
        values = (f, not f)
    else:
        v, i, a = props.visited_dir[noun], props.initial_dir[noun], props.all_visited
        values = (f, not f, v, not v, i, not i, a, not a)
    return np.array([float(b) for b in values], dtype=np.float64)


def reference_candidates(props, lexicon):
    """The per-step candidate construction that the shared tables replaced."""
    candidates = []
    for noun in NOUNS:
        for category in sorted(lexicon.lookup(noun)):
            verb = {"direction": "go", "money": "take"}.get(category)
            groundable = noun in DIRECTIONS if category == "direction" else noun == "coin"
            if verb is None or not groundable:
                continue
            candidates.append((category, noun, Action(verb, noun),
                               reference_facts(props, category, noun)))
    return candidates


def reference_vector(props):
    bits = [props.find[n] for n in NOUNS]
    bits += [props.visited_dir[d] for d in DIRECTIONS]
    bits += [props.initial_dir[d] for d in DIRECTIONS]
    return np.array([float(v) for b in bits for v in (b, not b)], dtype=np.float64)


def assert_read_only(values):
    assert type(values) is tuple and all(type(v) is float for v in values)
    with pytest.raises(TypeError):
        values[0] = 0.5


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bits=st.lists(st.booleans(), min_size=14, max_size=14))
def test_shared_groundings_and_candidates_match_the_per_step_construction(bits):
    props = PropositionSet(
        find=dict(zip(NOUNS, bits[:5])),
        visited_dir=dict(zip(DIRECTIONS, bits[5:9])),
        initial_dir=dict(zip(DIRECTIONS, bits[9:13])),
        all_visited=bits[13],
    )
    for category, nouns in (("direction", DIRECTIONS), ("money", ("coin",))):
        for noun in nouns:
            grounded = ground_facts(props, category, noun)
            assert (grounded.category, grounded.noun) == (category, noun)
            assert np.array_equal(grounded.values, reference_facts(props, category, noun))
            assert_read_only(grounded.values)

    lexicons = [default_lexicon()] + [parse_lexicon(text) for text in (
        DIRECTION_ONLY_LEXICON, EXTRA_CATEGORY_LEXICON, MISASSIGNED_LEXICON)]
    for lexicon in lexicons:
        candidates = enumerate_candidates(props, lexicon)
        # one shared tuple per (props, pairs): the greedy memo's key
        assert enumerate_candidates(props, lexicon) is candidates
        expected = reference_candidates(props, lexicon)
        assert len(candidates) == len(expected)
        for c, (category, noun, action, values) in zip(candidates, expected):
            assert (c.category, c.noun, c.action) == (category, noun, action)
            assert np.array_equal(c.values, values)
            assert_read_only(c.values)

    assert enumerate_candidates(props, default_lexicon()) is enumerate_candidates(props, lexicons[0])

    vector = props.as_vector()
    assert vector is props.as_vector()
    assert np.array_equal(vector, reference_vector(props))
    assert_read_only(vector)


# ---------------------------------------------------------------------------
# action selection
# ---------------------------------------------------------------------------


def test_greedy_pick_and_index_tie_break(lexicon):
    graph = generate_game(GameSpec("easy", 3, 1))
    candidates = enumerate_candidates(start_props(graph), lexicon)
    nets = scripted_rule_networks()
    action, q_values = select_action(candidates, nets, 0.0, random.Random(0))
    best = max(q_values)
    first_best = q_values.index(best)
    assert action == candidates[first_best].action


def test_equal_q_values_resolve_to_lowest_index():
    # constant networks make every candidate tie exactly
    direction = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go",
                           rows=[(np.zeros(8), 1.0, 0.5)], or_bias=1.0)
    money = LnnNetwork("money", CATEGORY_LITERALS["money"], "take",
                       rows=[(np.zeros(2), 1.0, 0.5)], or_bias=1.0)
    nets = {"direction": direction, "money": money}

    graph = generate_game(GameSpec("medium", 2, 0))
    candidates = enumerate_candidates(start_props(graph), default_lexicon())
    action, q_values = select_action(candidates, nets, 0.0, random.Random(1))
    assert len(set(q_values)) == 1
    assert action == candidates[0].action == Action("go", "north")


def test_epsilon_one_is_uniform_within_three_sigma(lexicon):
    graph = generate_game(GameSpec("medium", 3, 2))
    candidates = enumerate_candidates(start_props(graph), lexicon)
    nets = scripted_rule_networks()
    rng = random.Random(123)
    counts = {c.action: 0 for c in candidates}
    n = 10_000
    for _ in range(n):
        action, _ = select_action(candidates, nets, 1.0, rng)
        counts[action] += 1
    expected = n / len(candidates)
    sigma = (n * 0.2 * 0.8) ** 0.5
    for action, count in counts.items():
        assert abs(count - expected) <= 3 * sigma, (action, count)


def loop_index(q_values, epsilon, rng):
    """Epsilon-greedy as a first-best loop, the form `select_action` once had:
    kept as reference."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return rng.randrange(len(q_values))
    best = 0
    for i in range(1, len(q_values)):
        if q_values[i] > q_values[best]:
            best = i
    return best


def argmax_index(q_values, epsilon, rng):
    """Epsilon-greedy as an argmax, the form `MlpScorer.choose` once had (over
    its ten action values): kept as reference."""
    q = np.array(q_values)
    if epsilon > 0.0 and rng.random() < epsilon:
        return rng.randrange(len(q))
    return int(q.argmax())


# a few repeated values make exact ties common, signed zeros included
Q_VALUES = st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])
                    | st.floats(-2.0, 2.0, allow_nan=False), min_size=1, max_size=10)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(q_values=Q_VALUES, epsilon=st.sampled_from([0.0, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_epsilon_greedy_matches_both_former_selections(q_values, epsilon, seed):
    rng = random.Random(seed)
    index = explore(len(q_values), epsilon, rng)
    if index is None:
        index = greedy(q_values)
    for reference in (loop_index, argmax_index):
        reference_rng = random.Random(seed)
        assert reference(q_values, epsilon, reference_rng) == index
        assert reference_rng.getstate() == rng.getstate()


def test_empty_candidate_list_is_a_contract_violation():
    with pytest.raises(ValueError):
        select_action([], scripted_rule_networks(), 0.0, random.Random(0))


# ---------------------------------------------------------------------------
# reward shaping
# ---------------------------------------------------------------------------


def drive(graph, moves):
    """Step through `moves`, returning context needed to score the next action."""
    state, obs = reset(graph)
    agent_map = AgentMap.start(state.room)
    for direction in moves:
        outcome = step(state, Action("go", direction))
        assert outcome.action_valid
        agent_map.record_move(direction, outcome.room_id)
        obs = outcome.observation
    props = extract_propositions(parse_observation(obs), agent_map)
    return state, agent_map, props


def test_first_entry_pays_discovery_bonus():
    graph = generate_game(GameSpec("easy", 3, 0))
    state, agent_map, props = drive(graph, [])
    forward = next(d for d in DIRECTIONS if (graph.start, d) in graph.exits)
    outcome = step(state, Action("go", forward))
    reward = shape_reward(outcome, props, Action("go", forward), "easy", 1.0)
    assert reward == 1.0


def test_revisit_on_easy_pays_nothing():
    graph = generate_game(GameSpec("easy", 3, 0))
    forward = next(d for d in DIRECTIONS if (graph.start, d) in graph.exits)
    state, agent_map, props = drive(graph, [forward])
    back = OPPOSITE[forward]
    outcome = step(state, Action("go", back))
    reward = shape_reward(outcome, props, Action("go", back), "easy", 1.0)
    assert reward == 0.0


def test_medium_dead_end_return_pays_bonus():
    graph = generate_game(GameSpec("medium", 2, 0))
    distractor_dir = next(
        d for d in DIRECTIONS
        if (graph.start, d) in graph.exits
        and graph.exits[(graph.start, d)] not in range(graph.level + 1)
    )
    state, agent_map, props = drive(graph, [distractor_dir])
    back = OPPOSITE[distractor_dir]
    assert props.all_visited and agent_map.entry_direction[agent_map.current] == back
    outcome = step(state, Action("go", back))
    reward = shape_reward(outcome, props, Action("go", back), "medium", 1.0)
    assert reward == 1.0  # room already visited, so this is purely the return bonus


def test_easy_never_pays_return_bonus():
    graph = generate_game(GameSpec("easy", 1, 0))
    forward = next(d for d in DIRECTIONS if (graph.start, d) in graph.exits)
    state, agent_map, props = drive(graph, [forward])
    back = OPPOSITE[forward]
    assert props.all_visited
    outcome = step(state, Action("go", back))
    reward = shape_reward(outcome, props, Action("go", back), "easy", 1.0)
    assert reward == 0.0


def test_invalid_action_rewards_zero_even_with_quest_conditions():
    graph = generate_game(GameSpec("easy", 2, 0))
    state, agent_map, props = drive(graph, [])
    outcome = step(state, Action("go", "coin"))
    assert not outcome.action_valid
    reward = shape_reward(outcome, props, Action("go", "coin"), "easy", 1.0)
    assert reward == 0.0


def test_taking_coin_pays_quest_reward_only():
    graph = generate_game(GameSpec("easy", 1, 0))
    forward = next(d for d in DIRECTIONS if (graph.start, d) in graph.exits)
    state, agent_map, props = drive(graph, [forward])
    outcome = step(state, Action("take", "coin"))
    reward = shape_reward(outcome, props, Action("take", "coin"), "easy", 1.0)
    assert reward == 1.0 and outcome.done


def reference_shaping(outcome, props_before, visited_before, entry_direction_before,
                      action, difficulty, bonus_coefficient):
    """The shaped reward as it was first written, read from the agent's map
    before the step (its visited rooms and the current room's entry
    direction): kept as reference."""
    if not outcome.action_valid:
        return 0.0
    reward = outcome.quest_reward
    if action.verb == "go" and outcome.room_id not in visited_before:
        reward += bonus_coefficient
    if (
        difficulty in ("medium", "hard")
        and action.verb == "go"
        and entry_direction_before is not None
        and action.noun == entry_direction_before
        and props_before.all_visited
    ):
        reward += bonus_coefficient
    return reward


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(difficulty=st.sampled_from(DIFFICULTIES), level=st.integers(1, 8),
       seed=st.integers(0, 2**16), rng_seed=st.integers(0, 2**16),
       make_agent=st.sampled_from([LnnAgent, MlpAgent]),
       bonus=st.sampled_from([1.0, 0.5, 0.25]))
def test_shaping_from_the_facts_equals_shaping_from_the_map(
        lexicon, difficulty, level, seed, rng_seed, make_agent, bonus):
    # an exploring episode stores every step's shaped reward; the MLP also
    # explores actions no candidate proposes, which are invalid
    graph = generate_game(GameSpec(difficulty, level, seed))
    agent = make_agent(TrainerConfig(bonus_coefficient=bonus), run_seed=seed)
    stored, observe = [], agent.observe

    def record(transition):
        stored.append(transition)
        observe(transition)

    agent.observe = record
    report = run_episode(graph, agent, lexicon, mode="train", epsilon=1.0,
                         rng=random.Random(rng_seed))
    assert len(stored) == report.steps

    state, _ = reset(graph)
    agent_map = AgentMap.start(state.room)
    for t in stored:
        outcome = step(state, t.action)
        want = reference_shaping(outcome, t.props, agent_map.visited,
                                 agent_map.entry_direction.get(agent_map.current),
                                 t.action, difficulty, bonus)
        assert t.reward == want
        if outcome.action_valid and t.action.verb == "go":
            agent_map.record_move(t.action.noun, outcome.room_id)


# ---------------------------------------------------------------------------
# TD targets
# ---------------------------------------------------------------------------


def half_value_money_net():
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take",
                     rows=[(np.zeros(2), 1.0, 0.5)], or_bias=1.0)   # q = 0.5 everywhere
    return LnnScorer({"money": net})


def test_terminal_target_is_clamped_reward():
    nets = half_value_money_net()
    assert td_target(make_transition("money", [1, 0], 1.0, True), nets, 0.9) == 1.0
    assert td_target(make_transition("money", [1, 0], 2.0, True), nets, 0.9) == 1.0
    assert td_target(make_transition("money", [1, 0], 0.0, True), nets, 0.9) == 0.0


def test_bootstrap_target_matches_hand_arithmetic():
    nets = half_value_money_net()
    transition = make_transition(
        "money", [1, 0], 0.0, False,
        next_candidates=[("money", np.array([1.0, 0.0]))],
    )
    assert td_target(transition, nets, 0.9) == pytest.approx(0.45)


def test_bootstrap_target_clamps_shaped_rewards():
    nets = half_value_money_net()
    transition = make_transition(
        "money", [1, 0], 2.0, False,
        next_candidates=[("money", np.array([1.0, 0.0]))],
    )
    assert td_target(transition, nets, 0.9) == 1.0


# ---------------------------------------------------------------------------
# replay buffer
# ---------------------------------------------------------------------------


def test_prioritized_pool_holds_only_positive_rewards():
    buffer = ReplayBuffer(capacity=100, priority_fraction=0.25)
    buffer.push(make_transition("money", [1, 0], 1.0, True))
    buffer.push(make_transition("money", [0, 1], 0.0, True))
    buffer.push(make_transition("money", [0, 1], 0.5, True))
    assert len(buffer.prioritized) == 2
    assert all(t.reward > 0 for t in buffer.prioritized)
    assert all(t.reward <= 0 for t in buffer.ordinary)


def test_capacity_and_fifo_eviction():
    buffer = ReplayBuffer(capacity=8, priority_fraction=0.25)
    for i in range(20):
        buffer.push(make_transition("money", [0, 1], 0.0, True))
    assert len(buffer) <= 8
    old = buffer.ordinary[0]
    buffer.push(make_transition("money", [0, 1], 0.0, True))
    assert buffer.ordinary[0] is not old  # FIFO eviction


def test_sampling_takes_the_priority_fraction_when_available():
    buffer = ReplayBuffer(capacity=100, priority_fraction=0.25)
    for _ in range(10):
        buffer.push(make_transition("money", [1, 0], 1.0, True))
        buffer.push(make_transition("money", [0, 1], 0.0, True))
    rng = random.Random(0)
    for _ in range(20):
        batch = buffer.sample(4, rng)
        assert sum(1 for t in batch if t.reward > 0) == 1   # 0.25 * 4


def test_sampling_falls_back_when_a_pool_is_empty():
    buffer = ReplayBuffer(capacity=100, priority_fraction=0.25)
    buffer.push(make_transition("money", [1, 0], 1.0, True))
    batch = buffer.sample(4, random.Random(0))
    assert len(batch) == 4
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=10, priority_fraction=0.25).sample(4, random.Random(0))


def replay_key(t):
    """What makes two stored steps the same transition: the same records,
    the same terminal flag and the same reward bits."""
    return (id(t.props), id(t.action), id(t.next_props), id(t.next_candidates),
            id(t.chosen), t.terminal, t.reward.hex())


@pytest.mark.parametrize("make_agent", [LnnAgent, MlpAgent], ids=["lnn", "nn"])
def test_replay_keeps_one_record_per_distinct_transition(make_agent, lexicon):
    # a tiny medium run: most steps repeat an earlier transition
    agent = make_agent(TrainerConfig(), run_seed=3)
    graphs = [generate_game(GameSpec("medium", 5, seed)) for seed in range(3)]
    for epoch in range(12):
        run_episode(graphs[epoch % 3], agent, lexicon, mode="train", epsilon=0.5,
                    rng=random.Random(epoch))
    stored = [t for pool in (agent.buffer.prioritized, agent.buffer.ordinary) for t in pool]
    assert len(agent.buffer) == len(stored) == agent.env_steps
    records = {id(t): t for t in stored}
    keys = {replay_key(t) for t in records.values()}
    assert len(keys) == len(records) < len(stored)


def test_replay_keeps_signed_zero_rewards_and_terminal_flags_apart():
    chosen = make_candidate("money", [1, 0])
    props = as_props(np.zeros(26))
    steps = [Transition(props, chosen.action, reward, terminal, props, (), chosen)
             for reward in (0.0, -0.0) for terminal in (False, True)]
    buffer = ReplayBuffer(capacity=100, priority_fraction=0.0)
    for transition in steps * 2:
        buffer.push(transition)
    # the second round reuses the first round's four records
    assert [id(t) for t in buffer.ordinary] == [id(t) for t in steps] * 2
    rng, reference_rng = random.Random(5), random.Random(5)
    for _ in range(20):
        for got in buffer.sample(4, rng):
            want = (steps * 2)[reference_rng.randrange(8)]
            assert (got.reward.hex(), got.terminal) == (want.reward.hex(), want.terminal)


# ---------------------------------------------------------------------------
# epsilon schedule
# ---------------------------------------------------------------------------


def test_epsilon_schedule_endpoints_and_midpoint():
    config = TrainerConfig()
    assert epsilon_at(0, config) == 1.0
    assert epsilon_at(1000, config) == pytest.approx(0.2)
    assert epsilon_at(500, config) == pytest.approx(0.6)
    assert epsilon_at(2000, config) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        epsilon_at(-1, config)


def test_trainer_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(gamma=1.0)
    with pytest.raises(ValueError):
        TrainerConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainerConfig(priority_fraction=1.5)
    for bad in ({"learning_rate": float("nan")}, {"learning_rate": -1e-3},
                {"learning_rate": float("inf")}, {"epsilon_start": 1.5},
                {"epsilon_end": -0.1}, {"bonus_coefficient": -1.0},
                {"bonus_coefficient": float("inf")}, {"alpha": 0.3},
                {"alpha": float("nan")}):
        with pytest.raises(ValueError):
            TrainerConfig(**bad)
    TrainerConfig(learning_rate=0.0, epsilon_start=0.0, epsilon_end=1.0, bonus_coefficient=0.0)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_take_coin_micro_convergence():
    config = TrainerConfig()
    agent = LnnAgent(config, run_seed=4)
    agent.buffer.push(make_transition("money", [1.0, 0.0], 1.0, True))
    for _ in range(50):
        agent.train_step()
    q, _ = agent.scorer.nets["money"].forward(np.array([1.0, 0.0]))
    assert q >= config.alpha


def test_train_step_on_empty_buffer_raises():
    agent = LnnAgent(TrainerConfig())
    with pytest.raises(ValueError):
        agent.train_step()


def test_zero_learning_rate_leaves_parameters_bitwise():
    agent = LnnAgent(TrainerConfig(learning_rate=0.0), run_seed=1)
    agent.buffer.push(make_transition("money", [0.0, 1.0], 0.0, True))
    before = {c: named(net, net.buffer) for c, net in agent.scorer.nets.items()}
    agent.train_step()
    for c, net in agent.scorer.nets.items():
        for k, v in named(net, net.buffer).items():
            assert np.array_equal(v, before[c][k]), (c, k)


def zeroed_networks(config):
    """Networks whose q is exactly 0 on every crisp input."""
    nets = fresh_networks(config)
    nets["money"] = LnnNetwork("money", CATEGORY_LITERALS["money"], CATEGORY_VERBS["money"],
                               config.alpha, config.gate_cap,
                               rows=[(np.ones(2), 1.0, 1.0)], or_bias=1.25)
    return nets


def test_zero_rewards_and_zero_q_leave_argmax_unchanged(lexicon):
    config = TrainerConfig()
    agent = trainer(config, zeroed_networks(config), run_seed=2)
    graph = generate_game(GameSpec("medium", 3, 5))
    candidates = enumerate_candidates(start_props(graph), lexicon)

    def argmax_action():
        action, _ = select_action(candidates, agent.scorer.nets, 0.0, random.Random(0))
        return action

    before_action = argmax_action()
    before = parameter_bytes(agent)
    for noun in ("north", "east", "coin"):
        category = "money" if noun == "coin" else "direction"
        facts = [1.0, 0.0] if category == "money" else [1, 0, 0, 1, 0, 1, 0, 1]
        agent.buffer.push(make_transition(
            category, facts, 0.0, False,
            next_candidates=[("money", np.array([0.0, 1.0]))],
        ))
    for _ in range(100):
        agent.train_step()
    assert argmax_action() == before_action
    assert parameter_bytes(agent) == before


def test_induction_respects_gate_cap():
    config = TrainerConfig(gate_cap=3)
    agent = LnnAgent(config, run_seed=3)
    rng = np.random.default_rng(0)
    for _ in range(12):
        facts = np.zeros(8)
        facts[rng.integers(0, 8, size=3)] = 1.0
        agent.buffer.push(make_transition("direction", facts, 1.0, True))
    for _ in range(60):
        agent.train_step()
    assert len(agent.scorer.nets["direction"].rows()) <= 3


def test_induction_does_not_duplicate_matching_patterns():
    agent = LnnAgent(TrainerConfig(), run_seed=5)
    facts = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    for _ in range(6):
        agent.buffer.push(make_transition("direction", facts, 1.0, True))
    for _ in range(30):
        agent.train_step()
    assert len(agent.scorer.nets["direction"].rows()) == 2  # initial gate + one induced


def test_target_networks_refresh_on_schedule():
    config = TrainerConfig(target_update_period=5)
    agent = LnnAgent(config, run_seed=6)
    agent.buffer.push(make_transition("money", [1.0, 0.0], 1.0, True))
    agent.train_step()  # induces a gate on the online net only
    assert len(agent.scorer.nets["money"].rows()) != len(agent.target.nets["money"].rows())
    for _ in range(4):
        agent.train_step()
    assert len(agent.scorer.nets["money"].rows()) == len(agent.target.nets["money"].rows())


# ---------------------------------------------------------------------------
# memo
# ---------------------------------------------------------------------------


def test_memo_keys_records_by_identity_and_a_deep_copy_shares_its_entries():
    memo, computed = Memo(), []

    def compute(record):
        computed.append(record)
        return record.sum()

    a, b = np.ones(3), np.ones(3)
    assert memo.of(a, compute) == memo.of(a, compute) == memo.of(b, compute) == 3.0
    # equal but distinct records are computed once each
    assert computed == [a, b] and computed[0] is a and computed[1] is b
    # an entry holds its record, so the id cannot be reused while it stands
    assert memo[id(a)][0] is a and memo[id(b)][0] is b

    copied = copy.deepcopy(memo)
    assert type(copied) is Memo and copied is not memo
    assert all(copied[key] is entry for key, entry in memo.items()) and len(copied) == 2
    assert copied.of(a, compute) == 3.0 and len(computed) == 2
    copied.clear()
    assert len(memo) == 2 and memo[id(a)][0] is a


def crisp(bits):
    """A category's literal vector: each fact followed by its complement."""
    return np.array([v for bit in bits for v in (float(bit), float(not bit))])


CRISP_FACTS = {
    "direction": st.tuples(*[st.booleans()] * 4).map(crisp),
    "money": st.tuples(st.booleans()).map(crisp),
}
CATEGORY_FACTS = st.sampled_from(sorted(CRISP_FACTS)).flatmap(
    lambda category: st.tuples(st.just(category), CRISP_FACTS[category]))

# score: fill the memo through `q` on a shared grounding; choose: a greedy
# choice in a shared state, which may have been scored before; train: push a
# transition and take a full train_step (induction, Adam, projection, target
# refresh); induce: induction alone; snapshot: keep a copy that must stay
# exact as the online scorer moves on
MEMO_OPS = st.lists(st.one_of(
    st.tuples(st.just("score"), CATEGORY_FACTS),
    st.tuples(st.just("choose"), st.sampled_from(SHARED_STATES)),
    st.tuples(st.just("train"), CATEGORY_FACTS, st.sampled_from([0.0, 0.5, 1.0, 2.0]),
              st.lists(CATEGORY_FACTS, max_size=5), st.booleans()),
    st.tuples(st.just("induce"), CATEGORY_FACTS),
    st.tuples(st.just("snapshot")),
), min_size=1, max_size=25)

CATEGORY_BY_ARITY = {len(literals): category for category, literals in CATEGORY_LITERALS.items()}


def assert_memo_is_exact(scorer, upstream):
    # every kept forward pass and greedy choice equals fresh forward passes on
    # today's parameters, bit for bit
    for key, (record, value) in scorer.memo.items():
        assert key == id(record)
        # a candidate tuple's greedy choice, else a values tuple's forward pass
        if isinstance(record[0], Candidate):
            action, q_values = value
            want_action, want_q = select_action(record, scorer.nets, 0.0, random.Random(0))
            assert action == want_action
            assert float_bits(q_values) == float_bits(want_q)
            continue
        net = scorer.nets[CATEGORY_BY_ARITY[len(record)]]
        q, trace = value
        assert trace.facts is record
        fresh_q, fresh = net.forward(list(record))
        assert q == fresh_q
        assert np.array_equal(trace.facts, fresh.facts)
        assert np.array_equal(trace.and_pre, fresh.and_pre)
        assert np.array_equal(trace.and_out, fresh.and_out)
        assert trace.or_pre == fresh.or_pre
        cached_grads = named(net, net.gradients(trace, upstream))
        fresh_grads = named(net, net.gradients(fresh, upstream))
        assert cached_grads.keys() == fresh_grads.keys()
        for name, grad in cached_grads.items():
            assert np.array_equal(grad, fresh_grads[name]), (net.category, name)


def assert_parameters_in_domain(scorer):
    # the projection's invariant: finite and nonnegative, OR weights at most 1
    for net in scorer.nets.values():
        for name, p in named(net, net.buffer).items():
            assert np.all(np.isfinite(p)) and np.all(np.asarray(p) >= 0.0), name
            if name.endswith(".or.w"):
                assert np.all(np.asarray(p) <= 1.0), name


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ops=MEMO_OPS, seed=st.integers(0, 2**16),
       learning_rate=st.sampled_from([1e-3, 0.05, 0.3]),
       upstream=st.floats(-2.0, 2.0, allow_nan=False))
def test_memo_entries_equal_a_fresh_forward(lexicon, ops, seed, learning_rate, upstream):
    config = TrainerConfig(learning_rate=learning_rate, gate_cap=3, batch_size=2,
                           target_update_period=3)
    agent = LnnAgent(config, run_seed=seed)
    snapshots = []
    for op in ops:
        if op[0] == "score":
            category, facts = op[1]
            agent.scorer.q(make_transition(category, facts, 0.0, True,
                                           candidate=shared_candidate))
        elif op[0] == "choose":
            candidates = enumerate_candidates(op[1], lexicon)
            action, q_values = agent.choose(op[1], candidates, 0.0, random.Random(0))
            record, (kept_action, kept_q) = agent.scorer.memo[id(candidates)]
            assert record is candidates
            assert (action, q_values) == (kept_action, kept_q) and q_values is not kept_q
        elif op[0] == "train":
            (category, facts), reward, next_candidates, terminal = op[1:]
            agent.buffer.push(make_transition(category, facts, reward, terminal,
                                              next_candidates, candidate=shared_candidate))
            agent.train_step()
        elif op[0] == "induce":
            category, facts = op[1]
            agent.scorer.before_batch([make_transition(category, facts, 1.0, True,
                                                       candidate=shared_candidate)])
        else:
            snapshots.append(copy.deepcopy(agent.scorer))
        for scorer in (agent.scorer, agent.target, *snapshots):
            assert_memo_is_exact(scorer, upstream)
            assert_parameters_in_domain(scorer)


# up: every gradient positive, so Adam pushes every parameter down (biases
# below 0); down: every gradient negative (OR weights above 1); mixed: random signs
GRADIENT_SIGNS = st.sampled_from(["up", "down", "mixed"])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), learning_rate=st.sampled_from([0.3, 3.0, 30.0]),
       induced=st.lists(CATEGORY_FACTS, max_size=4),
       signs=st.lists(GRADIENT_SIGNS, min_size=1, max_size=12))
def test_projection_keeps_every_parameter_in_its_domain(seed, learning_rate, induced, signs):
    scorer = LnnScorer(fresh_networks(TrainerConfig(gate_cap=5)))
    for category, facts in induced:
        scorer.nets[category].add_and_gate(facts)
    optimizer = AdamOptimizer(learning_rate)
    rng = np.random.default_rng(seed)
    for sign in signs:
        params = scorer.parameters()
        grads = {}
        for category, buffer in params.items():
            if sign == "mixed":
                direction = rng.choice([-1.0, 1.0], size=len(buffer))
            else:
                direction = 1.0 if sign == "up" else -1.0
            grads[category] = (direction * rng.uniform(0.1, 10.0, size=len(buffer))).tolist()
        optimizer.step(params, grads)
        scorer.after_step(grads)
        assert_parameters_in_domain(scorer)


# out of the domain too: the projection must agree with `np.clip` on every bit
PROJECTION_VALUES = (st.sampled_from([0.0, -0.0, -1.0, 0.5, 1.0, 2.0, -5e-324, 5e-324,
                                      float("nan"), float("inf"), -float("inf")])
                     | st.floats(-10.0, 10.0, allow_nan=False))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(induced=st.lists(CATEGORY_FACTS, max_size=4), data=st.data())
def test_projection_equals_np_clip_bit_for_bit(induced, data):
    scorer = LnnScorer(fresh_networks(TrainerConfig(gate_cap=5)))
    for category, facts in induced:
        scorer.nets[category].add_and_gate(facts)
    for p in scorer.parameters().values():
        p[:] = data.draw(st.lists(PROJECTION_VALUES, min_size=len(p), max_size=len(p)))
    reference = copy.deepcopy(scorer)
    stepped = data.draw(st.sets(st.sampled_from(sorted(scorer.nets))))
    scorer.after_step(stepped)
    # the projection as `np.clip` on every named parameter, each held as its
    # own array as the network once held it: kept as reference
    want = {category: {name: np.array(p) for name, p in named(net, net.buffer).items()}
            for category, net in reference.nets.items()}
    for category in stepped:
        for name, p in want[category].items():
            np.clip(p, OR_BIAS_FLOOR if name.endswith(".or.b") else 0.0,
                    1.0 if name.endswith(".or.w") else None, out=p)
    for category, net in scorer.nets.items():
        for name, p in named(net, net.buffer).items():
            assert same_bits(p, want[category][name]), name


# ---------------------------------------------------------------------------
# exploration scores nothing
# ---------------------------------------------------------------------------


def walk_states(graph, lexicon, n_steps, seed):
    """(props, candidates) of a random walk through `graph`, as `run_episode` reads them."""
    state, obs = reset(graph)
    agent_map = AgentMap.start(state.room)
    rng = random.Random(seed)
    states = []
    for _ in range(n_steps):
        props = extract_propositions(parse_observation(obs), agent_map)
        candidates = enumerate_candidates(props, lexicon)
        states.append((props, candidates))
        action = rng.choice(candidates).action
        outcome = step(state, action)
        if outcome.action_valid and action.verb == "go":
            agent_map.record_move(action.noun, outcome.room_id)
        obs = outcome.observation
        if outcome.done:
            break
    return states


@contextlib.contextmanager
def counting_forward(make_agent):
    """Count the forward passes of the scorer `make_agent` builds."""
    owner = LnnNetwork if make_agent is LnnAgent else MlpScorer
    calls = []
    original = owner.forward

    def counted(self, x):
        calls.append(x)
        return original(self, x)

    with mock.patch.object(owner, "forward", counted):
        yield calls


@pytest.mark.parametrize("make_agent", [LnnAgent, MlpAgent], ids=["lnn", "mlp"])
def test_an_exploring_choice_runs_no_forward_pass(lexicon, make_agent):
    agent = make_agent(TrainerConfig(), run_seed=4)
    states = walk_states(generate_game(GameSpec("medium", 4, 3)), lexicon, 40, seed=1)
    rng = random.Random(5)
    with counting_forward(make_agent) as calls:
        for props, candidates in states * 5:
            _, q_values = agent.choose(props, candidates, 1.0, rng)
            assert q_values is None
        assert calls == []
        # a greedy choice does score
        _, q_values = agent.choose(*states[0], 0.0, rng)
        assert q_values is not None and calls


def reference_choose(agent, props, candidates, epsilon, rng):
    """Score every action with fresh forward passes, then `loop_index`."""
    scorer = agent.scorer
    if isinstance(scorer, LnnScorer):
        q_values = [scorer.nets[c.category].forward(c.values)[0] for c in candidates]
        return candidates[loop_index(q_values, epsilon, rng)].action, q_values
    q_values = scorer.forward(props.as_vector())[0].tolist()
    return ALL_ACTIONS[loop_index(q_values, epsilon, rng)], q_values


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(make_agent=st.sampled_from([LnnAgent, MlpAgent]),
       epsilon=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       game_seed=st.integers(0, 2**16), rng_seed=st.integers(0, 2**32 - 1))
def test_choices_and_rng_state_equal_scoring_everything_first(
        lexicon, make_agent, epsilon, game_seed, rng_seed):
    agent = make_agent(TrainerConfig(), run_seed=game_seed)
    states = walk_states(generate_game(GameSpec("medium", 5, game_seed)), lexicon, 30, game_seed)
    rng, reference_rng = random.Random(rng_seed), random.Random(rng_seed)
    for props, candidates in states:
        action, q_values = agent.choose(props, candidates, epsilon, rng)
        want_action, want_q = reference_choose(agent, props, candidates, epsilon, reference_rng)
        assert action == want_action
        assert rng.getstate() == reference_rng.getstate()
        assert q_values is None or q_values == want_q


@pytest.mark.parametrize("make_agent", [LnnAgent, MlpAgent], ids=["lnn", "mlp"])
def test_a_traced_exploring_episode_writes_fresh_greedy_scores(lexicon, make_agent):
    graph = generate_game(GameSpec("medium", 5, 7))
    agent = make_agent(TrainerConfig(update_period=1), run_seed=6)
    fresh, observe, sink = [], agent.observe, io.StringIO()

    def record(transition):
        # the trace line of this step is written; training has not run yet
        candidates = enumerate_candidates(transition.props, lexicon)
        fresh.append(reference_choose(agent, transition.props, candidates,
                                      0.0, random.Random(0))[1])
        assert sink.getvalue().count("\n") == len(fresh)
        observe(transition)

    agent.observe = record
    report = run_episode(graph, agent, lexicon, mode="train", epsilon=1.0,
                         rng=random.Random(3), trace=sink)
    trace = sink.getvalue().splitlines()
    assert len(trace) == len(fresh) == report.steps
    for line, q_values in zip(trace, fresh):
        assert f"q=[{' '.join(f'{q:.3f}' for q in q_values)}]" in line

    # tracing draws nothing: the untraced episode takes the same actions
    untraced = make_agent(TrainerConfig(update_period=1), run_seed=6)
    report_untraced = run_episode(graph, untraced, lexicon, mode="train", epsilon=1.0,
                                  rng=random.Random(3))
    def actions(a):
        return [t.action for pool in (a.buffer.prioritized, a.buffer.ordinary) for t in pool]

    assert report_untraced.steps == report.steps and actions(untraced) == actions(agent)
    assert parameter_bytes(agent) == parameter_bytes(untraced)


# ---------------------------------------------------------------------------
# episode loop
# ---------------------------------------------------------------------------


def test_scripted_networks_solve_easy_level5_in_six_steps(lexicon):
    policy = LnnScorer(scripted_rule_networks())
    for seed in range(5):
        graph = generate_game(GameSpec("easy", 5, seed))
        report = run_episode(graph, policy, lexicon, mode="eval")
        assert report.quest_reward == 1.0
        assert report.steps == 6


def reference_scripted_networks():
    """The hand-wired networks built as they once were: a network with no
    rows, then one `add_and_gate` per rule."""
    def wired(category, or_bias, *rules):
        net = LnnNetwork(category, CATEGORY_LITERALS[category], CATEGORY_VERBS[category],
                         rows=[], or_bias=or_bias)
        for rule in rules:
            net.add_and_gate([1.0 if name in rule else 0.0 for name in net.literals])
        return net

    return {
        "money": wired("money", 1.0, ("find_x",)),
        "direction": wired("direction", 1.25, ("find_x", "not_visited_x", "not_initial_x"),
                           ("find_x", "all_visited", "initial_x")),
    }


def test_scripted_networks_are_built_once_each_as_add_and_gate_builds_them():
    with counting_constructions() as calls:
        nets = scripted_rule_networks()
    assert sorted(map(id, calls)) == sorted(map(id, nets.values()))
    reference = reference_scripted_networks()
    assert nets.keys() == reference.keys()
    for category, net in nets.items():
        want = reference[category]
        assert (net.category, net.literals, net.verb, net.alpha, net.gate_cap) == (
            want.category, want.literals, want.verb, want.alpha, want.gate_cap)
        assert same_bits(net.buffer, want.buffer)


@pytest.mark.parametrize("make_agent", [
    lambda: trainer(TrainerConfig(), scripted_rule_networks()),
    lambda: MlpAgent(TrainerConfig(), run_seed=4),
], ids=["lnn", "mlp"])
def test_an_eval_plays_any_object_with_choose(lexicon, make_agent):
    """An evaluation reads nothing of its player but `choose`, so a bare
    scorer plays it as the agent around it does."""
    agent = make_agent()
    graphs = [generate_game(GameSpec("hard", level, seed)) for level in (5, 25) for seed in range(3)]
    choose_only = types.SimpleNamespace(choose=agent.scorer.choose)
    with mock.patch.object(agent_module, "shape_reward", wraps=shape_reward) as shaping:
        reports = [run_episode(graph, choose_only, lexicon, mode="eval") for graph in graphs]
        assert reports == [run_episode(graph, agent, lexicon, mode="eval") for graph in graphs]
    # nothing reads an eval step's shaped reward, so none is computed
    assert shaping.call_count == 0
    assert evaluate(choose_only, graphs, lexicon) == evaluate(agent, graphs, lexicon)


def test_an_eval_episode_refuses_a_trace_before_its_first_step(lexicon):
    """Only a training episode shapes rewards, so only it writes a trace; a
    bare scorer, as `lnnrl eval` plays, is refused before any step."""
    graph = generate_game(GameSpec("easy", 2, 0))
    sink = io.StringIO()
    with mock.patch.object(agent_module, "step", wraps=step) as steps, \
            pytest.raises(ValueError, match="training episode"):
        run_episode(graph, LnnScorer(scripted_rule_networks()), lexicon, mode="eval", trace=sink)
    assert steps.call_count == 0 and sink.getvalue() == ""


def test_untrained_networks_stall_near_the_step_cap(lexicon):
    policy = LnnScorer(fresh_networks(TrainerConfig()))
    steps = []
    rewards = []
    for seed in range(10):
        graph = generate_game(GameSpec("easy", 5, seed))
        report = run_episode(graph, policy, lexicon, mode="eval")
        steps.append(report.steps)
        rewards.append(report.quest_reward)
    assert sum(steps) / len(steps) >= 90
    assert sum(rewards) / len(rewards) <= 0.1


class CountingPlayer:
    """A player whose `choose` counts its calls."""

    def __init__(self, player):
        self.player, self.calls = player, 0

    def choose(self, props, candidates, epsilon, rng):
        self.calls += 1
        return self.player.choose(props, candidates, epsilon, rng)


def reference_eval(graph, player, lexicon):
    """An evaluation that asks `player` on every step, through a fresh
    reading of each; and the number of states it entered: the first, and
    each after a step whose records are not the ones it left."""
    state, obs = reset(graph)
    agent_map = AgentMap.start(state.room)
    props = extract_propositions(parse_observation(obs), agent_map)
    quest_reward, entered, last = 0.0, 0, ()
    while not state.done:
        candidates = enumerate_candidates(props, lexicon)
        entered += not same_records(last, (props, candidates))
        last = (props, candidates)
        action, _ = player.choose(props, candidates, 0.0, random.Random(0))
        outcome = step(state, action)
        quest_reward += outcome.quest_reward
        if outcome.action_valid and action.verb == "go":
            agent_map.record_move(action.noun, outcome.room_id)
        props = extract_propositions(parse_observation(outcome.observation), agent_map)
    return EpisodeReport(quest_reward, state.steps), entered


@pytest.mark.parametrize("make_player", [
    lambda: LnnAgent(TrainerConfig(), run_seed=2),
    lambda: MlpAgent(TrainerConfig(), run_seed=4),
    lambda: LnnScorer(scripted_rule_networks()),
], ids=["lnn", "mlp", "oracle"])
def test_an_evaluation_asks_its_player_once_per_state(lexicon, make_player):
    """An eval plays as a loop that asks on every step does, and asks once
    per state it enters: its choice is greedy, with fixed parameters."""
    player = make_player()
    asked = steps = 0
    for difficulty in DIFFICULTIES:
        for level, seed in ((2, 0), (5, 1), (15, 2)):
            graph = generate_game(GameSpec(difficulty, level, seed))
            want, entered = reference_eval(graph, player, lexicon)
            counting = CountingPlayer(player)
            assert run_episode(graph, counting, lexicon, mode="eval") == want
            assert counting.calls == entered
            asked, steps = asked + entered, steps + want.steps
    if isinstance(player, MlpAgent):
        # the untrained MLP sticks: it repeats an action that changes nothing
        assert asked * 10 < steps


def test_an_eval_scores_each_candidate_tuple_once(lexicon):
    # the scripted networks never change, so each state's greedy choice is
    # scored once, and each shared values tuple runs one forward pass
    scorer = LnnScorer(scripted_rule_networks())
    seen, choose, scored = {}, scorer.choose, []
    score = LnnScorer._greedy

    def record_choose(props, candidates, epsilon, rng):
        seen[id(candidates)] = candidates
        return choose(props, candidates, epsilon, rng)

    def counted(scorer, candidates):
        scored.append(candidates)
        return score(scorer, candidates)

    scorer.choose = record_choose
    graphs = [generate_game(GameSpec("hard", level, seed))
              for level in (5, 15, 25) for seed in range(4)]
    with mock.patch.object(LnnScorer, "_greedy", counted), \
            counting_forward(LnnAgent) as calls:
        _, mean_steps = evaluate(scorer, graphs, lexicon)
    assert all(len(candidates) == 5 for candidates in seen.values())
    assert sorted(map(id, scored)) == sorted(seen)
    values = {id(c.values) for candidates in seen.values() for c in candidates}
    # 16 direction tuples and 2 coin tuples at most
    assert len(calls) == len(values) <= 18
    assert {id(x) for x in calls} == values
    # states recur, so scoring every step would have cost more
    assert len(seen) < mean_steps * len(graphs)


def test_eval_mode_mutates_no_parameters(lexicon):
    agent = LnnAgent(TrainerConfig(), run_seed=7)
    graph = generate_game(GameSpec("medium", 3, 1))
    before = parameter_bytes(agent)
    run_episode(graph, agent, lexicon, mode="eval")
    assert parameter_bytes(agent) == before
    assert len(agent.buffer) == 0


def test_train_mode_stores_transitions_and_learns(lexicon):
    agent = LnnAgent(TrainerConfig(), run_seed=8)
    graph = generate_game(GameSpec("easy", 2, 1))
    report = run_episode(graph, agent, lexicon, mode="train", epsilon=1.0,
                         rng=random.Random(0))
    assert len(agent.buffer) == report.steps
    assert agent.env_steps == report.steps


@pytest.mark.parametrize("make_agent", [LnnAgent, MlpAgent], ids=["lnn", "mlp"])
def test_train_mode_stores_the_shared_records_choose_saw(lexicon, make_agent):
    agent = make_agent(TrainerConfig(), run_seed=9)
    stored = []
    observe = agent.observe

    def record(transition):
        stored.append(transition)
        observe(transition)

    agent.observe = record
    graph = generate_game(GameSpec("medium", 3, 2))
    report = run_episode(graph, agent, lexicon, mode="train", epsilon=1.0,
                         rng=random.Random(0))
    assert len(stored) == report.steps

    # step the same game through the stored actions, rebuilding each step's records
    state, obs = reset(graph)
    agent_map = AgentMap.start(state.room)
    props = extract_propositions(parse_observation(obs), agent_map)
    for t, following in zip(stored, stored[1:] + [None]):
        assert t.props is props
        candidates = enumerate_candidates(props, lexicon)
        outcome = step(state, t.action)
        if outcome.action_valid and t.action.verb == "go":
            agent_map.record_move(t.action.noun, outcome.room_id)
        props = extract_propositions(parse_observation(outcome.observation), agent_map)
        assert t.next_props is props
        assert t.terminal == outcome.done
        if following is not None:
            assert t.next_candidates is enumerate_candidates(following.props, lexicon)
            assert t.next_props is following.props

        if make_agent is LnnAgent:
            # the candidate the action came from, recorded when the step was stored
            assert t.chosen in candidates and t.chosen.action is t.action
            assert t.chosen is next(c for c in candidates if c.action == t.action)
        else:
            # the MLP reads actions only, and explores all ten, some of which
            # no candidate proposes
            assert t.chosen is None
    assert stored[-1].terminal
    if make_agent is MlpAgent:
        assert any(t.action not in [c.action for c in enumerate_candidates(t.props, lexicon)]
                   for t in stored)


def same_records(a, b):
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def oracle_agent(config, run_seed):
    return trainer(config, scripted_rule_networks(), run_seed)


def recording(fn, log):
    """`fn`, appending each call's (args, result) to `log`."""
    def wrapped(*args):
        result = fn(*args)
        log.append((args, result))
        return result
    return wrapped


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(difficulty=st.sampled_from(DIFFICULTIES), level=st.integers(1, 8),
       game_seed=st.integers(0, 2**16), epsilon=st.sampled_from([0.0, 0.3, 1.0]),
       mode=st.sampled_from(["train", "eval"]),
       make_agent=st.sampled_from([LnnAgent, MlpAgent, oracle_agent]))
def test_each_observation_is_read_once_and_equals_a_fresh_reading(
        lexicon, difficulty, level, game_seed, epsilon, mode, make_agent):
    graph = generate_game(GameSpec(difficulty, level, game_seed))
    passes = []

    # the same episode twice, by two equal agents: the second pass finds every
    # room it enters in the graph's memo, so it renders and parses nothing
    for _ in range(2):
        agent = make_agent(TrainerConfig(), run_seed=game_seed)
        seen, stored = [], []
        choose, observe = agent.choose, agent.observe

        def record_choose(props, candidates, eps, rng):
            action, q_values = choose(props, candidates, eps, rng)
            seen.append((props, candidates, action))
            return action, q_values

        agent.choose = record_choose
        agent.observe = lambda t: (stored.append(t), observe(t))
        read_before = set(graph.readings)
        logs = {name: [] for name in ("step", "render_observation", "parse_observation",
                                      "extract_propositions", "enumerate_candidates")}
        with contextlib.ExitStack() as patches:
            for name, log in logs.items():
                patches.enter_context(mock.patch.object(
                    agent_module, name, recording(getattr(agent_module, name), log)))
            report = run_episode(graph, agent, lexicon, mode=mode, epsilon=epsilon,
                                 rng=random.Random(game_seed))
        passes.append((seen, dict(graph.readings)))

        # every text the loop read is the room's own rendering, of a room not read before
        rendered = [room for (_, room), _ in logs["render_observation"]]
        assert sorted(rendered) == sorted(set(graph.readings) - read_before)
        for (g, room), text in logs["render_observation"]:
            assert g is graph and text == render_observation(graph, room)
        actions = [args[1] for args, _ in logs["step"]]
        outcomes = [outcome for _, outcome in logs["step"]]
        assert len(outcomes) == report.steps
        assert len(stored) == (report.steps if mode == "train" else 0)
        for outcome in outcomes:
            assert outcome.observation == render_observation(graph, outcome.room_id)

        # replay the actions through a fresh reading of every step, and an
        # eval's through a fresh greedy choice too
        state, _ = reset(graph)
        agent_map = AgentMap.start(state.room)
        props = extract_propositions(parse_observation(render_observation(graph, graph.start)),
                                     agent_map)
        moves, asked, last = 0, 0, ()
        for k, (action, outcome) in enumerate(zip(actions, outcomes)):
            candidates = enumerate_candidates(props, lexicon)
            # training asks on every step; an eval on each state it enters:
            # the first, and each whose records are not the last step's
            if mode == "train" or not same_records(last, (props, candidates)):
                seen_props, seen_candidates, seen_action = seen[asked]
                assert seen_props is props
                assert same_records(seen_candidates, candidates)
                assert seen_action == action
                asked += 1
            if mode == "eval":
                assert reference_choose(agent, props, candidates, 0.0, random.Random(0))[0] == action
            last = (props, candidates)
            replayed = step(state, action)
            assert (replayed.room_id, replayed.action_valid, replayed.done) == (
                outcome.room_id, outcome.action_valid, outcome.done)
            if replayed.action_valid and action.verb == "go":
                agent_map.record_move(action.noun, replayed.room_id)
                moves += 1
            next_props = extract_propositions(
                parse_observation(render_observation(graph, replayed.room_id)), agent_map)
            if mode == "train":
                t = stored[k]
                assert t.props is props
                assert t.action == action and t.terminal == replayed.done
                assert t.next_props is next_props
                assert same_records(t.next_candidates, enumerate_candidates(next_props, lexicon))
            props = next_props
        assert asked == len(seen)

        # each rendered text is parsed once, into the memo; one extract and
        # enumeration per move, plus one
        parsed = [args[0] for args, _ in logs["parse_observation"]]
        assert parsed == [text for _, text in logs["render_observation"]]
        assert len(logs["extract_propositions"]) == moves + 1
        assert len(logs["enumerate_candidates"]) == moves + 1

    (first, readings), (second, readings_after) = passes
    assert len(parsed) == 0 and readings_after == readings and graph.start in readings
    assert all(readings_after[room] is reading for room, reading in readings.items())
    assert len(first) == len(second)
    for (props, candidates, action), (props2, candidates2, action2) in zip(first, second):
        assert props2 is props and candidates2 is candidates and action2 == action


def test_trace_lines_carry_facts_and_q_values(lexicon):
    policy = trainer(TrainerConfig(), scripted_rule_networks())
    graph = generate_game(GameSpec("easy", 2, 0))
    sink = io.StringIO()
    report = run_episode(graph, policy, lexicon, mode="train", trace=sink, epoch=7)
    trace = sink.getvalue().splitlines()
    assert len(trace) == report.steps
    for line in trace:
        assert line.startswith("epoch=7 step=")
        assert "facts=" in line and "action=" in line and "q=[" in line
    bits = trace[0].split("facts=")[1].split()[0]
    assert len(bits) == 26 and set(bits) <= {"0", "1"}

