"""Candidate grounding, action selection, shaping, replay, TD targets, training."""

import random

import numpy as np
import pytest

from lnnrl.agent import (
    CANDIDATE_NOUNS,
    LnnAgent,
    LnnScorer,
    ReplayBuffer,
    TrainerConfig,
    Transition,
    enumerate_candidates,
    epsilon_at,
    fresh_networks,
    run_episode,
    scripted_rule_networks,
    select_action,
    shape_reward,
    td_target,
)
from lnnrl.factextract import (
    CATEGORY_LITERALS,
    AgentMap,
    extract_propositions,
    parse_observation,
)
from lnnrl.lexicon import parse_lexicon
from lnnrl.lnn import AND, OR, LnnNetwork, LogicNode
from lnnrl.worldsim import (
    DIRECTIONS,
    OPPOSITE,
    Action,
    GameSpec,
    generate_game,
    reset,
    step,
)


def start_props(graph):
    state, obs = reset(graph)
    agent_map = AgentMap.start(state.room)
    return extract_propositions(parse_observation(obs), agent_map)


def make_transition(category, facts, reward, terminal, next_candidates=()):
    return Transition(
        action=Action("take", "coin"), category=category,
        facts=np.asarray(facts, dtype=float), reward=reward,
        next_candidates=tuple(next_candidates), terminal=terminal,
    )


# ---------------------------------------------------------------------------
# candidate enumeration
# ---------------------------------------------------------------------------


def test_exactly_five_candidates_in_fixed_order(lexicon):
    graph = generate_game(GameSpec("medium", 3, 0))
    candidates = enumerate_candidates(start_props(graph), lexicon)
    assert [c.noun for c in candidates] == list(CANDIDATE_NOUNS)
    assert [c.action for c in candidates] == [
        Action("go", "north"), Action("go", "east"), Action("go", "south"),
        Action("go", "west"), Action("take", "coin"),
    ]
    assert [len(c.facts.values) for c in candidates] == [8, 8, 8, 8, 2]


def test_missing_lexicon_category_drops_candidate_without_error():
    table = parse_lexicon("\n".join(f"{d}\tdirection" for d in DIRECTIONS) + "\n")
    graph = generate_game(GameSpec("easy", 2, 0))
    candidates = enumerate_candidates(start_props(graph), table)
    assert [c.noun for c in candidates] == list(DIRECTIONS)


def test_unknown_categories_are_ignored():
    rows = [f"{d}\tdirection" for d in DIRECTIONS] + ["coin\tmoney", "coin\tmetal"]
    table = parse_lexicon("\n".join(rows) + "\n")
    graph = generate_game(GameSpec("easy", 2, 0))
    candidates = enumerate_candidates(start_props(graph), table)
    assert len(candidates) == 5  # metal has no verb binding, so no sixth candidate


def test_ungroundable_category_claims_are_skipped():
    # a lexicon may claim odd categories for game nouns; only groundable
    # (category, noun) pairs become candidates
    rows = [f"{d}\tdirection" for d in DIRECTIONS]
    rows += ["north\tmoney", "coin\tmoney", "coin\tdirection"]
    table = parse_lexicon("\n".join(rows) + "\n")
    graph = generate_game(GameSpec("easy", 2, 0))
    candidates = enumerate_candidates(start_props(graph), table)
    assert [(c.category, c.noun) for c in candidates] == [
        ("direction", "north"), ("direction", "east"),
        ("direction", "south"), ("direction", "west"), ("money", "coin"),
    ]


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
    flat_and = LogicNode.create(AND, np.zeros(8), 1.0)
    direction = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go")
    direction.and_gates = [flat_and]
    direction.or_root = LogicNode.create(OR, np.array([0.5]), 1.0)
    money = LnnNetwork("money", CATEGORY_LITERALS["money"], "take")
    money.and_gates = [LogicNode.create(AND, np.zeros(2), 1.0)]
    money.or_root = LogicNode.create(OR, np.array([0.5]), 1.0)
    nets = {"direction": direction, "money": money}

    from lnnrl.lexicon import default_lexicon

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
    reward = shape_reward(outcome, props, frozenset(agent_map.visited), None,
                          Action("go", forward), "easy", 1.0)
    assert reward == 1.0


def test_revisit_on_easy_pays_nothing():
    graph = generate_game(GameSpec("easy", 3, 0))
    forward = next(d for d in DIRECTIONS if (graph.start, d) in graph.exits)
    state, agent_map, props = drive(graph, [forward])
    back = OPPOSITE[forward]
    outcome = step(state, Action("go", back))
    reward = shape_reward(outcome, props, frozenset(agent_map.visited),
                          agent_map.entry_direction.get(agent_map.current),
                          Action("go", back), "easy", 1.0)
    assert reward == 0.0


def test_medium_dead_end_return_pays_bonus():
    graph = generate_game(GameSpec("medium", 2, 0))
    distractor_dir = next(
        d for d in DIRECTIONS
        if (graph.start, d) in graph.exits
        and graph.exits[(graph.start, d)] not in graph.optimal_path
    )
    state, agent_map, props = drive(graph, [distractor_dir])
    back = OPPOSITE[distractor_dir]
    assert props.all_visited and agent_map.entry_direction[agent_map.current] == back
    outcome = step(state, Action("go", back))
    reward = shape_reward(outcome, props, frozenset(agent_map.visited),
                          agent_map.entry_direction[agent_map.current],
                          Action("go", back), "medium", 1.0)
    assert reward == 1.0  # room already visited, so this is purely the return bonus


def test_easy_never_pays_return_bonus():
    graph = generate_game(GameSpec("easy", 1, 0))
    forward = next(d for d in DIRECTIONS if (graph.start, d) in graph.exits)
    state, agent_map, props = drive(graph, [forward])
    back = OPPOSITE[forward]
    assert props.all_visited
    outcome = step(state, Action("go", back))
    reward = shape_reward(outcome, props, frozenset(agent_map.visited),
                          agent_map.entry_direction[agent_map.current],
                          Action("go", back), "easy", 1.0)
    assert reward == 0.0


def test_invalid_action_rewards_zero_even_with_quest_conditions():
    graph = generate_game(GameSpec("easy", 2, 0))
    state, agent_map, props = drive(graph, [])
    outcome = step(state, Action("go", "coin"))
    assert not outcome.action_valid
    reward = shape_reward(outcome, props, frozenset(agent_map.visited), None,
                          Action("go", "coin"), "easy", 1.0)
    assert reward == 0.0


def test_taking_coin_pays_quest_reward_only():
    graph = generate_game(GameSpec("easy", 1, 0))
    forward = next(d for d in DIRECTIONS if (graph.start, d) in graph.exits)
    state, agent_map, props = drive(graph, [forward])
    outcome = step(state, Action("take", "coin"))
    reward = shape_reward(outcome, props, frozenset(agent_map.visited),
                          agent_map.entry_direction.get(agent_map.current),
                          Action("take", "coin"), "easy", 1.0)
    assert reward == 1.0 and outcome.done


# ---------------------------------------------------------------------------
# TD targets
# ---------------------------------------------------------------------------


def half_value_money_net():
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take")
    net.and_gates = [LogicNode.create(AND, np.zeros(2), 1.0)]
    net.or_root = LogicNode.create(OR, np.array([0.5]), 1.0)   # q = 0.5 everywhere
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
        ReplayBuffer(capacity=10).sample(4, random.Random(0))


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


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_take_coin_micro_convergence():
    config = TrainerConfig()
    agent = LnnAgent(config, run_seed=4)
    agent.buffer.push(make_transition("money", [1.0, 0.0], 1.0, True))
    for _ in range(50):
        agent.train_step()
    q, _ = agent.nets["money"].forward(np.array([1.0, 0.0]))
    assert q >= config.alpha


def test_train_step_on_empty_buffer_raises():
    agent = LnnAgent(TrainerConfig())
    with pytest.raises(ValueError):
        agent.train_step()


def test_zero_learning_rate_leaves_parameters_bitwise():
    agent = LnnAgent(TrainerConfig(learning_rate=0.0), run_seed=1)
    agent.buffer.push(make_transition("money", [0.0, 1.0], 0.0, True))
    before = {
        c: {k: v.copy() for k, v in net.parameters().items()}
        for c, net in agent.nets.items()
    }
    agent.train_step()
    for c, net in agent.nets.items():
        for k, v in net.parameters().items():
            assert np.array_equal(v, before[c][k]), (c, k)


def zeroed_networks(config):
    """Networks whose q is exactly 0 on every crisp input."""
    nets = fresh_networks(config)
    money = nets["money"]
    money.and_gates = [LogicNode.create(AND, np.ones(2), 1.0)]
    money.or_root = LogicNode.create(OR, np.array([1.0]), 1.25)
    return nets


def test_zero_rewards_and_zero_q_leave_argmax_unchanged(lexicon):
    config = TrainerConfig()
    agent = LnnAgent(config, run_seed=2, nets=zeroed_networks(config))
    graph = generate_game(GameSpec("medium", 3, 5))
    candidates = enumerate_candidates(start_props(graph), lexicon)

    def argmax_action():
        action, _ = select_action(candidates, agent.nets, 0.0, random.Random(0))
        return action

    before_action = argmax_action()
    before_sum = agent.parameter_checksum()
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
    assert agent.parameter_checksum() == before_sum


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
    assert len(agent.nets["direction"].and_gates) <= 3


def test_induction_does_not_duplicate_matching_patterns():
    agent = LnnAgent(TrainerConfig(), run_seed=5)
    facts = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    for _ in range(6):
        agent.buffer.push(make_transition("direction", facts, 1.0, True))
    for _ in range(30):
        agent.train_step()
    assert len(agent.nets["direction"].and_gates) == 2  # initial gate + one induced


def test_target_networks_refresh_on_schedule():
    config = TrainerConfig(target_update_period=5)
    agent = LnnAgent(config, run_seed=6)
    agent.buffer.push(make_transition("money", [1.0, 0.0], 1.0, True))
    agent.train_step()  # induces a gate on the online net only
    assert len(agent.nets["money"].and_gates) != len(agent.target.nets["money"].and_gates)
    for _ in range(4):
        agent.train_step()
    assert len(agent.nets["money"].and_gates) == len(agent.target.nets["money"].and_gates)


# ---------------------------------------------------------------------------
# episode loop
# ---------------------------------------------------------------------------


def test_scripted_networks_solve_easy_level5_in_six_steps(lexicon):
    policy = LnnAgent(TrainerConfig(), nets=scripted_rule_networks())
    for seed in range(5):
        graph = generate_game(GameSpec("easy", 5, seed))
        report = run_episode(graph, policy, lexicon, mode="eval")
        assert report.quest_reward == 1.0
        assert report.steps == 6


def test_untrained_networks_stall_near_the_step_cap(lexicon):
    config = TrainerConfig()
    policy = LnnAgent(config, nets=fresh_networks(config))
    steps = []
    rewards = []
    for seed in range(10):
        graph = generate_game(GameSpec("easy", 5, seed))
        report = run_episode(graph, policy, lexicon, mode="eval")
        steps.append(report.steps)
        rewards.append(report.quest_reward)
    assert sum(steps) / len(steps) >= 90
    assert sum(rewards) / len(rewards) <= 0.1


def test_eval_mode_mutates_no_parameters(lexicon):
    agent = LnnAgent(TrainerConfig(), run_seed=7)
    graph = generate_game(GameSpec("medium", 3, 1))
    before = agent.parameter_checksum()
    run_episode(graph, agent, lexicon, mode="eval")
    assert agent.parameter_checksum() == before
    assert len(agent.buffer) == 0


def test_train_mode_stores_transitions_and_learns(lexicon):
    agent = LnnAgent(TrainerConfig(), run_seed=8)
    graph = generate_game(GameSpec("easy", 2, 1))
    report = run_episode(graph, agent, lexicon, mode="train", epsilon=1.0,
                         rng=random.Random(0))
    assert len(agent.buffer) == report.steps
    assert agent.env_steps == report.steps


def test_trace_lines_carry_facts_and_q_values(lexicon):
    policy = LnnAgent(TrainerConfig(), nets=scripted_rule_networks())
    graph = generate_game(GameSpec("easy", 2, 0))
    report = run_episode(graph, policy, lexicon, mode="eval", collect_trace=True, epoch=7)
    assert len(report.trace) == report.steps
    for line in report.trace:
        assert line.startswith("epoch=7 step=")
        assert "facts=" in line and "action=" in line and "q=[" in line
    bits = report.trace[0].split("facts=")[1].split()[0]
    assert len(bits) == 26 and set(bits) <= {"0", "1"}

