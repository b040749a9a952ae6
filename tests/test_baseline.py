"""MLP baseline scorer: shapes, gradients, and the shared trainer contract."""

import random

import numpy as np
import pytest

from lnnrl.agent import TrainerConfig, Transition
from lnnrl.baseline import MlpAgent, MlpScorer, N_ACTIONS, N_INPUTS
from lnnrl.factextract import AgentMap, extract_propositions, parse_observation
from lnnrl.worldsim import ALL_ACTIONS, Action, GameSpec, generate_game, reset


def test_forward_shape_26_in_10_out():
    scorer = MlpScorer(seed=0)
    q = scorer.forward(np.zeros(N_INPUTS))
    assert q.shape == (N_ACTIONS,)
    assert N_INPUTS == 26 and N_ACTIONS == 10


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    scorer = MlpScorer(seed=3)
    x = rng.uniform(0, 1, size=N_INPUTS)
    upstream = 1.7
    action_index = 4
    grads = scorer.gradients(x, action_index, upstream)
    params = scorer.parameters()
    step = 1e-6
    checked = 0
    for name, grad in grads.items():
        flat_p = params[name].reshape(-1)
        flat_g = grad.reshape(-1)
        for index in rng.choice(flat_p.size, size=min(20, flat_p.size), replace=False):
            original = flat_p[index]
            flat_p[index] = original + step
            q_plus = scorer.forward(x)[action_index]
            flat_p[index] = original - step
            q_minus = scorer.forward(x)[action_index]
            flat_p[index] = original
            expected = upstream * (q_plus - q_minus) / (2 * step)
            assert flat_g[index] == pytest.approx(expected, rel=1e-5, abs=1e-8), name
            checked += 1
    assert checked > 40


def test_regression_loss_decreases_on_fixed_transition():
    agent = MlpAgent(TrainerConfig(), run_seed=1)
    vec = np.zeros(N_INPUTS)
    vec[0] = 1.0
    transition = Transition(
        action=ALL_ACTIONS[9], category=None, facts=None, reward=1.0, next_candidates=(),
        terminal=True, props_vec=vec, next_props_vec=vec, action_index=9,
    )
    agent.buffer.push(transition)
    first = agent.train_step()
    for _ in range(200):
        last = agent.train_step()
    assert last < first
    assert agent.scorer.forward(vec)[9] == pytest.approx(1.0, abs=0.05)


def test_epsilon_explores_all_ten_actions():
    agent = MlpAgent(TrainerConfig(), run_seed=2)
    graph = generate_game(GameSpec("easy", 2, 0))
    state, obs = reset(graph)
    props = extract_propositions(parse_observation(obs), AgentMap.start(state.room))
    rng = random.Random(0)
    seen = set()
    for _ in range(500):
        action, q = agent.choose(props, [], 1.0, rng)
        seen.add(action)
        assert len(q) == N_ACTIONS
    assert seen == set(ALL_ACTIONS)


def test_greedy_choice_is_argmax():
    agent = MlpAgent(TrainerConfig(), run_seed=3)
    graph = generate_game(GameSpec("easy", 2, 0))
    state, obs = reset(graph)
    props = extract_propositions(parse_observation(obs), AgentMap.start(state.room))
    action, q = agent.choose(props, [], 0.0, random.Random(0))
    assert action == ALL_ACTIONS[int(np.argmax(q))]


def test_checkpoint_round_trip(tmp_path):
    scorer = MlpScorer(seed=9)
    path = tmp_path / "mlp.txt"
    scorer.save(path)
    loaded = MlpScorer.load(path)
    for name, arr in scorer.parameters().items():
        assert np.array_equal(arr, loaded.parameters()[name])



# each leaves a loadable-looking file that must not load
MLP_DAMAGE = {
    "cut_after_w1": lambda lines: lines[:3],
    "unknown_row": lambda lines: lines + ["w3 1.0"],
    "repeated_row": lambda lines: lines + [lines[3]],
    "short_row": lambda lines: lines[:5] + [lines[5].rsplit(" ", 1)[0]],
    "foreign_shape": lambda lines: [lines[0], f"shape {N_INPUTS} 64 {N_ACTIONS + 1}"] + lines[2:],
}


@pytest.mark.parametrize("damage", sorted(MLP_DAMAGE))
def test_checkpoint_rejects_damaged_files(tmp_path, damage):
    path = tmp_path / "mlp.txt"
    MlpScorer(seed=9).save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(MLP_DAMAGE[damage](lines)) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        MlpScorer.load(path)

def test_target_network_refresh():
    config = TrainerConfig(target_update_period=3)
    agent = MlpAgent(config, run_seed=4)
    vec = np.zeros(N_INPUTS)
    transition = Transition(
        action=ALL_ACTIONS[0], category=None, facts=None, reward=1.0, next_candidates=(),
        terminal=True, props_vec=vec, next_props_vec=vec, action_index=0,
    )
    agent.buffer.push(transition)
    agent.train_step()
    assert not np.array_equal(agent.scorer.b2, agent.target.b2)
    agent.train_step()
    agent.train_step()
    assert np.array_equal(agent.scorer.b2, agent.target.b2)
