"""MLP baseline scorer: shapes, gradients, and the shared trainer contract."""

import copy
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnnrl.agent import TrainerConfig, Transition
from lnnrl.baseline import MlpAgent, MlpScorer, N_ACTIONS, N_INPUTS
from lnnrl.factextract import AgentMap, PropositionSet, extract_propositions, parse_observation
from lnnrl.lnn import CheckpointError
from lnnrl.worldsim import (
    ALL_ACTIONS,
    DIRECTIONS,
    NOUNS,
    Action,
    GameSpec,
    generate_game,
    reset,
)


def test_forward_shape_26_in_10_out():
    scorer = MlpScorer(seed=0)
    q, _ = scorer.forward(np.zeros(N_INPUTS))
    assert q.shape == (N_ACTIONS,)
    assert N_INPUTS == 26 and N_ACTIONS == 10


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    scorer = MlpScorer(seed=3)
    x = rng.uniform(0, 1, size=N_INPUTS)
    upstream = 1.7
    action_index = 4
    grads = scorer.gradients(x, scorer.forward(x)[1], action_index, upstream)
    params = scorer.parameters()
    step = 1e-6
    checked = 0
    for name, grad in grads.items():
        flat_p = params[name].reshape(-1)
        flat_g = grad.reshape(-1)
        for index in rng.choice(flat_p.size, size=min(20, flat_p.size), replace=False):
            original = flat_p[index]
            flat_p[index] = original + step
            q_plus = scorer.forward(x)[0][action_index]
            flat_p[index] = original - step
            q_minus = scorer.forward(x)[0][action_index]
            flat_p[index] = original
            expected = upstream * (q_plus - q_minus) / (2 * step)
            assert flat_g[index] == pytest.approx(expected, rel=1e-5, abs=1e-8), name
            checked += 1
    assert checked > 40


def test_regression_loss_decreases_on_fixed_transition():
    agent = MlpAgent(TrainerConfig(), run_seed=1)
    vec = np.zeros(N_INPUTS)
    vec[0] = 1.0
    props = as_props(vec)
    transition = Transition(
        props=props, candidates=(), action=ALL_ACTIONS[9], reward=1.0,
        terminal=True, next_props=props, next_candidates=(),
    )
    agent.buffer.push(transition)
    first = agent.train_step()
    for _ in range(200):
        last = agent.train_step()
    assert last < first
    assert agent.scorer.forward(transition.props.as_vector())[0][9] == pytest.approx(1.0, abs=0.05)


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
        assert q is None
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
    "unparsable_value": lambda lines: lines[:4] + [lines[4].replace(" ", " x", 1)] + lines[5:],
}


@pytest.mark.parametrize("damage", sorted(MLP_DAMAGE))
def test_checkpoint_rejects_damaged_files(tmp_path, damage):
    path = tmp_path / "mlp.txt"
    MlpScorer(seed=9).save(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(MLP_DAMAGE[damage](lines)) + "\n", encoding="utf-8")
    with pytest.raises(CheckpointError):
        MlpScorer.load(path)

def test_target_network_refresh():
    config = TrainerConfig(target_update_period=3)
    agent = MlpAgent(config, run_seed=4)
    props = as_props(np.zeros(N_INPUTS))
    transition = Transition(
        props=props, candidates=(), action=ALL_ACTIONS[0], reward=1.0,
        terminal=True, next_props=props, next_candidates=(),
    )
    agent.buffer.push(transition)
    agent.train_step()
    assert not np.array_equal(agent.scorer.b2, agent.target.b2)
    agent.train_step()
    agent.train_step()
    assert np.array_equal(agent.scorer.b2, agent.target.b2)


# a state's 26-vector from 13 truth values: each followed by its complement
STATE_VECTORS = st.lists(st.booleans(), min_size=13, max_size=13).map(
    lambda bits: np.array([v for b in bits for v in (float(b), float(not b))]))

# score: fill the online table through `choose`; train: push a transition and
# take a full train_step (Adam, table clear, target refresh); snapshot: keep
# a copy that must stay exact as the online scorer moves on
MLP_TABLE_OPS = st.lists(st.one_of(
    st.tuples(st.just("score"), STATE_VECTORS),
    st.tuples(st.just("train"), STATE_VECTORS, st.sampled_from(ALL_ACTIONS),
              st.sampled_from([0.0, 0.5, 1.0, 2.0]), STATE_VECTORS, st.booleans()),
    st.tuples(st.just("snapshot")),
), min_size=1, max_size=25)


def gradients_from_a_fresh_pass(scorer, x, action_index, upstream):
    """Reference: the gradients with the first layer run again on `x`."""
    pre = scorer.w1.T @ x + scorer.b1
    hidden = np.maximum(pre, 0.0)
    g_pre = upstream * scorer.w2[:, action_index] * (pre > 0.0)
    grads = {"b1": g_pre, "w1": np.outer(x, g_pre),
             "b2": np.zeros(N_ACTIONS), "w2": np.zeros_like(scorer.w2)}
    grads["b2"][action_index] = upstream
    grads["w2"][:, action_index] = upstream * hidden
    return grads


def as_props(vector):
    """A directly built PropositionSet whose vector is `vector`."""
    bits = [bool(v) for v in vector[::2]]
    return PropositionSet(dict(zip(NOUNS, bits[:5])), dict(zip(DIRECTIONS, bits[5:9])),
                          dict(zip(DIRECTIONS, bits[9:])), all_visited=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ops=MLP_TABLE_OPS, seed=st.integers(0, 2**16),
       learning_rate=st.sampled_from([1e-3, 0.05, 0.3]),
       action_index=st.integers(0, N_ACTIONS - 1), upstream=st.sampled_from([-1.3, 0.4]))
def test_mlp_q_table_entries_equal_a_fresh_forward(ops, seed, learning_rate, action_index, upstream):
    agent = MlpAgent(TrainerConfig(learning_rate=learning_rate, batch_size=2,
                                   target_update_period=3), run_seed=seed)
    snapshots = []
    for op in ops:
        if op[0] == "score":
            agent.choose(as_props(op[1]), [], 0.0, random.Random(0))
        elif op[0] == "train":
            vec, action, reward, next_vec, terminal = op[1:]
            agent.buffer.push(Transition(props=as_props(vec), candidates=(), action=action,
                                         reward=reward, terminal=terminal,
                                         next_props=as_props(next_vec), next_candidates=()))
            agent.train_step()
        else:
            snapshots.append(copy.deepcopy(agent.scorer))
        for scorer in (agent.scorer, agent.target, *snapshots):
            assert scorer.table.net is scorer
            for key, (q, hidden) in scorer.table.entries.items():
                x = np.frombuffer(key)
                fresh_q, fresh_hidden = scorer.forward(x)
                assert np.array_equal(q, fresh_q)
                assert np.array_equal(hidden, fresh_hidden)
                cached = scorer.gradients(x, hidden, action_index, upstream)
                fresh = gradients_from_a_fresh_pass(scorer, x, action_index, upstream)
                assert cached.keys() == fresh.keys()
                for name in fresh:
                    assert np.array_equal(cached[name], fresh[name]), name
