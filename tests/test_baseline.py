"""MLP baseline scorer: shapes, gradients, and the shared trainer contract."""

import copy
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lnnrl
from lnnrl.agent import TrainerConfig, Transition, greedy
from lnnrl.baseline import ROW_SIZES, MlpAgent, MlpScorer, N_ACTIONS, N_HIDDEN, N_INPUTS, inputs
from lnnrl.factextract import (
    AgentMap,
    ParsedObservation,
    PropositionSet,
    extract_propositions,
    parse_observation,
)
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
    # a batch with a repeated state and a repeated action
    xs = rng.uniform(0, 1, size=(3, N_INPUTS))
    xs[2] = xs[0]
    action_indices = [4, 7, 4]
    upstreams = np.array([1.7, -0.6, 0.9])
    hiddens = np.array([scorer.forward(x)[1] for x in xs])
    grad = scorer.gradients(xs, hiddens, action_indices, upstreams)
    assert grad.shape == scorer.buffer.shape

    def loss():
        return sum(u * scorer.forward(x)[0][a] for x, a, u in zip(xs, action_indices, upstreams))

    # the gradient read by name, in the buffer's layout
    names = ("w1", "b1", "w2", "b2")
    sizes = [getattr(scorer, name).size for name in names]
    by_name = dict(zip(names, np.split(grad, np.cumsum(sizes)[:-1])))
    step = 1e-6
    checked = 0
    for name in names:
        flat_p = getattr(scorer, name).reshape(-1)
        for index in rng.choice(flat_p.size, size=min(20, flat_p.size), replace=False):
            original = flat_p[index]
            flat_p[index] = original + step
            plus = loss()
            flat_p[index] = original - step
            minus = loss()
            flat_p[index] = original
            expected = (plus - minus) / (2 * step)
            assert by_name[name][index] == pytest.approx(expected, rel=1e-5, abs=1e-8), name
            checked += 1
    assert checked > 40


def test_regression_loss_decreases_on_fixed_transition():
    agent = MlpAgent(TrainerConfig(), run_seed=1)
    vec = np.zeros(N_INPUTS)
    vec[0] = 1.0
    props = as_props(vec)
    transition = Transition(
        props=props, action=ALL_ACTIONS[9], reward=1.0,
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



def with_first_b1_value(lines, raw):
    name, _, rest = lines[3].split(" ", 2)
    return lines[:3] + [f"{name} {raw} {rest}"] + lines[4:]


# each leaves a loadable-looking file that must not load
MLP_DAMAGE = {
    "cut_after_w1": lambda lines: lines[:3],
    "unknown_row": lambda lines: lines + ["w3 1.0"],
    "repeated_row": lambda lines: lines + [lines[3]],
    "short_row": lambda lines: lines[:5] + [lines[5].rsplit(" ", 1)[0]],
    "foreign_shape": lambda lines: [lines[0], f"shape {N_INPUTS} 64 {N_ACTIONS + 1}"] + lines[2:],
    "unparsable_value": lambda lines: lines[:4] + [lines[4].replace(" ", " x", 1)] + lines[5:],
    # `int` and `float` read these, but `save` writes none of them
    "padded_hidden_width": lambda lines: [lines[0], f"shape {N_INPUTS} 064 {N_ACTIONS}"] + lines[2:],
    "underscored_value": lambda lines: with_first_b1_value(lines, "1_0"),
    "non_ascii_value": lambda lines: with_first_b1_value(lines, "\u0661"),
    # consistent in itself, but of a width the scorer does not have
    "narrower_hidden_layer": lambda lines: [
        lines[0], f"shape {N_INPUTS} 32 {N_ACTIONS}",
        *(f"{name} " + " ".join(["0.5"] * size) for name, size in
          (("w1", N_INPUTS * 32), ("b1", 32), ("w2", 32 * N_ACTIONS), ("b2", N_ACTIONS)))],
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
        props=props, action=ALL_ACTIONS[0], reward=1.0,
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


def shared_props(find, visited, entry):
    """The shared record `extract_propositions` returns for find per noun,
    visited per direction and the direction the room was entered from."""
    exits = frozenset(d for d, bit in zip(DIRECTIONS, find) if bit)
    parsed = ParsedObservation("test room", exits, frozenset({"coin"} if find[4] else ()))
    agent_map = AgentMap(current=0,
                         visited={0} | {k + 1 for k, bit in enumerate(visited) if bit},
                         adjacency={(0, d): k + 1 for k, d in enumerate(DIRECTIONS)},
                         entry_direction={} if entry is None else {0: entry})
    return extract_propositions(parsed, agent_map)


#: eight shared records: few enough that a list of ops revisits a state
SHARED_STATES = [shared_props(find, visited, entry) for find, visited, entry in itertools.product(
    ((True, False, False, True, False), (True, True, True, True, True)),
    ((False,) * 4, (True, False, True, False)),
    (None, "north"))]


def test_the_mlp_reads_one_shared_read_only_vector_per_props_record():
    for props in SHARED_STATES:
        x = inputs(props)
        assert x is inputs(props) and x.dtype == np.float64 and x.shape == (N_INPUTS,)
        assert x.tolist() == list(props.as_vector())
        with pytest.raises(ValueError):
            x[0] = 0.5


def float_bits(values):
    """Each float's exact bits, the sign of a zero included."""
    return [float(v).hex() for v in values]


def assert_mlp_memo_is_exact(scorer, action_index, upstream):
    # every kept forward pass and greedy choice equals a fresh forward on
    # today's parameters, bit for bit
    for key, (record, value) in scorer.memo.items():
        assert key == id(record)
        if isinstance(record, PropositionSet):
            action, q_values = value
            fresh = scorer.forward(record.as_vector())[0].tolist()
            assert float_bits(q_values) == float_bits(fresh)
            assert action == ALL_ACTIONS[greedy(fresh)]
            continue
        x, (q, hidden) = record, value
        fresh_q, fresh_hidden = scorer.forward(x.copy())
        assert np.array_equal(q, fresh_q)
        assert np.array_equal(hidden, fresh_hidden)
        cached = scorer.gradients(x[None], hidden[None], [action_index], np.array([upstream]))
        fresh = gradients_from_a_fresh_pass(scorer, x, action_index, upstream)
        assert cached.tobytes() == fresh.tobytes()


# score: fill the online memo through `choose` on a fresh record; choose: the
# same on a shared record, which may have been scored before; train: push a
# transition and take a full train_step (Adam, memo clear, target refresh);
# snapshot: keep a copy that must stay exact as the online scorer moves on
MLP_MEMO_OPS = st.lists(st.one_of(
    st.tuples(st.just("score"), STATE_VECTORS),
    st.tuples(st.just("choose"), st.sampled_from(SHARED_STATES)),
    st.tuples(st.just("train"), STATE_VECTORS, st.sampled_from(ALL_ACTIONS),
              st.sampled_from([0.0, 0.5, 1.0, 2.0]), STATE_VECTORS, st.booleans()),
    st.tuples(st.just("snapshot")),
), min_size=1, max_size=25)


def gradients_from_a_fresh_pass(scorer, x, action_index, upstream):
    """Reference: the gradient with the first layer run again on `x`."""
    pre = scorer.w1.T @ x + scorer.b1
    return outer_form_gradient(scorer, x, np.maximum(pre, 0.0), action_index, upstream)


def outer_form_gradient(scorer, x, hidden, action_index, upstream):
    """Reference: one transition's gradient in the `np.outer` form, each
    parameter's part laid out as in the buffer."""
    g_pre = upstream * scorer.w2[:, action_index] * (hidden > 0.0)
    g_w2 = np.zeros_like(scorer.w2)
    g_w2[:, action_index] = upstream * hidden
    g_b2 = np.zeros(N_ACTIONS)
    g_b2[action_index] = upstream
    return np.concatenate([np.outer(x, g_pre).ravel(), g_pre, g_w2.ravel(), g_b2])


def batch_order_sum(terms):
    """g_0 + g_1 + ... + g_n, left to right, the first term as it is."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def as_props(vector):
    """A directly built PropositionSet whose vector is `vector`."""
    bits = [bool(v) for v in vector[::2]]
    return PropositionSet(dict(zip(NOUNS, bits[:5])), dict(zip(DIRECTIONS, bits[5:9])),
                          dict(zip(DIRECTIONS, bits[9:])), all_visited=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ops=MLP_MEMO_OPS, seed=st.integers(0, 2**16),
       learning_rate=st.sampled_from([1e-3, 0.05, 0.3]),
       action_index=st.integers(0, N_ACTIONS - 1), upstream=st.sampled_from([-1.3, 0.4]))
def test_mlp_memo_entries_equal_a_fresh_forward(ops, seed, learning_rate, action_index, upstream):
    agent = MlpAgent(TrainerConfig(learning_rate=learning_rate, batch_size=2,
                                   target_update_period=3), run_seed=seed)
    snapshots = []
    for op in ops:
        if op[0] == "score":
            agent.choose(as_props(op[1]), [], 0.0, random.Random(0))
        elif op[0] == "choose":
            action, q_values = agent.choose(op[1], (), 0.0, random.Random(0))
            record, (kept_action, kept_q) = agent.scorer.memo[id(op[1])]
            assert record is op[1]
            assert (action, q_values) == (kept_action, kept_q) and q_values is not kept_q
        elif op[0] == "train":
            vec, action, reward, next_vec, terminal = op[1:]
            agent.buffer.push(Transition(props=as_props(vec), action=action,
                                         reward=reward, terminal=terminal,
                                         next_props=as_props(next_vec), next_candidates=()))
            agent.train_step()
        else:
            snapshots.append(copy.deepcopy(agent.scorer))
        for scorer in (agent.scorer, agent.target, *snapshots):
            assert_mlp_memo_is_exact(scorer, action_index, upstream)


# a batch: a few states and actions, each transition drawing one of them, so
# states and actions repeat; upstreams of either sign, zeros of both signs
GRADIENT_BATCHES = st.tuples(
    st.lists(st.one_of(STATE_VECTORS,
                       st.lists(st.floats(0.0, 1.0), min_size=N_INPUTS, max_size=N_INPUTS)
                       .map(np.array)), min_size=1, max_size=4),
    st.lists(st.integers(0, N_ACTIONS - 1), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                       st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0))),
             min_size=1, max_size=32),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**16), batch=GRADIENT_BATCHES)
def test_batched_gradients_equal_the_batch_order_sum_bit_for_bit(seed, batch):
    scorer = MlpScorer(seed=seed)
    states, actions, picks = batch
    xs = np.array([states[i % len(states)] for i, _, _ in picks])
    action_indices = [actions[j % len(actions)] for _, j, _ in picks]
    upstreams = np.array([u for _, _, u in picks])
    hiddens = np.array([scorer.forward(x)[1] for x in xs])

    grad = scorer.gradients(xs, hiddens, action_indices, upstreams)

    want = batch_order_sum([outer_form_gradient(scorer, x, h, a, float(u))
                            for x, h, a, u in zip(xs, hiddens, action_indices, upstreams)])
    assert grad.tobytes() == want.tobytes()


ROW_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                       st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(width=st.sampled_from([N_INPUTS * N_HIDDEN, N_HIDDEN, N_HIDDEN * N_ACTIONS, N_ACTIONS]),
       n_rows=st.integers(1, 32), seed=st.integers(0, 2**16),
       pool=st.lists(ROW_FLOATS, min_size=1, max_size=8))
def test_an_axis_0_reduction_from_negative_zero_adds_rows_left_to_right(width, n_rows, seed, pool):
    # what `gradients` relies on, for each width of the buffer's parts: rows
    # drawn from a few values, so whole columns of -0.0 and exact
    # cancellations occur; a plain `sum(axis=0)` starts from +0.0 instead
    rows = np.array(pool)[np.random.default_rng(seed).integers(0, len(pool), size=(n_rows, width))]
    with np.errstate(over="ignore"):
        want = batch_order_sum(list(rows))
        got = np.add.reduce(rows, axis=0, initial=-0.0)
    assert got.tobytes() == want.tobytes()


def test_the_parameters_are_views_into_one_buffer():
    scorer = MlpScorer(seed=5)
    assert scorer.parameters().keys() == {"mlp"} and scorer.parameters()["mlp"] is scorer.buffer
    views = [scorer.w1, scorer.b1, scorer.w2, scorer.b2]
    assert [v.shape for v in views] == [(N_INPUTS, N_HIDDEN), (N_HIDDEN,),
                                        (N_HIDDEN, N_ACTIONS), (N_ACTIONS,)]
    for view in views:
        assert np.shares_memory(view, scorer.buffer) and view.flags.c_contiguous
    # the layout: w1 row-major, b1, w2 row-major, b2
    assert np.concatenate([v.ravel() for v in views]).tobytes() == scorer.buffer.tobytes()
    scorer.buffer[-1] = 3.0
    assert scorer.b2[-1] == 3.0


def test_a_deep_copy_points_into_its_own_buffer_and_shares_the_memo():
    scorer = MlpScorer(seed=6)
    scorer.choose(SHARED_STATES[0], (), 0.0, random.Random(0))
    copied = copy.deepcopy(scorer)
    assert copied.buffer.tobytes() == scorer.buffer.tobytes()
    assert not np.shares_memory(copied.buffer, scorer.buffer)
    for name in ("w1", "b1", "w2", "b2"):
        assert np.shares_memory(getattr(copied, name), copied.buffer)
        assert np.array_equal(getattr(copied, name), getattr(scorer, name))
    assert copied.memo is not scorer.memo and copied.memo.keys() == scorer.memo.keys()
    assert all(copied.memo[key] is entry for key, entry in scorer.memo.items())
    scorer.buffer += 1.0
    assert not np.array_equal(copied.w1, scorer.w1)


def test_load_of_save_gives_a_bit_identical_buffer(tmp_path):
    scorer = MlpScorer(seed=9)
    # extremes `.17g` must carry: signed zeros, subnormals, the largest float
    scorer.buffer[:6] = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                         1.7976931348623157e308, 0.1]
    path = tmp_path / "mlp.txt"
    scorer.save(path)
    loaded = MlpScorer.load(path)
    assert loaded.buffer.tobytes() == scorer.buffer.tobytes()
    for name in ("w1", "b1", "w2", "b2"):
        assert np.shares_memory(getattr(loaded, name), loaded.buffer)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("row", list(ROW_SIZES))
def test_a_non_finite_scorer_is_not_written_and_a_finite_one_loads_back(tmp_path, row, value):
    """`load` refuses a non-finite value, so `save` refuses it first and
    writes nothing; the same scorer made finite loads back byte-equal."""
    scorer = MlpScorer(seed=9)
    view = getattr(scorer, row).reshape(-1)   # a view into the buffer
    view[len(view) // 2] = value
    path = tmp_path / "mlp.txt"
    with pytest.raises(ValueError, match="non-finite"):
        scorer.save(path)
    assert not path.exists()
    view[len(view) // 2] = 5e-324
    scorer.save(path)
    assert MlpScorer.load(path).buffer.tobytes() == scorer.buffer.tobytes()


#: a tiny MLP run, then whether anything it ran imported numpy.random
NO_NUMPY_RANDOM = """
import sys, tempfile
from lnnrl.harness import ExperimentConfig, run_experiment
config = ExperimentConfig.from_pairs({"agent": "nn", "difficulty": "easy", "epochs": "2",
                                      "eval_interval": "1", "n_seeds": "1", "n_train_games": "2",
                                      "n_test_per_level": "1"})
with tempfile.TemporaryDirectory() as out:
    run_experiment(config, out)
print("numpy.random" in sys.modules)
"""


def test_an_mlp_run_never_imports_numpy_random():
    """The initial weights come from the run's seeded Python streams. This
    test process has imported numpy.random itself, so the run gets a fresh
    interpreter."""
    path = os.pathsep.join(filter(None, [str(Path(lnnrl.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_NUMPY_RANDOM], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout == "False\n"
