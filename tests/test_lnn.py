"""Logic-node semantics, gradients vs finite differences, induction, rules, checkpoints."""

import contextlib
import copy
import itertools
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnnrl.factextract import CATEGORY_LITERALS, CATEGORY_VERBS, GROUNDINGS
from lnnrl.lnn import (
    AND,
    OR,
    CheckpointError,
    LnnNetwork,
    LogicNode,
    TruthConfig,
    TruthValue,
    clamp01,
    classify_truth,
    extract_rules,
    load_network,
    save_network,
)
from lnnrl.optim import AdamOptimizer


def make_net(weights_list, or_weights, or_bias=1.25, literals=None, verb="go"):
    literals = literals or CATEGORY_LITERALS["direction"][: len(weights_list[0])]
    net = LnnNetwork("direction", literals, verb)
    net.and_gates = [
        LogicNode.create(AND, np.asarray(w, dtype=float), 1.0) for w in weights_list
    ]
    net.or_root = LogicNode.create(OR, np.asarray(or_weights, dtype=float), or_bias)
    return net


# ---------------------------------------------------------------------------
# node semantics
# ---------------------------------------------------------------------------


def test_and_node_hand_values():
    node = LogicNode.create(AND, [1.0, 1.0], 1.0)
    assert node.value(np.array([1.0, 1.0])) == 1.0
    assert node.value(np.array([1.0, 0.0])) == 0.0   # 1 - 1 clamped
    assert node.value(np.array([0.5, 1.0])) == 0.5


def test_or_node_hand_values():
    node = LogicNode.create(OR, [1.0, 1.0], 1.0)
    assert node.value(np.array([0.0, 0.0])) == 0.0
    assert node.value(np.array([1.0, 0.0])) == 1.0
    assert node.value(np.array([0.3, 0.0])) == pytest.approx(0.3)


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_crisp_logic_matches_truth_tables(arity):
    and_node = LogicNode.create(AND, np.ones(arity), 1.0)
    or_node = LogicNode.create(OR, np.ones(arity), 1.0)
    for bits in itertools.product([0.0, 1.0], repeat=arity):
        x = np.array(bits)
        assert and_node.value(x) == float(all(bits))
        assert or_node.value(x) == float(any(bits))


def test_forward_stays_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(100):
        net = make_net(rng.uniform(0, 3, size=(3, 8)), rng.uniform(0, 3, size=3),
                       or_bias=rng.uniform(0, 2))
        q, trace = net.forward(rng.uniform(0, 1, size=8))
        assert 0.0 <= q <= 1.0
        assert np.all(trace.and_out >= 0.0) and np.all(trace.and_out <= 1.0)


def test_monotonicity_in_inputs():
    rng = np.random.default_rng(1)
    for _ in range(50):
        net = make_net(rng.uniform(0, 2, size=(2, 8)), rng.uniform(0, 2, size=2))
        x = rng.uniform(0, 1, size=8)
        q0, _ = net.forward(x)
        bumped = x.copy()
        i = rng.integers(0, 8)
        bumped[i] = min(1.0, bumped[i] + 0.1)
        q1, _ = net.forward(bumped)
        assert q1 >= q0 - 1e-12


def test_nonnegativity_enforced_at_construction():
    with pytest.raises(ValueError):
        LogicNode.create(AND, [-0.1, 1.0], 1.0)
    with pytest.raises(ValueError):
        LogicNode.create(OR, [1.0], -0.5)


def test_arity_mismatch_raises():
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take")
    with pytest.raises(ValueError):
        net.forward(np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def finite_difference(net, x, upstream, name, index, step=1e-6):
    params = net.parameters()
    flat = params[name].reshape(-1)
    original = flat[index]
    flat[index] = original + step
    q_plus, _ = net.forward(x)
    flat[index] = original - step
    q_minus, _ = net.forward(x)
    flat[index] = original
    return upstream * (q_plus - q_minus) / (2 * step)


def random_open_region_case(rng):
    """Network and input with every activation strictly inside (0, 1)."""
    while True:
        weights = rng.uniform(0.1, 0.6, size=(2, 4))
        or_w = rng.uniform(0.3, 0.9, size=2)
        net = make_net(weights, or_w, or_bias=rng.uniform(0.9, 1.1))
        x = rng.uniform(0.1, 0.9, size=4)
        _, trace = net.forward(x)
        margins = [abs(p - b) for p in trace.and_pre for b in (0.0, 1.0)]
        margins += [abs(trace.or_pre), abs(trace.or_pre - 1.0)]
        if all(0.02 < p < 0.98 for p in trace.and_pre) and 0.02 < trace.or_pre < 0.98:
            return net, x


def test_gradients_match_finite_differences_in_open_region():
    rng = np.random.default_rng(7)
    for _ in range(100):
        net, x = random_open_region_case(rng)
        upstream = float(rng.uniform(0.5, 2.0))
        grads = net.gradients(net.forward(x)[1], upstream)
        for name, grad in grads.items():
            flat = np.atleast_1d(grad).reshape(-1)
            for index in range(flat.size):
                expected = finite_difference(net, x, upstream, name, index)
                assert flat[index] == pytest.approx(expected, rel=1e-5, abs=1e-9), name


def test_clamped_activation_has_zero_gradient():
    # the single AND gate saturates at 0, so nothing flows to its parameters
    net = make_net([[1.0, 1.0, 1.0, 1.0]], [1.0], or_bias=0.5)
    x = np.array([0.0, 0.0, 0.0, 0.0])
    _, trace = net.forward(x)
    assert trace.and_pre[0] < 0.0
    grads = net.gradients(trace, 1.0)
    assert np.all(grads["direction.and0.w"] == 0.0) and float(grads["direction.and0.b"]) == 0.0


def test_gradients_are_one_fresh_vector_laid_out_like_the_buffer():
    # gate 0 saturates at 0 and gate 1 is open, so only gate 0 gets no gradient
    net = make_net([[1.0, 1.0, 1.0, 1.0], [0.1, 0.1, 0.1, 0.1]], [1.0, 0.5], or_bias=1.0)
    x = np.zeros(4)
    first = net.gradients(net.forward(x)[1], 1.0)
    vector = first.vector
    assert vector.shape == net.buffer.shape and vector.dtype == np.float64
    assert vector.flags.writeable and not np.shares_memory(vector, net.buffer)
    # read by name, the gradient is views into that one vector, named as the parameters
    assert list(first) == list(net.parameters())
    for name, view in first.items():
        assert np.shares_memory(view, vector) and view.shape == net.parameters()[name].shape
    # a gate with no gradient reads +0.0; gate 1's gradient is its own
    w, b = first["direction.and0.w"], first["direction.and0.b"]
    assert same_bits(w, np.zeros(4)) and same_bits(b, 0.0)
    assert np.all(first["direction.and1.w"] < 0.0) and float(first["direction.and1.b"]) > 0.0
    # every call writes a fresh vector
    second = net.gradients(net.forward(x)[1], 1.0)
    assert not np.shares_memory(second.vector, vector) and same_bits(second.vector, vector)


def test_zero_upstream_zeroes_all_gradients():
    rng = np.random.default_rng(3)
    net, x = random_open_region_case(rng)
    grads = net.gradients(net.forward(x)[1], 0.0)
    for grad in grads.values():
        assert np.all(np.asarray(grad) == 0.0)


# ---------------------------------------------------------------------------
# gate induction
# ---------------------------------------------------------------------------


def test_add_and_gate_seeds_unit_weights_on_true_literals():
    net = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go")
    facts = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    index = net.add_and_gate(facts)
    gate = net.and_gates[index]
    assert gate.weights.tolist() == [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    assert float(gate.bias) == 1.0
    assert net.or_root.weights[index] == 1.0
    # fires exactly on its seed pattern
    assert gate.value(facts) == 1.0
    assert gate.value(1.0 - facts) == 0.0


def test_or_value_never_decreases_after_gate_addition():
    rng = np.random.default_rng(11)
    net = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go")
    probes = [rng.uniform(0, 1, size=8) for _ in range(50)]
    before = [net.forward(p)[0] for p in probes]
    net.add_and_gate(np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]))
    after = [net.forward(p)[0] for p in probes]
    assert all(b2 >= b1 for b1, b2 in zip(before, after))


def test_gate_cap_signals():
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take", gate_cap=2)
    net.add_and_gate(np.array([1.0, 0.0]))
    assert net.add_and_gate(np.array([0.0, 1.0])) is None
    assert len(net.and_gates) == 2


def test_assigning_more_gates_than_the_cap_is_refused():
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take", gate_cap=2)
    buffer = net.buffer
    gates = [LogicNode.create(AND, [1.0, 0.0], 1.0)] * 3
    with pytest.raises(ValueError, match="^3 gates exceed gate_cap 2$"):
        net.and_gates = gates
    assert net.buffer is buffer
    net.and_gates = gates[:2]
    assert len(net.and_gates) == 2


def structure(net):
    gates = [(g.weights.tolist(), float(g.bias)) for g in net.and_gates]
    return gates, net.or_root.weights.tolist(), float(net.or_root.bias)


SEED_FACTS = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_induce_adds_nothing_when_a_gate_fires():
    net = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go")
    net.add_and_gate(SEED_FACTS)
    before = structure(net)
    _, trace = net.forward(SEED_FACTS)
    assert trace.and_out[1] >= net.config.alpha
    assert net.induce(trace) is None
    assert structure(net) == before


def test_induce_adds_nothing_when_the_bank_is_full():
    net = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go", gate_cap=2)
    net.add_and_gate(SEED_FACTS)
    before = structure(net)
    _, trace = net.forward(1.0 - SEED_FACTS)
    assert np.all(trace.and_out < net.config.alpha)
    assert net.induce(trace) is None
    assert structure(net) == before


def test_induce_seeds_a_gate_on_the_literals_true_at_alpha():
    net = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go")
    facts = np.array([0.8, 0.2, 0.7, 0.3, 1.0, 0.0, 0.75, 0.25])
    _, trace = net.forward(facts)
    assert np.all(trace.and_out < net.config.alpha)
    assert net.induce(trace) == 1
    gate = net.and_gates[1]
    assert gate.weights.tolist() == [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert float(gate.bias) == 1.0
    assert net.or_root.weights.tolist() == [1.0, 1.0]


def test_parameters_and_gradients_name_their_category():
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take")
    net.add_and_gate(np.array([1.0, 0.0]))
    names = ["money.and0.w", "money.and0.b", "money.and1.w", "money.and1.b",
             "money.or.w", "money.or.b"]
    assert sorted(net.parameters()) == sorted(names)
    grads = net.gradients(net.forward(np.array([1.0, 0.0]))[1], 1.0)
    assert sorted(grads) == sorted(names)


# ---------------------------------------------------------------------------
# truth classification
# ---------------------------------------------------------------------------


def test_classify_truth_regions():
    config = TruthConfig(alpha=0.75)
    assert classify_truth(1.0, config) is TruthValue.TRUE
    assert classify_truth(0.75, config) is TruthValue.TRUE
    assert classify_truth(0.1, config) is TruthValue.FALSE
    assert classify_truth(0.25, config) is TruthValue.FALSE
    assert classify_truth(0.5, config) is TruthValue.UNKNOWN
    with pytest.raises(ValueError):
        classify_truth(1.5, config)


def test_truth_config_validates_alpha():
    with pytest.raises(ValueError):
        TruthConfig(alpha=0.4)
    with pytest.raises(ValueError):
        TruthConfig(alpha=1.01)
    TruthConfig(alpha=0.5)
    TruthConfig(alpha=1.0)


# ---------------------------------------------------------------------------
# rule extraction
# ---------------------------------------------------------------------------


def test_small_uniform_weights_yield_no_rules():
    net = make_net([[0.2] * 8], [1.0])
    assert extract_rules(net, weight_threshold=0.5) == []


def test_weak_or_connection_suppresses_rule():
    net = make_net([[1.0] * 8], [0.3])
    assert extract_rules(net, weight_threshold=0.5) == []


def test_rules_keep_only_heavy_literals_and_sort_by_or_weight():
    net = make_net(
        [
            [1.0, 0.0, 0.0, 0.9, 0.0, 0.0, 0.0, 0.1],
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8, 0.0],
        ],
        [0.7, 0.95],
    )
    rules = extract_rules(net, weight_threshold=0.5)
    assert [r.or_weight for r in rules] == [0.95, 0.7]
    assert rules[0].literals == ("find_x", "all_visited")
    assert rules[1].literals == ("find_x", "not_visited_x")
    assert rules[1].render() == "⟨find x⟩ ∧ ¬⟨visited x⟩ → ⟪go x⟫"


def test_money_rule_renders_in_take_notation():
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take")
    net.and_gates = [LogicNode.create(AND, np.array([1.0, 0.0]), 1.0)]
    net.or_root = LogicNode.create(OR, np.array([1.0]), 1.0)
    rules = extract_rules(net, weight_threshold=0.5)
    assert len(rules) == 1
    assert rules[0].render() == "⟨find x⟩ → ⟪take x⟫"


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


# finite and nonnegative, subnormals and values needing all 17 digits included
NONNEGATIVE = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
# the OR weights' domain, which the loader enforces
UNIT = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def grown_networks(draw):
    """A network grown by induction to 1..gate_cap gates, then given random
    nonnegative weights and biases, OR weights at most 1."""
    category = draw(st.sampled_from(sorted(CATEGORY_LITERALS)))
    literals = CATEGORY_LITERALS[category]
    gate_cap = draw(st.integers(1, 16))
    net = LnnNetwork(category, literals, CATEGORY_VERBS[category],
                     TruthConfig(alpha=draw(st.floats(0.5, 1.0))), gate_cap=gate_cap)
    for _ in range(draw(st.integers(0, gate_cap - 1))):
        net.add_and_gate(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                       min_size=len(literals), max_size=len(literals))))
    for node in (*net.and_gates, net.or_root):
        n = node.weights.size
        weights = UNIT if node is net.or_root else NONNEGATIVE
        node.weights[...] = draw(st.lists(weights, min_size=n, max_size=n))
        node.bias[...] = draw(NONNEGATIVE)
    return net


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(net=grown_networks(), data=st.data())
def test_a_saved_network_loads_back_or_is_not_written(tmp_path_factory, net, data):
    """OR weights drawn past the loader's domain: `save_network` refuses them
    before writing anything; whatever it writes loads to the same bytes."""
    n = net.or_root.weights.size
    net.or_root.weights[...] = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    path = tmp_path_factory.mktemp("checkpoint") / f"{net.category}.lnn"
    try:
        save_network(net, path)
    except ValueError:
        assert np.any(net.or_root.weights > 1.0)
        assert not path.exists()
        return
    assert load_network(path).buffer.tobytes() == net.buffer.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(net=grown_networks())
def test_checkpoint_round_trip_is_exact(tmp_path_factory, net):
    path = tmp_path_factory.mktemp("checkpoint") / f"{net.category}.lnn"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.category == net.category
    assert loaded.verb == net.verb
    assert loaded.literals == net.literals
    assert loaded.config.alpha == net.config.alpha
    assert loaded.gate_cap == net.gate_cap
    assert len(loaded.and_gates) == len(net.and_gates)
    for a, b in zip((*loaded.and_gates, loaded.or_root), (*net.and_gates, net.or_root)):
        assert a.kind == b.kind
        assert a.weights.dtype == b.weights.dtype and a.weights.tobytes() == b.weights.tobytes()
        assert a.bias.dtype == b.bias.dtype and a.bias.tobytes() == b.bias.tobytes()


# each damages the alpha row (line 3), the gate_cap row (line 4), the gates
# row (line 7), the first gate row (line 8) or the OR row (the last), or cuts
# the file short; a number off its canonical form counts as damage. A cap
# below 1 is damage even with no gate over it
CHECKPOINT_DAMAGE = {
    "truncated": lambda lines: lines[:9],
    "short_gate_row": lambda lines: lines[:8] + [lines[8].rsplit(" ", 1)[0]] + lines[9:],
    "nan_bias": lambda lines: lines[:8] + [lines[8].replace("bias 1 ", "bias nan ")] + lines[9:],
    "negative_weight": lambda lines: lines[:8] + [lines[8].rsplit(" ", 1)[0] + " -0.25"] + lines[9:],
    "unparsable_bias": lambda lines: lines[:8] + [lines[8].replace("bias 1 ", "bias one ")] + lines[9:],
    "alpha_out_of_range": lambda lines: lines[:3] + ["alpha 0.25"] + lines[4:],
    "or_weight_above_one": lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0] + " 2.5"],
    "underscored_gate_cap": lambda lines: lines[:4] + ["gate_cap 1_6"] + lines[5:],
    "signed_gate_count": lambda lines: lines[:7] + ["gates +3"] + lines[8:],
    "underscored_weight": lambda lines: lines[:8] + [lines[8].rsplit(" ", 1)[0] + " 0_5"] + lines[9:],
    "non_ascii_bias": lambda lines: lines[:8] + [lines[8].replace("bias 1 ", "bias \u0661 ")] + lines[9:],
    "zero_gate_cap": lambda lines: (lines[:4] + ["gate_cap 0"] + lines[5:7]
                                    + ["gates 0", "or bias 1.25 weights"]),
}


@pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
def test_checkpoint_rejects_damaged_files(tmp_path, damage):
    path = tmp_path / "direction.lnn"
    save_network(make_net(np.full((3, 8), 0.5), np.ones(3)), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    damaged = CHECKPOINT_DAMAGE[damage](lines)
    assert damaged != lines
    path.write_text("\n".join(damaged) + "\n", encoding="utf-8")
    with pytest.raises(CheckpointError, match="direction.lnn"):
        load_network(path)


def test_a_checkpoint_over_its_gate_cap_names_the_file_and_the_cap(tmp_path):
    path = tmp_path / "direction.lnn"
    save_network(make_net(np.full((3, 8), 0.5), np.ones(3)), path)
    path.write_text(path.read_text(encoding="utf-8").replace("gate_cap 16", "gate_cap 2"),
                    encoding="utf-8")
    with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: 3 gates exceed gate_cap 2$"):
        load_network(path)


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.lnn"
    path.write_text("something else\n", encoding="utf-8")
    with pytest.raises(CheckpointError):
        load_network(path)
    path.write_bytes(b"\xff\xfe not text\n")
    with pytest.raises(CheckpointError):
        load_network(path)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_adam_moves_against_gradient():
    opt = AdamOptimizer(learning_rate=0.1)
    params = {"w": np.array([1.0, 2.0])}
    for _ in range(10):
        opt.step(params, {"w": np.array([1.0, -1.0])})
    assert params["w"][0] < 1.0 and params["w"][1] > 2.0


def test_adam_zero_learning_rate_leaves_parameters_bitwise():
    opt = AdamOptimizer(learning_rate=0.0)
    params = {"w": np.array([0.3, 0.7]), "b": np.array(1.25)}
    snapshot = {k: v.copy() for k, v in params.items()}
    opt.step(params, {"w": np.array([0.5, -2.0]), "b": np.array(0.1)})
    for k in params:
        assert np.array_equal(params[k], snapshot[k])


def test_adam_pads_state_when_parameter_grows():
    # a grown array keeps its elements in place: its old elements step as the
    # same array never grown does, bit for bit, and its new tail steps from
    # zero moments, as a fresh array does
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take")
    rng = np.random.default_rng(2)
    grown, kept, fresh = (AdamOptimizer(learning_rate=0.01) for _ in range(3))
    old = net.buffer.copy()
    for _ in range(2):
        grad = rng.normal(size=old.size)
        grown.step({"money": net.buffer}, {"money": grad})
        kept.step({"money": old}, {"money": grad})
    net.add_and_gate(np.array([1.0, 0.0]))
    tail = net.buffer[old.size:].copy()
    grad = rng.normal(size=net.buffer.size)
    grown.step({"money": net.buffer}, {"money": grad})
    kept.step({"money": old}, {"money": grad[:old.size]})
    fresh.step({"money": tail}, {"money": grad[old.size:]})
    m, v, t = grown._state["money"]
    # one count for the whole array, moved on by every step
    assert m.shape == v.shape == net.buffer.shape and type(t) is int and t == 3
    assert same_bits(net.buffer[:old.size], old)
    for i in (0, 1):
        assert same_bits(grown._state["money"][i][:old.size], kept._state["money"][i])
        assert same_bits(grown._state["money"][i][old.size:], fresh._state["money"][i])
    # an array that shrinks or changes rank is an error
    for shape in ((1,), (2, 2)):
        plain = AdamOptimizer(learning_rate=0.01)
        plain.step({"w": np.ones(4)}, {"w": np.ones(4)})
        with pytest.raises(ValueError, match="changed shape"):
            plain.step({"w": np.ones(shape)}, {"w": np.ones(shape)})


def test_a_grown_buffer_keeps_every_value_and_memory_does_not_grow_with_the_cap():
    net = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go", gate_cap=10**9)
    assert net.buffer.size == 1 + 8 + 1 + 1
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        net.buffer[...] = rng.uniform(0.0, 1.0, size=net.buffer.size)
        before = {name: p.copy() for name, p in net.parameters().items()}
        old = net.buffer
        seed = (rng.uniform(size=8) > 0.5).astype(float)
        assert net.add_and_gate(seed) == n
        assert net.buffer is not old and net.buffer.size == 1 + (n + 1) * 10
        # the old buffer is a prefix of the new one: no element moved
        assert same_bits(net.buffer[:old.size], old)
        assert same_bits(net.buffer[old.size:], np.append(np.where(seed >= 0.75, 1.0, 0.0), [1.0, 1.0]))
        after = net.parameters()
        for name, value in before.items():
            if name.endswith(".or.w"):
                assert same_bits(after[name][:n], value)
            else:
                assert same_bits(after[name], value), name
        assert same_bits(after[f"direction.and{n}.w"], np.where(seed >= 0.75, 1.0, 0.0))
        assert same_bits(after[f"direction.and{n}.b"], 1.0) and after["direction.or.w"][n] == 1.0
        # every node is a view into the new buffer
        for node in (*net.and_gates, net.or_root):
            assert np.shares_memory(node.weights, net.buffer)
            assert np.shares_memory(node.bias, net.buffer)


def test_a_deep_copy_points_into_its_own_buffer():
    net = make_net([[0.5, 0.25, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]], [0.75, 0.5])
    copied = copy.deepcopy(net)
    assert same_bits(copied.buffer, net.buffer) and not np.shares_memory(copied.buffer, net.buffer)
    for node, original in zip((*copied.and_gates, copied.or_root), (*net.and_gates, net.or_root)):
        for view, other in ((node.weights, original.weights), (node.bias, original.bias)):
            assert np.shares_memory(view, copied.buffer)
            assert not np.shares_memory(view, net.buffer) and same_bits(view, other)
    for view in copied.parameters().values():
        assert np.shares_memory(view, copied.buffer)
    # writing the copy leaves the original as it was
    copied.buffer[...] = 0.0
    assert float(copied.and_gates[1].bias) == 0.0 and float(net.and_gates[1].bias) == 1.0
    copied.add_and_gate(np.ones(4))
    assert len(copied.and_gates) == 3 and len(net.and_gates) == 2


def test_assigning_nodes_lays_out_a_new_buffer():
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take")
    # the first gate keeps its OR weight (1); the new second gate reads 0
    net.and_gates = [LogicNode.create(AND, [0.25, 0.5], 0.75), LogicNode.create(AND, [1.0, 0.0], 2.0)]
    assert net.buffer.tolist() == [1.25, 0.25, 0.5, 0.75, 1.0, 1.0, 0.0, 2.0, 0.0]
    net.or_root = LogicNode.create(OR, [0.125, 1.0], 1.5)
    assert net.buffer.tolist() == [1.5, 0.25, 0.5, 0.75, 0.125, 1.0, 0.0, 2.0, 1.0]
    assert isinstance(net.and_gates, tuple)
    with pytest.raises(ValueError):
        net.and_gates = [LogicNode.create(AND, [1.0, 0.0, 1.0], 1.0)]
    # an OR root needs one weight per gate
    with pytest.raises(ValueError, match="2 weights, got 3"):
        net.or_root = LogicNode.create(OR, [0.125, 1.0, 1.0], 1.5)
    assert net.buffer.tolist() == [1.5, 0.25, 0.5, 0.75, 0.125, 1.0, 0.0, 2.0, 1.0]
    # dropping a gate keeps the OR weight of the one that remains
    net.and_gates = net.and_gates[1:]
    assert net.buffer.tolist() == [1.5, 1.0, 0.0, 2.0, 0.125]


@contextlib.contextmanager
def counting_lay_outs():
    """The networks `LnnNetwork._lay_out` is called on, one entry a call."""
    calls = []
    lay_out = LnnNetwork._lay_out

    def counted(net, *args):
        calls.append(net)
        return lay_out(net, *args)

    with mock.patch.object(LnnNetwork, "_lay_out", counted):
        yield calls


def test_the_constructor_lays_out_the_rows_it_is_given_once():
    gates = [LogicNode.create(AND, [0.25, 0.5], 0.75), LogicNode.create(AND, [1.0, 0.0], 2.0)]
    with counting_lay_outs() as calls:
        net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take", gates=gates,
                         or_root=LogicNode.create(OR, [0.125, 1.0], 1.5))
        seed = LnnNetwork("money", CATEGORY_LITERALS["money"], "take")
        unit = LnnNetwork("money", CATEGORY_LITERALS["money"], "take", gates=gates)
    assert calls == [net, seed, unit]
    assert net.buffer.tolist() == [1.5, 0.25, 0.5, 0.75, 0.125, 1.0, 0.0, 2.0, 1.0]
    # no rows: the seed gate under the default OR root; no OR root: a unit weight per gate
    assert seed.buffer.tolist() == [1.25, 0.5, 0.5, 1.0, 1.0]
    assert unit.buffer.tolist() == [1.25, 0.25, 0.5, 0.75, 1.0, 1.0, 0.0, 2.0, 1.0]
    with pytest.raises(ValueError, match="3 gates exceed gate_cap 2"):
        LnnNetwork("money", CATEGORY_LITERALS["money"], "take", gate_cap=2,
                   gates=[*gates, gates[0]])
    with pytest.raises(ValueError, match="2 weights, got 1"):
        LnnNetwork("money", CATEGORY_LITERALS["money"], "take", gates=gates,
                   or_root=LogicNode.create(OR, [1.0], 1.5))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(net=grown_networks())
def test_a_checkpoint_is_laid_out_once_as_the_setters_laid_it_out(tmp_path_factory, net):
    path = tmp_path_factory.mktemp("checkpoint") / f"{net.category}.lnn"
    save_network(net, path)
    with counting_lay_outs() as calls:
        loaded = load_network(path)
    assert calls == [loaded]
    # the reference: a seed network whose rows are replaced through the setters
    reference = LnnNetwork(net.category, net.literals, net.verb, net.config, net.gate_cap)
    reference.and_gates = [LogicNode(AND, g.weights.copy(), g.bias.copy()) for g in net.and_gates]
    reference.or_root = LogicNode(OR, net.or_root.weights.copy(), net.or_root.bias.copy())
    assert loaded.buffer.tobytes() == reference.buffer.tobytes()


# ---------------------------------------------------------------------------
# bit-for-bit against the numpy-call forms
# ---------------------------------------------------------------------------


def reference_clamp01(v):
    """The scalar clamp as `np.clip`: kept as reference."""
    return float(np.clip(v, 0.0, 1.0))


def reference_forward(net, facts):
    """`LnnNetwork.forward` as it was written over numpy calls: kept as reference."""
    x = np.asarray(facts, dtype=np.float64)
    and_pre = np.array([float(g.bias - g.weights @ (1.0 - x)) for g in net.and_gates])
    and_out = np.clip(and_pre, 0.0, 1.0)
    or_pre = float(1.0 - net.or_root.bias + np.ascontiguousarray(net.or_root.weights) @ and_out)
    or_out = float(np.clip(or_pre, 0.0, 1.0))
    return or_out, (x, and_pre, and_out, or_pre, or_out)


class ReferenceAdam:
    """`AdamOptimizer` as it was written over numpy arrays: kept as reference."""

    def __init__(self, learning_rate):
        self.learning_rate, self.beta1, self.beta2, self.eps = learning_rate, 0.9, 0.999, 1e-8
        self.state = {}

    def step(self, params, grads):
        for name, grad in grads.items():
            param = params[name]
            state = self.state.get(name)
            if state is None:
                state = [np.zeros(param.shape), np.zeros(param.shape), 0]
            elif state[0].shape != param.shape:
                for i in (0, 1):
                    grown = np.zeros(param.shape)
                    grown[: state[i].shape[0]] = state[i]
                    state[i] = grown
            m, v, t = state
            t += 1
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            self.state[name] = [m, v, t]
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            param[...] = param - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def same_bits(a, b) -> bool:
    """Equal shape and bytes, so the sign bit of every zero and NaN counts."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# signed zeros and exact values often; magnitudes that push pre-activations far outside [0, 1]
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.25, 5e-324])
WEIGHTS = EDGE_FLOATS | st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def gate_banks(draw):
    """A network of 0..16 gates with arbitrary nonnegative weights and biases."""
    category = draw(st.sampled_from(sorted(CATEGORY_LITERALS)))
    net = LnnNetwork(category, CATEGORY_LITERALS[category], CATEGORY_VERBS[category])
    arity = net.input_arity
    n_gates = draw(st.integers(0, 16))
    net.and_gates = [
        LogicNode.create(AND, draw(st.lists(WEIGHTS, min_size=arity, max_size=arity)),
                         draw(WEIGHTS))
        for _ in range(n_gates)
    ]
    net.or_root = LogicNode.create(OR, draw(st.lists(WEIGHTS, min_size=n_gates, max_size=n_gates)),
                                   draw(WEIGHTS))
    return net


@st.composite
def fact_vectors(draw, arity):
    crisp = st.sampled_from([0.0, 1.0])
    real = crisp | st.floats(0.0, 1.0, allow_nan=False)
    return np.array(draw(st.lists(draw(st.sampled_from([crisp, real])),
                                  min_size=arity, max_size=arity)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(net=gate_banks(), data=st.data())
def test_forward_equals_the_numpy_call_form_bit_for_bit(net, data):
    for _ in range(3):
        facts = data.draw(fact_vectors(net.input_arity))
        q, trace = net.forward(facts)
        ref_q, ref_trace = reference_forward(net, facts)
        assert type(q) is float and same_bits(q, ref_q)
        # the reference's clamped OR value is its q, checked above
        fields = (trace.facts, trace.and_pre, trace.and_out, trace.or_pre)
        for name, got, want in zip(("facts", "and_pre", "and_out", "or_pre"),
                                   fields, ref_trace):
            assert same_bits(got, want), (name, got, want)
        assert trace.and_pre.dtype == trace.and_out.dtype == np.float64


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(v=EDGE_FLOATS | st.sampled_from([-1.0, 2.0, float("nan"), float("inf"), -float("inf")])
       | st.floats(-1e300, 1e300, allow_nan=False))
def test_clamp01_equals_np_clip_bit_for_bit(v):
    assert same_bits(clamp01(v), reference_clamp01(v))


EXTREME_GRADS = st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, 5e-324, 1e155]) \
    | st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def adam_runs(draw):
    """Up to 12 operations, each an optimizer step or an induced gate, seeded
    from crisp facts."""
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 3)) == 0:
            ops.append(("grow", draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=2, max_size=2))))
        else:
            ops.append(("step", draw(st.lists(EXTREME_GRADS, min_size=16, max_size=16))))
    return ops


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ops=adam_runs(), learning_rate=st.sampled_from([0.0, 1e-3, 0.5, 10.0]),
       bias=EDGE_FLOATS, weights=st.lists(WEIGHTS, min_size=2, max_size=2),
       gate_cap=st.integers(1, 16))
def test_adam_equals_the_numpy_array_form_bit_for_bit(ops, learning_rate, bias, weights, gate_cap):
    # one money network, stepped on its buffer; the reference keeps the same
    # parameters as named arrays, as the network once held them
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take", gate_cap=gate_cap)
    net.and_gates = [LogicNode.create(AND, weights, bias)]
    ref_params = {name: p.copy() for name, p in net.parameters().items()}
    opt = AdamOptimizer(learning_rate=learning_rate)
    ref = ReferenceAdam(learning_rate)
    for kind, values in ops:
        if kind == "grow":
            seed = np.array(values[:2]) if values else np.array([1.0, 0.0])
            j = net.add_and_gate(seed)
            if j is not None:
                ref_params[f"money.and{j}.w"] = np.where(seed >= net.config.alpha, 1.0, 0.0)
                ref_params[f"money.and{j}.b"] = np.array(1.0)
                ref_params["money.or.w"] = np.append(ref_params["money.or.w"], 1.0)
            continue
        grad = np.resize(np.array(values), net.buffer.size)
        # an induced gate gets the exact zero gradient `gradients` gives it
        named = net.named(grad)
        for j in range(1, len(net.and_gates)):
            named[f"money.and{j}.w"][...] = named[f"money.and{j}.b"][...] = 0.0
        ref_grads = {name: g.copy() for name, g in net.named(grad).items()}
        with np.errstate(all="ignore"):   # extreme gradients overflow on purpose
            opt.step({"money": net.buffer}, {"money": grad})
            ref.step(ref_params, ref_grads)
        m, v, t = opt._state["money"]
        moments = net.named(m), net.named(v)
        for name, p in net.parameters().items():
            assert same_bits(p, ref_params[name]), (name, p, ref_params[name])
            ref_m, ref_v, _ = ref.state[name]
            assert same_bits(moments[0][name], ref_m) and same_bits(moments[1][name], ref_v), name
        # the array's one count is the count of every name there from the start
        for name in ("money.and0.w", "money.and0.b", "money.or.w", "money.or.b"):
            assert type(t) is int and t == ref.state[name][2], name


def category_assignments(category):
    """The category's crisp fact vectors, one per truth assignment."""
    arrays = {id(c.values): c.values for key, c in GROUNDINGS.items() if key[0] == category}
    return list(arrays.values())


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(category=st.sampled_from(sorted(CATEGORY_LITERALS)), data=st.data(),
       or_bias=st.floats(0.0, 1e3) | st.sampled_from([0.0, 1.0, 1.25]),
       upstream=st.floats(allow_nan=False, allow_infinity=False),
       learning_rate=st.sampled_from([1e-3, 0.5, 10.0]))
def test_an_induced_gate_gets_no_gradient_so_any_adam_count_leaves_it(
        category, data, or_bias, upstream, learning_rate):
    # the optimizer keeps one step count per buffer, so an induced gate joins
    # at the buffer's count: that moves no bit only while the gate's weights
    # and bias get an exact zero gradient, so their moments stay 0
    assignments = category_assignments(category)
    net = LnnNetwork(category, CATEGORY_LITERALS[category], CATEGORY_VERBS[category],
                     gate_cap=len(assignments) + 1)
    optimizer = AdamOptimizer(learning_rate)
    optimizer.step({category: net.buffer}, {category: np.full(net.buffer.size, 0.5)})
    net.project()
    for facts in assignments:
        net.induce(net.forward(facts)[1])
    n = len(net.and_gates)
    assert n == len(assignments) + 1
    or_weights = data.draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]),
                                    min_size=n, max_size=n))
    net.or_root = LogicNode.create(OR, or_weights, or_bias)
    # the positions of every induced gate's weights and bias
    positions = net.named(np.arange(net.buffer.size))
    induced = np.concatenate([np.append(positions[f"{category}.and{j}.w"],
                                        positions[f"{category}.and{j}.b"]) for j in range(1, n)])
    before, total = net.buffer.copy(), np.zeros(net.buffer.size)
    with np.errstate(all="ignore"):   # a huge upstream overflows the sum and the other moments
        for facts in assignments:
            grad = net.gradients(net.forward(facts)[1], upstream).vector
            assert same_bits(grad[induced], np.zeros(induced.size))
            total += grad
        optimizer.step({category: net.buffer}, {category: total})
    assert same_bits(net.buffer[induced], before[induced])
    m, v, t = optimizer._state[category]
    assert t == 2 and not np.any(m[induced]) and not np.any(v[induced])
