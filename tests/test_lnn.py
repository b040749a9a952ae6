"""Logic-node semantics, gradients vs finite differences, induction, rules, checkpoints."""

import contextlib
import copy
import itertools
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnnrl.factextract import CATEGORY_LITERALS, CATEGORY_VERBS, GROUNDINGS
from lnnrl.lnn import (
    CheckpointError,
    LnnNetwork,
    TruthValue,
    clamp01,
    classify_truth,
    extract_rules,
    load_network,
    save_network,
)
from lnnrl.optim import AdamOptimizer


def make_net(weights_list, or_weights, or_bias=1.25, literals=None, verb="go"):
    """A direction network of gates with bias 1 under the given OR root."""
    literals = literals or CATEGORY_LITERALS["direction"][: len(weights_list[0])]
    net = LnnNetwork("direction", literals, verb, rows=[(w, 1.0, 1.0) for w in weights_list],
                     or_bias=or_bias)
    return with_or_weights(net, or_weights)


def with_or_weights(net, or_weights):
    """`net` with its OR weights set to `or_weights` in its buffer, where an
    OR weight above 1, which the constructor refuses, may go."""
    for i, or_weight in zip(named_positions(net)[f"{net.category}.or.w"], or_weights, strict=True):
        net.buffer[i] = float(or_weight)
    return net


def with_or_root(net, or_weights, or_bias):
    """`net`'s fields and gates under an OR root of `or_weights` and `or_bias`."""
    rows = [(w, b, or_w) for (w, b, _), or_w in zip(net.rows(), or_weights, strict=True)]
    return LnnNetwork(net.category, net.literals, net.verb, net.alpha, net.gate_cap, rows, or_bias)


def named_positions(net):
    """Each parameter's indices in `net.buffer`, and in any vector laid out
    like it, by name: `<category>.and<j>.w|b` and `<category>.or.w|b`."""
    arity, category = net.input_arity, net.category
    step = arity + 2
    positions = {}
    for j in range(len(net.rows())):
        k = 1 + j * step
        positions[f"{category}.and{j}.w"] = list(range(k, k + arity))
        positions[f"{category}.and{j}.b"] = [k + arity]
    positions[f"{category}.or.w"] = list(range(step, len(net.buffer), step))
    positions[f"{category}.or.b"] = [0]
    return positions


def named(net, vector):
    """`vector`, laid out like `net.buffer`, read by parameter name: a list
    of values for each weight vector, one value for each bias."""
    return {name: [vector[i] for i in where] if name.endswith(".w") else vector[where[0]]
            for name, where in named_positions(net).items()}


# ---------------------------------------------------------------------------
# node semantics
# ---------------------------------------------------------------------------


def and_value(weights, bias, x):
    """An AND node's value on `x`, read through `LnnNetwork.forward`: the
    one gate of a network, as its trace's `and_out`."""
    literals = tuple(f"x{i}" for i in range(len(weights)))
    net = LnnNetwork("and", literals, "go", rows=[(weights, bias, 1.0)])
    return net.forward(x)[1].and_out[0]


def or_value(weights, bias, x):
    """An OR node's value on `x`, read through `LnnNetwork.forward`: the
    root over one identity gate per input (weight 1 on that literal, bias 1)."""
    n = len(weights)
    literals = tuple(f"x{i}" for i in range(n))
    rows = [([float(i == j) for i in range(n)], 1.0, weights[j]) for j in range(n)]
    net = LnnNetwork("or", literals, "go", rows=rows, or_bias=bias)
    return net.forward(x)[0]


def test_and_node_hand_values():
    assert and_value([1.0, 1.0], 1.0, np.array([1.0, 1.0])) == 1.0
    assert and_value([1.0, 1.0], 1.0, np.array([1.0, 0.0])) == 0.0   # 1 - 1 clamped
    assert and_value([1.0, 1.0], 1.0, np.array([0.5, 1.0])) == 0.5


def test_or_node_hand_values():
    assert or_value([1.0, 1.0], 1.0, np.array([0.0, 0.0])) == 0.0
    assert or_value([1.0, 1.0], 1.0, np.array([1.0, 0.0])) == 1.0
    assert or_value([1.0, 1.0], 1.0, np.array([0.3, 0.0])) == pytest.approx(0.3)


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_crisp_logic_matches_truth_tables(arity):
    for bits in itertools.product([0.0, 1.0], repeat=arity):
        x = np.array(bits)
        assert and_value(np.ones(arity), 1.0, x) == float(all(bits))
        assert or_value(np.ones(arity), 1.0, x) == float(any(bits))


def test_forward_stays_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(100):
        net = make_net(rng.uniform(0, 3, size=(3, 8)), rng.uniform(0, 3, size=3),
                       or_bias=rng.uniform(0, 2))
        q, trace = net.forward(rng.uniform(0, 1, size=8))
        assert 0.0 <= q <= 1.0
        assert all(0.0 <= out <= 1.0 for out in trace.and_out)


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
    money = CATEGORY_LITERALS["money"]
    with pytest.raises(ValueError, match="nonnegative"):
        LnnNetwork("money", money, "take", rows=[([-0.1, 1.0], 1.0, 1.0)])
    with pytest.raises(ValueError, match="nonnegative"):
        LnnNetwork("money", money, "take", rows=[([1.0, 1.0], 1.0, 1.0)], or_bias=-0.5)


@pytest.mark.parametrize("rows, or_bias, message", [
    ([([math.nan, 1.0], 1.0, 2.5)], 1.25, "finite and nonnegative"),
    ([([1.0, 0.0], 1.0, 1.0)], math.inf, "finite and nonnegative"),
    ([([1.0, 0.0], 1.0, 1.5)], 1.25, "above 1"),
], ids=["nan_weight", "infinite_or_bias", "or_weight_above_one"])
def test_the_constructor_refuses_what_a_checkpoint_refuses(rows, or_bias, message):
    with pytest.raises(ValueError, match=f"^money network.*{message}"):
        LnnNetwork("money", CATEGORY_LITERALS["money"], "take", rows=rows, or_bias=or_bias)


def test_arity_mismatch_raises():
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take")
    with pytest.raises(ValueError):
        net.forward(np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def finite_difference(net, x, upstream, index, step=1e-6):
    original = net.buffer[index]
    net.buffer[index] = original + step
    q_plus, _ = net.forward(x)
    net.buffer[index] = original - step
    q_minus, _ = net.forward(x)
    net.buffer[index] = original
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
        for name, where in named_positions(net).items():
            for index in where:
                expected = finite_difference(net, x, upstream, index)
                assert grads[index] == pytest.approx(expected, rel=1e-5, abs=1e-9), name


def test_clamped_activation_has_zero_gradient():
    # the single AND gate saturates at 0, so nothing flows to its parameters
    net = make_net([[1.0, 1.0, 1.0, 1.0]], [1.0], or_bias=0.5)
    x = np.array([0.0, 0.0, 0.0, 0.0])
    _, trace = net.forward(x)
    assert trace.and_pre[0] < 0.0
    grads = named(net, net.gradients(trace, 1.0))
    assert all(g == 0.0 for g in grads["direction.and0.w"]) and grads["direction.and0.b"] == 0.0


def test_gradients_are_one_fresh_vector_laid_out_like_the_buffer():
    # gate 0 saturates at 0 and gate 1 is open, so only gate 0 gets no gradient
    net = make_net([[1.0, 1.0, 1.0, 1.0], [0.1, 0.1, 0.1, 0.1]], [1.0, 0.5], or_bias=1.0)
    x = np.zeros(4)
    vector = net.gradients(net.forward(x)[1], 1.0)
    assert type(vector) is list and len(vector) == len(net.buffer)
    assert all(type(g) is float for g in vector) and vector is not net.buffer
    # read by name, in the buffer's layout: a gate with no gradient reads
    # +0.0; gate 1's gradient is its own
    first = named(net, vector)
    w, b = first["direction.and0.w"], first["direction.and0.b"]
    assert same_bits(w, np.zeros(4)) and same_bits(b, 0.0)
    assert all(g < 0.0 for g in first["direction.and1.w"]) and first["direction.and1.b"] > 0.0
    # every call makes a fresh list
    second = net.gradients(net.forward(x)[1], 1.0)
    assert second is not vector and same_bits(second, vector)


def test_zero_upstream_zeroes_all_gradients():
    rng = np.random.default_rng(3)
    net, x = random_open_region_case(rng)
    grads = net.gradients(net.forward(x)[1], 0.0)
    assert all(grad == 0.0 for grad in grads)


# ---------------------------------------------------------------------------
# gate induction
# ---------------------------------------------------------------------------


def test_add_and_gate_seeds_unit_weights_on_true_literals():
    net = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go")
    facts = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    index = net.add_and_gate(facts)
    weights, bias, or_weight = net.rows()[index]
    assert weights == (1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0)
    assert bias == 1.0
    assert or_weight == 1.0
    # fires exactly on its seed pattern
    assert net.forward(facts)[1].and_out[index] == 1.0
    assert net.forward(1.0 - facts)[1].and_out[index] == 0.0


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
    assert len(net.rows()) == 2


def test_assigning_more_gates_than_the_cap_is_refused():
    rows = [([1.0, 0.0], 1.0, 1.0)] * 3
    with pytest.raises(ValueError, match="^3 gates exceed gate_cap 2$"):
        LnnNetwork("money", CATEGORY_LITERALS["money"], "take", gate_cap=2, rows=rows)
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take", gate_cap=2, rows=rows[:2])
    assert len(net.rows()) == 2


def structure(net):
    return net.rows(), net.buffer[0]


SEED_FACTS = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_induce_adds_nothing_when_a_gate_fires():
    net = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go")
    net.add_and_gate(SEED_FACTS)
    before = structure(net)
    _, trace = net.forward(SEED_FACTS)
    assert trace.and_out[1] >= net.alpha
    assert net.induce(trace) is None
    assert structure(net) == before


def test_induce_adds_nothing_when_the_bank_is_full():
    net = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go", gate_cap=2)
    net.add_and_gate(SEED_FACTS)
    before = structure(net)
    _, trace = net.forward(1.0 - SEED_FACTS)
    assert all(out < net.alpha for out in trace.and_out)
    assert net.induce(trace) is None
    assert structure(net) == before


def test_induce_seeds_a_gate_on_the_literals_true_at_alpha():
    net = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go")
    facts = np.array([0.8, 0.2, 0.7, 0.3, 1.0, 0.0, 0.75, 0.25])
    _, trace = net.forward(facts)
    assert all(out < net.alpha for out in trace.and_out)
    assert net.induce(trace) == 1
    weights, bias, _ = net.rows()[1]
    assert weights == (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0)
    assert bias == 1.0
    assert [or_weight for _, _, or_weight in net.rows()] == [1.0, 1.0]


def test_parameters_and_gradients_name_their_category():
    # the names read every element of the buffer and of a gradient once
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take")
    net.add_and_gate(np.array([1.0, 0.0]))
    names = ["money.and0.w", "money.and0.b", "money.and1.w", "money.and1.b",
             "money.or.w", "money.or.b"]
    positions = named_positions(net)
    assert sorted(positions) == sorted(names)
    assert sorted(i for where in positions.values() for i in where) == list(range(len(net.buffer)))
    grads = net.gradients(net.forward(np.array([1.0, 0.0]))[1], 1.0)
    assert len(grads) == len(net.buffer)


# ---------------------------------------------------------------------------
# truth classification
# ---------------------------------------------------------------------------


def test_classify_truth_regions():
    alpha = 0.75
    assert classify_truth(1.0, alpha) is TruthValue.TRUE
    assert classify_truth(0.75, alpha) is TruthValue.TRUE
    assert classify_truth(0.1, alpha) is TruthValue.FALSE
    assert classify_truth(0.25, alpha) is TruthValue.FALSE
    assert classify_truth(0.5, alpha) is TruthValue.UNKNOWN
    with pytest.raises(ValueError):
        classify_truth(1.5, alpha)


def test_alpha_outside_its_range_is_refused():
    money = CATEGORY_LITERALS["money"]
    for alpha in (0.4, 1.01):
        with pytest.raises(ValueError, match="^alpha must lie in"):
            LnnNetwork("money", money, "take", alpha=alpha)
        with pytest.raises(ValueError, match="^alpha must lie in"):
            classify_truth(0.5, alpha)
    for alpha in (0.5, 1.0):
        assert LnnNetwork("money", money, "take", alpha=alpha).alpha == alpha


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
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take",
                     rows=[(np.array([1.0, 0.0]), 1.0, 1.0)], or_bias=1.0)
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
    alpha = draw(st.floats(0.5, 1.0))
    net = LnnNetwork(category, literals, CATEGORY_VERBS[category], alpha, gate_cap)
    for _ in range(draw(st.integers(0, gate_cap - 1))):
        net.add_and_gate(draw(st.lists(st.sampled_from([0.0, 1.0]),
                                       min_size=len(literals), max_size=len(literals))))
    arity, n = len(literals), len(net.rows())
    gates = [(draw(st.lists(NONNEGATIVE, min_size=arity, max_size=arity)), draw(NONNEGATIVE))
             for _ in range(n)]
    rows = [(w, b, or_w) for (w, b), or_w in zip(gates, draw(st.lists(UNIT, min_size=n, max_size=n)))]
    return LnnNetwork(category, literals, CATEGORY_VERBS[category], alpha, gate_cap, rows,
                      draw(NONNEGATIVE))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(net=grown_networks(), data=st.data())
def test_a_saved_network_loads_back_or_is_not_written(tmp_path_factory, net, data):
    """OR weights drawn past the loader's domain: `save_network` refuses them
    before writing anything; whatever it writes loads to the same bytes."""
    n = len(net.rows())
    or_weights = data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    net = with_or_weights(net, or_weights)
    path = tmp_path_factory.mktemp("checkpoint") / f"{net.category}.lnn"
    try:
        save_network(net, path)
    except ValueError:
        assert any(w > 1.0 for w in or_weights)
        assert not path.exists()
        return
    assert same_bits(load_network(path).buffer, net.buffer)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(net=grown_networks())
def test_checkpoint_round_trip_is_exact(tmp_path_factory, net):
    path = tmp_path_factory.mktemp("checkpoint") / f"{net.category}.lnn"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.category == net.category
    assert loaded.verb == net.verb
    assert loaded.literals == net.literals
    assert loaded.alpha == net.alpha
    assert loaded.gate_cap == net.gate_cap
    assert len(loaded.rows()) == len(net.rows())
    for a, b in zip(loaded.rows(), net.rows()):
        assert all(type(w) is float for w in (*a[0], *a[1:], *b[0], *b[1:]))
        assert same_bits(a[0], b[0]) and same_bits(a[1:], b[1:])
    assert type(loaded.buffer[0]) is float and same_bits(loaded.buffer[0], net.buffer[0])


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
    old = list(net.buffer)
    for _ in range(2):
        grad = rng.normal(size=len(old)).tolist()
        grown.step({"money": net.buffer}, {"money": grad})
        kept.step({"money": old}, {"money": grad})
    net.add_and_gate(np.array([1.0, 0.0]))
    tail = net.buffer[len(old):]
    grad = rng.normal(size=len(net.buffer)).tolist()
    grown.step({"money": net.buffer}, {"money": grad})
    kept.step({"money": old}, {"money": grad[:len(old)]})
    fresh.step({"money": tail}, {"money": grad[len(old):]})
    m, v, t = grown._state["money"]
    # one count for the whole vector, moved on by every step
    assert len(m) == len(v) == len(net.buffer) and type(t) is int and t == 3
    assert same_bits(net.buffer[:len(old)], old)
    for i in (0, 1):
        assert same_bits(grown._state["money"][i][:len(old)], kept._state["money"][i])
        assert same_bits(grown._state["money"][i][len(old):], fresh._state["money"][i])
    # a list that shrinks is an error, and so is an array whose shape changes
    # at all: numpy cannot broadcast its moments onto the new shape
    plain = AdamOptimizer(learning_rate=0.01)
    plain.step({"w": [1.0] * 4}, {"w": [1.0] * 4})
    with pytest.raises(ValueError, match="shrank"):
        plain.step({"w": [1.0]}, {"w": [1.0]})
    for shape in ((1,), (5,), (2, 2)):
        plain = AdamOptimizer(learning_rate=0.01)
        plain.step({"w": np.ones(4)}, {"w": np.ones(4)})
        with pytest.raises(ValueError, match="broadcast"):
            plain.step({"w": np.ones(shape)}, {"w": np.ones(shape)})


def test_a_grown_buffer_keeps_every_value_and_memory_does_not_grow_with_the_cap():
    net = LnnNetwork("direction", CATEGORY_LITERALS["direction"], "go", gate_cap=10**9)
    assert len(net.buffer) == 1 + 8 + 1 + 1
    rng = np.random.default_rng(5)
    for n in range(1, 6):
        net.buffer[:] = rng.uniform(0.0, 1.0, size=len(net.buffer)).tolist()
        before = named(net, net.buffer)
        buffer, old = net.buffer, list(net.buffer)
        seed = (rng.uniform(size=8) > 0.5).astype(float)
        assert net.add_and_gate(seed) == n
        # the buffer is extended in place: no element moved
        assert net.buffer is buffer and len(net.buffer) == 1 + (n + 1) * 10
        assert same_bits(net.buffer[:len(old)], old)
        assert same_bits(net.buffer[len(old):], np.append(np.where(seed >= 0.75, 1.0, 0.0), [1.0, 1.0]))
        after = named(net, net.buffer)
        for name, value in before.items():
            if name.endswith(".or.w"):
                assert same_bits(after[name][:n], value)
            else:
                assert same_bits(after[name], value), name
        assert same_bits(after[f"direction.and{n}.w"], np.where(seed >= 0.75, 1.0, 0.0))
        assert same_bits(after[f"direction.and{n}.b"], 1.0) and after["direction.or.w"][n] == 1.0
        # every row reads the grown buffer
        for j, (weights, bias, _) in enumerate(net.rows()):
            assert same_bits(weights, after[f"direction.and{j}.w"])
            assert same_bits(bias, after[f"direction.and{j}.b"])
        assert same_bits([or_weight for _, _, or_weight in net.rows()], after["direction.or.w"])


def test_a_deep_copy_points_into_its_own_buffer():
    net = make_net([[0.5, 0.25, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]], [0.75, 0.5])
    copied = copy.deepcopy(net)
    assert same_bits(copied.buffer, net.buffer) and copied.buffer is not net.buffer
    for row, original in zip(copied.rows(), net.rows()):
        assert same_bits(row[0], original[0]) and same_bits(row[1:], original[1:])
    # writing the copy leaves the original as it was
    copied.buffer[:] = [0.0] * len(copied.buffer)
    assert copied.rows()[1][1] == 0.0 and net.rows()[1][1] == 1.0
    copied.add_and_gate(np.ones(4))
    assert len(copied.rows()) == 3 and len(net.rows()) == 2


@contextlib.contextmanager
def counting_constructions():
    """The networks `LnnNetwork.__init__` builds, one entry a call."""
    calls = []
    init = LnnNetwork.__init__

    def counted(net, *args, **kwargs):
        calls.append(net)
        return init(net, *args, **kwargs)

    with mock.patch.object(LnnNetwork, "__init__", counted):
        yield calls


def test_the_constructor_lays_out_the_rows_it_is_given_once():
    rows = [([0.25, 0.5], 0.75, 0.125), ([1.0, 0.0], 2.0, 1.0)]
    with counting_constructions() as calls:
        net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take", rows=rows, or_bias=1.5)
        seed = LnnNetwork("money", CATEGORY_LITERALS["money"], "take")
        unit = LnnNetwork("money", CATEGORY_LITERALS["money"], "take",
                          rows=[(w, b, 1.0) for w, b, _ in rows])
    assert calls == [net, seed, unit]
    assert net.buffer == [1.5, 0.25, 0.5, 0.75, 0.125, 1.0, 0.0, 2.0, 1.0]
    # no rows: the seed gate under the default OR bias; no OR bias: the default
    assert seed.buffer == [1.25, 0.5, 0.5, 1.0, 1.0]
    assert unit.buffer == [1.25, 0.25, 0.5, 0.75, 1.0, 1.0, 0.0, 2.0, 1.0]
    with pytest.raises(ValueError, match="3 gates exceed gate_cap 2"):
        LnnNetwork("money", CATEGORY_LITERALS["money"], "take", gate_cap=2,
                   rows=[*rows, rows[0]])
    # a row is as wide as the literals
    with pytest.raises(ValueError, match="^gate weights must number 2, got 3$"):
        LnnNetwork("money", CATEGORY_LITERALS["money"], "take", rows=[([1.0, 0.0, 1.0], 1.0, 1.0)])


# signed zeros, the least subnormal and values needing all 17 digits
ROW_VALUES = st.sampled_from([0.0, -0.0, 5e-324, 1.0]) | NONNEGATIVE
ROW_OR_WEIGHTS = st.sampled_from([0.0, -0.0, 5e-324, 1.0]) | UNIT


@st.composite
def grown_banks(draw):
    """A network built from 0..gate_cap random rows, then grown by induction
    up to 0..gate_cap gates more, never past the cap."""
    category = draw(st.sampled_from(sorted(CATEGORY_LITERALS)))
    literals = CATEGORY_LITERALS[category]
    arity = len(literals)
    gate_cap = draw(st.integers(1, 16))
    rows = [(draw(st.lists(ROW_VALUES, min_size=arity, max_size=arity)), draw(ROW_VALUES),
             draw(ROW_OR_WEIGHTS)) for _ in range(draw(st.integers(0, gate_cap)))]
    net = LnnNetwork(category, literals, CATEGORY_VERBS[category], draw(st.floats(0.5, 1.0)),
                     gate_cap, rows, draw(ROW_VALUES))
    for _ in range(draw(st.integers(0, gate_cap - len(rows)))):
        net.add_and_gate(draw(st.lists(st.floats(0.0, 1.0), min_size=arity, max_size=arity)))
    return net


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(net=grown_banks())
def test_rows_rebuild_the_buffer_and_a_checkpoint_reads_them_back(tmp_path_factory, net):
    rebuilt = LnnNetwork(net.category, net.literals, net.verb, net.alpha, net.gate_cap,
                         rows=net.rows(), or_bias=net.buffer[0])
    assert all(type(v) is float for v in rebuilt.buffer) and same_bits(rebuilt.buffer, net.buffer)
    path = tmp_path_factory.mktemp("checkpoint") / f"{net.category}.lnn"
    save_network(net, path)
    # the loader builds one network, from the rows it parsed
    with counting_constructions() as calls:
        loaded = load_network(path)
    assert calls == [loaded]
    assert loaded.rows() == net.rows() and same_bits(loaded.buffer, net.buffer)


# ---------------------------------------------------------------------------
# bit-for-bit against the numpy-call forms
# ---------------------------------------------------------------------------


def reference_clamp01(v):
    """The scalar clamp as `np.clip`: kept as reference."""
    return float(np.clip(v, 0.0, 1.0))


def reference_dot(weights, values):
    """sum_i weights[i] * values[i], one product at a time, left to right from 0.0."""
    total = 0.0
    for i in range(len(weights)):
        total = total + float(weights[i]) * float(values[i])
    return total


def reference_forward(rows, or_bias, facts):
    """`LnnNetwork.forward` of a network with `rows` and `or_bias`, written
    over numpy arrays and `np.clip`, with each dot product summed left to
    right: kept as reference."""
    x = np.asarray(facts, dtype=np.float64)
    and_pre = np.array([float(b) - reference_dot(w, 1.0 - x) for w, b, _ in rows])
    and_out = np.clip(and_pre, 0.0, 1.0)
    or_pre = 1.0 - float(or_bias) + reference_dot([or_w for _, _, or_w in rows], and_out)
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
    arity = len(CATEGORY_LITERALS[category])
    n_gates = draw(st.integers(0, 16))
    gates = [(draw(st.lists(WEIGHTS, min_size=arity, max_size=arity)), draw(WEIGHTS))
             for _ in range(n_gates)]
    or_weights = draw(st.lists(WEIGHTS, min_size=n_gates, max_size=n_gates))
    net = LnnNetwork(category, CATEGORY_LITERALS[category], CATEGORY_VERBS[category],
                     rows=[(w, b, 1.0) for w, b in gates], or_bias=draw(WEIGHTS))
    return with_or_weights(net, or_weights)


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
        ref_q, ref_trace = reference_forward(net.rows(), net.buffer[0], facts)
        assert type(q) is float and same_bits(q, ref_q)
        # the reference's clamped OR value is its q, checked above
        fields = (trace.facts, trace.and_pre, trace.and_out, trace.or_pre)
        for name, got, want in zip(("facts", "and_pre", "and_out", "or_pre"),
                                   fields, ref_trace):
            assert same_bits(got, want), (name, got, want)
        assert all(type(v) is float for v in (*trace.facts, *trace.and_pre, *trace.and_out,
                                              trace.or_pre))


def test_each_dot_product_starts_from_plus_zero():
    # as BLAS `ddot` did: a gate whose every product is -0.0 reads
    # `bias - (+0.0)`, so -0.0 for a bias of -0.0
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take",
                     rows=[([-0.0, -0.0], -0.0, -0.0)], or_bias=1.25)
    _, trace = net.forward((0.0, 1.0))
    assert same_bits(trace.and_pre, [-0.0])
    assert same_bits(trace.and_pre, reference_forward(net.rows(), net.buffer[0], (0.0, 1.0))[1][1])


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
    # one money network, stepped on its buffer in the list form; the numpy
    # form steps the same values as one float64 array until the first gate is
    # added (an array keeps its shape), and the reference keeps them as named
    # arrays, as the network once held them
    net = LnnNetwork("money", CATEGORY_LITERALS["money"], "take", gate_cap=gate_cap,
                     rows=[(weights, bias, 1.0)])
    array = np.array(net.buffer)
    ref_params = {name: np.array(p) for name, p in named(net, net.buffer).items()}
    opt, array_opt = AdamOptimizer(learning_rate=learning_rate), AdamOptimizer(learning_rate)
    ref = ReferenceAdam(learning_rate)
    for kind, values in ops:
        if kind == "grow":
            seed = np.array(values[:2]) if values else np.array([1.0, 0.0])
            j = net.add_and_gate(seed)
            if j is not None:
                array = None
                ref_params[f"money.and{j}.w"] = np.where(seed >= net.alpha, 1.0, 0.0)
                ref_params[f"money.and{j}.b"] = np.array(1.0)
                ref_params["money.or.w"] = np.append(ref_params["money.or.w"], 1.0)
            continue
        grad = np.resize(np.array(values), len(net.buffer))
        # an induced gate gets the exact zero gradient `gradients` gives it
        positions = named_positions(net)
        for j in range(1, len(net.rows())):
            grad[positions[f"money.and{j}.w"] + positions[f"money.and{j}.b"]] = 0.0
        ref_grads = {name: np.array(g) for name, g in named(net, grad).items()}
        opt.step({"money": net.buffer}, {"money": grad.tolist()})
        with np.errstate(all="ignore"):   # extreme gradients overflow on purpose
            ref.step(ref_params, ref_grads)
            if array is not None:
                array_opt.step({"money": array}, {"money": grad.copy()})
        m, v, t = opt._state["money"]
        assert type(m) is type(v) is list
        if array is not None:   # equal values, moments and count
            assert same_bits(net.buffer, array)
            assert all(map(same_bits, opt._state["money"], array_opt._state["money"]))
        moments = named(net, m), named(net, v)
        for name, p in named(net, net.buffer).items():
            assert same_bits(p, ref_params[name]), (name, p, ref_params[name])
            ref_m, ref_v, _ = ref.state[name]
            assert same_bits(moments[0][name], ref_m) and same_bits(moments[1][name], ref_v), name
        # the vector's one count is the count of every name there from the start
        for name in ("money.and0.w", "money.and0.b", "money.or.w", "money.or.b"):
            assert type(t) is int and t == ref.state[name][2], name


def category_assignments(category):
    """The category's crisp fact vectors, one per truth assignment."""
    vectors = {id(c.values): c.values for key, c in GROUNDINGS.items() if key[0] == category}
    return list(vectors.values())


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
    optimizer.step({category: net.buffer}, {category: [0.5] * len(net.buffer)})
    net.project()
    for facts in assignments:
        net.induce(net.forward(facts)[1])
    n = len(net.rows())
    assert n == len(assignments) + 1
    or_weights = data.draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]),
                                    min_size=n, max_size=n))
    net = with_or_root(net, or_weights, or_bias)
    # the positions of every induced gate's weights and bias
    positions = named_positions(net)
    induced = [i for j in range(1, n)
               for i in positions[f"{category}.and{j}.w"] + positions[f"{category}.and{j}.b"]]
    before, total = list(net.buffer), [0.0] * len(net.buffer)
    # a huge upstream overflows the sum and the other moments
    for facts in assignments:
        grad = net.gradients(net.forward(facts)[1], upstream)
        assert same_bits([grad[i] for i in induced], [0.0] * len(induced))
        total = [a + b for a, b in zip(total, grad)]
    optimizer.step({category: net.buffer}, {category: total})
    assert same_bits([net.buffer[i] for i in induced], [before[i] for i in induced])
    m, v, t = optimizer._state[category]
    assert t == 2 and not any(m[i] for i in induced) and not any(v[i] for i in induced)
