"""Logic-node semantics, gradients vs finite differences, induction, rules, checkpoints."""

import itertools
import random

import numpy as np
import pytest

from lnnrl.factextract import CATEGORY_LITERALS
from lnnrl.lnn import (
    AND,
    OR,
    GateCapReached,
    LnnNetwork,
    LogicNode,
    TruthConfig,
    TruthValue,
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
        grads = net.gradients(x, upstream)
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
    grads = net.gradients(x, 1.0)
    assert np.all(grads["and0.w"] == 0.0) and float(grads["and0.b"]) == 0.0


def test_zero_upstream_zeroes_all_gradients():
    rng = np.random.default_rng(3)
    net, x = random_open_region_case(rng)
    grads = net.gradients(x, 0.0)
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
    with pytest.raises(GateCapReached):
        net.add_and_gate(np.array([0.0, 1.0]))
    assert len(net.and_gates) == 2


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


def test_checkpoint_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    net = make_net(rng.uniform(0, 1.7, size=(3, 8)), rng.uniform(0, 1, size=3),
                   or_bias=1.0 + 1e-16 + rng.uniform(0, 0.4))
    net.and_gates[0].weights[0] = 1.0 / 3.0  # needs all 17 digits
    path = tmp_path / "direction.lnn"
    save_network(net, path)
    loaded = load_network(path)
    assert loaded.category == net.category
    assert loaded.verb == net.verb
    assert loaded.literals == net.literals
    assert loaded.config.alpha == net.config.alpha
    assert loaded.gate_cap == net.gate_cap
    for a, b in zip(loaded.and_gates, net.and_gates):
        assert a.weights.tolist() == b.weights.tolist()
        assert float(a.bias) == float(b.bias)
    assert loaded.or_root.weights.tolist() == net.or_root.weights.tolist()
    assert float(loaded.or_root.bias) == float(net.or_root.bias)


# each damages the first gate row (line 8) or cuts the file short
CHECKPOINT_DAMAGE = {
    "truncated": lambda lines: lines[:9],
    "short_gate_row": lambda lines: lines[:8] + [lines[8].rsplit(" ", 1)[0]] + lines[9:],
    "nan_bias": lambda lines: lines[:8] + [lines[8].replace("bias 1 ", "bias nan ")] + lines[9:],
    "negative_weight": lambda lines: lines[:8] + [lines[8].rsplit(" ", 1)[0] + " -0.25"] + lines[9:],
}


@pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
def test_checkpoint_rejects_damaged_files(tmp_path, damage):
    path = tmp_path / "direction.lnn"
    save_network(make_net(np.full((3, 8), 0.5), np.ones(3)), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    damaged = CHECKPOINT_DAMAGE[damage](lines)
    assert damaged != lines
    path.write_text("\n".join(damaged) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_network(path)


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.lnn"
    path.write_text("something else\n", encoding="utf-8")
    with pytest.raises(ValueError):
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
    opt = AdamOptimizer(learning_rate=0.01)
    params = {"or.w": np.array([1.0, 1.0])}
    opt.step(params, {"or.w": np.array([0.1, 0.2])})
    params["or.w"] = np.append(params["or.w"], 1.0)
    opt.step(params, {"or.w": np.array([0.1, 0.2, 0.3])})
    assert params["or.w"].shape == (3,)

