"""Logic-node semantics, gradients vs finite differences, induction, rules, checkpoints."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnnrl.factextract import CATEGORY_LITERALS, CATEGORY_VERBS
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


# each damages the alpha row (line 3), the first gate row (line 8) or the OR
# row (the last), or cuts the file short
CHECKPOINT_DAMAGE = {
    "truncated": lambda lines: lines[:9],
    "short_gate_row": lambda lines: lines[:8] + [lines[8].rsplit(" ", 1)[0]] + lines[9:],
    "nan_bias": lambda lines: lines[:8] + [lines[8].replace("bias 1 ", "bias nan ")] + lines[9:],
    "negative_weight": lambda lines: lines[:8] + [lines[8].rsplit(" ", 1)[0] + " -0.25"] + lines[9:],
    "unparsable_bias": lambda lines: lines[:8] + [lines[8].replace("bias 1 ", "bias one ")] + lines[9:],
    "alpha_out_of_range": lambda lines: lines[:3] + ["alpha 0.25"] + lines[4:],
    "or_weight_above_one": lambda lines: lines[:-1] + [lines[-1].rsplit(" ", 1)[0] + " 2.5"],
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
    opt = AdamOptimizer(learning_rate=0.01)
    params = {"or.w": np.array([1.0, 1.0])}
    opt.step(params, {"or.w": np.array([0.1, 0.2])})
    params["or.w"] = np.append(params["or.w"], 1.0)
    opt.step(params, {"or.w": np.array([0.1, 0.2, 0.3])})
    assert params["or.w"].shape == (3,)



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
    or_pre = float(1.0 - net.or_root.bias + net.or_root.weights @ and_out)
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
        fields = (trace.facts, trace.and_pre, trace.and_out, trace.or_pre, trace.or_out)
        for name, got, want in zip(("facts", "and_pre", "and_out", "or_pre", "or_out"),
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
    """Up to 12 operations, each an optimizer step or a grown OR root."""
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 3)) == 0:
            ops.append(("grow", None))
        else:
            ops.append(("step", draw(st.lists(EXTREME_GRADS, min_size=16, max_size=16))))
    return ops


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ops=adam_runs(), learning_rate=st.sampled_from([0.0, 1e-3, 0.5, 10.0]),
       bias=EDGE_FLOATS, weights=st.lists(WEIGHTS, min_size=3, max_size=3))
def test_adam_equals_the_numpy_array_form_bit_for_bit(ops, learning_rate, bias, weights):
    def fresh():
        return {"and0.b": np.array(bias), "or.b": np.array(1.25),
                "and0.w": np.array(weights), "or.w": np.array([1.0])}

    params, ref_params = fresh(), fresh()
    opt, ref = AdamOptimizer(learning_rate=learning_rate), ReferenceAdam(learning_rate)
    for kind, values in ops:
        if kind == "grow":
            params["or.w"] = np.append(params["or.w"], 1.0)
            ref_params["or.w"] = np.append(ref_params["or.w"], 1.0)
            continue
        grads = {name: np.array(values[: p.size]).reshape(p.shape) for name, p in params.items()}
        with np.errstate(all="ignore"):   # extreme gradients overflow on purpose
            opt.step(params, grads)
            ref.step(ref_params, grads)
        for name in params:
            assert params[name].shape == ref_params[name].shape
            assert same_bits(params[name], ref_params[name]), (name, params[name], ref_params[name])
            m, v, t = opt._state[name]
            ref_m, ref_v, ref_t = ref.state[name]
            assert t == ref_t and same_bits(m, ref_m) and same_bits(v, ref_v), name
