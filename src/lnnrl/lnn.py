"""Differentiable weighted real-valued logic networks.

A network is two layers over a fixed fact vector: a bank of weighted AND
gates and a single weighted OR root. Node semantics are the clamped weighted
forms

    AND:  clamp01( b - sum_i w_i * (1 - x_i) )
    OR:   clamp01( 1 - b + sum_i w_i * x_i )

with all weights and biases nonnegative, OR weights at most 1 and the OR bias
above 1, a domain `project` restores after each optimizer step. Negation is
materialized in the input layer (each fact arrives with its complement), so
there are no trainable NOT nodes. With unit weights and biases these reduce
exactly to classical conjunction/disjunction on boolean inputs.

Gradients use a pass-through derivative of 1 strictly inside (0, 1) and 0 at
or beyond the clamp, chained through OR -> AND.

A network keeps all its parameters in one float64 buffer, so a gradient is
one vector in the same layout and an optimizer step or a projection is a few
whole-buffer numpy operations. The nodes and the named parameters are views
into that buffer.

Gate induction appends a new AND gate seeded from a fact vector (weight 1
on every literal true at threshold alpha) when no gate fires on it. Conjunctive
rules are read back out by keeping gates and literals whose weights clear a
threshold.
"""

from __future__ import annotations

import contextlib
import copy
import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .numtext import parse_float, parse_int

DEFAULT_ALPHA = 0.75
DEFAULT_GATE_CAP = 16
DEFAULT_RULE_WEIGHT_THRESHOLD = 0.55

#: OR-root bias for freshly built networks. Kept above 1 so a single fully
#: matching AND gate with a unit OR weight activates strictly below the upper
#: clamp and stays trainable / comparable instead of saturating at 1.0.
DEFAULT_OR_BIAS = 1.25

#: the lowest OR bias `LnnNetwork.project` keeps: one ulp above 1. With every
#: input false the OR reads `1 - b`, so a bias above 1 clamps it to 0. A
#: bias that drifted below 1 lets a firing gate pin its score to the upper
#: clamp, where it ties every other full score, and lifts an OR of false
#: inputs off 0. One ulp is the least that bars both; a wider floor would
#: move trained values that stay above it today.
OR_BIAS_FLOOR = math.nextafter(1.0, 2.0)

AND = "and"
OR = "or"


class TruthValue(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TruthConfig:
    """Threshold semantics: values >= alpha are True, <= 1 - alpha are False."""

    alpha: float = DEFAULT_ALPHA

    def __post_init__(self) -> None:
        if not 0.5 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0.5, 1.0], got {self.alpha}")


def classify_truth(value: float, config: TruthConfig) -> TruthValue:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"truth values live in [0, 1], got {value}")
    if value >= config.alpha:
        return TruthValue.TRUE
    if value <= 1.0 - config.alpha:
        return TruthValue.FALSE
    return TruthValue.UNKNOWN


def clamp01(v: float) -> float:
    """`np.clip(v, 0.0, 1.0)` of one float, bit for bit (NaN stays NaN, -0.0
    stays -0.0), without the cost of a numpy call."""
    return min(max(v, 0.0), 1.0)


@dataclass(frozen=True)
class LogicNode:
    """One weighted connective. Bias is a 0-d array so it can be updated in
    place. A network's nodes are views into its parameter buffer, so writing
    into `weights` or `bias` writes the network's parameters."""

    kind: str
    weights: np.ndarray
    bias: np.ndarray

    @classmethod
    def create(cls, kind: str, weights, bias: float) -> "LogicNode":
        if kind not in (AND, OR):
            raise ValueError(f"node kind must be '{AND}' or '{OR}', got {kind!r}")
        w = np.asarray(weights, dtype=np.float64).copy()
        if np.any(w < 0) or bias < 0:
            raise ValueError("weights and bias must be nonnegative")
        return cls(kind=kind, weights=w, bias=np.array(bias, dtype=np.float64))

    def pre_activation(self, x: np.ndarray) -> float:
        if self.kind == AND:
            return float(self.bias - self.weights @ (1.0 - x))
        return float(1.0 - self.bias + self.weights @ x)

    def value(self, x: np.ndarray) -> float:
        return clamp01(self.pre_activation(x))


@dataclass(frozen=True)
class ForwardTrace:
    """What `gradients` and `induce` read of one forward pass: the facts,
    each gate's pre- and post-clamp value and the OR's pre-clamp value (its
    clamped value is the q `forward` returns)."""

    facts: np.ndarray
    and_pre: np.ndarray
    and_out: np.ndarray
    or_pre: float


def _named(category: str, arity: int, n_gates: int, vector: np.ndarray) -> dict[str, np.ndarray]:
    """Views into `vector`, laid out as a buffer of `n_gates` gates of
    `arity` weights, named `<category>.and<j>.w|b` and `<category>.or.w|b`."""
    views: dict[str, np.ndarray] = {}
    step = arity + 2
    for j in range(n_gates):
        k = 1 + j * step
        views[f"{category}.and{j}.w"] = vector[k:k + arity]
        views[f"{category}.and{j}.b"] = vector[k + arity:k + arity + 1].reshape(())
    # the OR weight at the end of each gate's block: a strided view
    views[f"{category}.or.w"] = vector[step::step]
    views[f"{category}.or.b"] = vector[0:1].reshape(())
    return views


class Gradient(Mapping):
    """What `LnnNetwork.gradients` returns: one vector laid out like the
    network's buffer, `vector`, which reads by parameter name as
    `LnnNetwork.parameters` reads the buffer. The views are built only when
    a name is read."""

    __slots__ = ("vector", "_layout")

    def __init__(self, vector: np.ndarray, layout: tuple[str, int, int]):
        self.vector = vector
        self._layout = layout

    def _views(self) -> dict[str, np.ndarray]:
        return _named(*self._layout, self.vector)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views()[name]

    def __iter__(self):
        return iter(self._views())

    def __len__(self) -> int:
        return 2 * self._layout[2] + 2


class LnnNetwork:
    """Fact inputs -> AND bank -> OR root, for one word category.

    Every parameter lives in one float64 vector, `buffer`: the OR bias, then
    one block per gate, its weights, its bias and the OR weight that reads
    it. `and_gates`, `or_root` and `parameters()` are views into it; the OR
    weights are a strided view. Assigning `and_gates` copies the given
    gates' values into a new buffer and keeps the OR weight of each gate
    that remains (0 for a new one); assigning `or_root` copies its values in
    and needs one weight per gate. `add_and_gate` appends a block, so no
    element moves. A deep copy gets its own buffer and views into it.
    """

    def __init__(
        self,
        category: str,
        literals: tuple[str, ...],
        verb: str,
        config: TruthConfig | None = None,
        gate_cap: int = DEFAULT_GATE_CAP,
    ):
        if gate_cap < 1:
            raise ValueError(f"gate_cap must be at least 1, got {gate_cap}")
        self.category = category
        self.literals = tuple(literals)
        self.verb = verb
        self.config = config or TruthConfig()
        self.gate_cap = gate_cap
        self._lay_out([LogicNode.create(AND, np.full(self.input_arity, 0.5), 1.0)],
                      DEFAULT_OR_BIAS, [1.0])

    @property
    def input_arity(self) -> int:
        return len(self.literals)

    # ------------------------------------------------------------------ buffer

    @property
    def and_gates(self) -> tuple[LogicNode, ...]:
        return self._and_gates

    @and_gates.setter
    def and_gates(self, gates) -> None:
        kept = self._or_root.weights[:len(gates)]
        self._lay_out(gates, self._or_root.bias, np.append(kept, np.zeros(len(gates) - kept.size)))

    @property
    def or_root(self) -> LogicNode:
        return self._or_root

    @or_root.setter
    def or_root(self, node: LogicNode) -> None:
        self._lay_out(self._and_gates, node.bias, np.reshape(node.weights, -1))

    def _lay_out(self, gates, or_bias, or_weights) -> None:
        """A new buffer holding the values of `gates` and of an OR root with
        `or_bias` and `or_weights`; more than `gate_cap` gates, or other than
        one OR weight per gate, raise ValueError before any buffer is built."""
        if len(gates) > self.gate_cap:
            raise ValueError(f"{len(gates)} gates exceed gate_cap {self.gate_cap}")
        if len(or_weights) != len(gates):
            raise ValueError(f"an OR root over {len(gates)} gates needs "
                             f"{len(gates)} weights, got {len(or_weights)}")
        arity = self.input_arity
        step = arity + 2
        buffer = np.empty(1 + len(gates) * step)
        buffer[0] = or_bias
        for j, gate in enumerate(gates):
            weights = np.asarray(gate.weights, dtype=np.float64)
            if weights.shape != (arity,):
                raise ValueError(f"gate weights must have shape ({arity},)")
            k = 1 + j * step
            buffer[k:k + arity] = weights
            buffer[k + arity] = gate.bias
        buffer[step::step] = or_weights
        self._point(buffer, len(gates))

    def _point(self, buffer: np.ndarray, n_gates: int) -> None:
        """Make `buffer` the network's, with `n_gates` gates, and point the
        nodes into it."""
        self.buffer = buffer
        # weights then bias for each gate, then the OR root's
        views = list(_named(self.category, self.input_arity, n_gates, buffer).values())
        self._and_gates = tuple(LogicNode(AND, w, b) for w, b in zip(views[:-2:2], views[1:-2:2]))
        self._or_root = LogicNode(OR, *views[-2:])

    def __deepcopy__(self, memo) -> "LnnNetwork":
        copied = copy.copy(self)
        copied._point(self.buffer.copy(), len(self._and_gates))
        memo[id(self)] = copied
        return copied

    def named(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Views into `vector`, laid out like `buffer`, by parameter name:
        `<category>.and<j>.w|b` and `<category>.or.w|b`."""
        return _named(self.category, self.input_arity, len(self._and_gates), vector)

    def parameters(self) -> dict[str, np.ndarray]:
        """Every parameter, as a named view into `buffer`."""
        return self.named(self.buffer)

    # ------------------------------------------------------------------ forward

    def forward(self, facts) -> tuple[float, ForwardTrace]:
        """q and the trace `gradients` differentiates, for one fact vector.

        The vectors are short (at most 8 facts, at most `gate_cap` gates), so
        numpy's per-call cost outweighs the arithmetic: `1 - x` is formed
        once, and biases and clamps work on Python floats, which give the
        same IEEE results as numpy scalars. The dot products stay numpy
        `dot` calls (BLAS `ddot`, the same routine `@` calls on 1-D
        vectors): a Python sum matches them on crisp facts but not on the OR
        layer's real-valued inputs, where `ddot` fuses multiply and add. The
        OR weights are dotted as a contiguous copy: `ddot` sums a strided
        vector in another order.
        """
        x = np.asarray(facts, dtype=np.float64)
        if x.shape != (self.input_arity,):
            raise ValueError(
                f"{self.category} network expects {self.input_arity} facts, got shape {x.shape}"
            )
        y = 1.0 - x
        pre = [float(g.bias) - float(g.weights.dot(y)) for g in self._and_gates]
        and_pre = np.array(pre, dtype=np.float64)
        and_out = np.array([clamp01(v) for v in pre], dtype=np.float64)
        or_weights = np.ascontiguousarray(self._or_root.weights)
        or_pre = 1.0 - float(self._or_root.bias) + float(or_weights.dot(and_out))
        return clamp01(or_pre), ForwardTrace(x, and_pre, and_out, or_pre)

    # ---------------------------------------------------------------- gradients

    def gradients(self, trace: ForwardTrace, upstream: float) -> Gradient:
        """d(upstream * q)/d(param) for every parameter, exact for the clamped
        forms: one fresh vector laid out like `buffer`, zero where a gate gets
        no gradient.

        `trace` is what `forward` returned on the current parameters; no
        second forward pass runs.
        """
        arity, n = self.input_arity, len(self._and_gates)
        step = arity + 2
        grad = np.zeros(1 + n * step)

        g_or = upstream if 0.0 < trace.or_pre < 1.0 else 0.0
        grad[0] = -g_or
        np.multiply(trace.and_out, g_or, out=grad[step::step])

        y = 1.0 - trace.facts
        for j, (or_w, pre) in enumerate(zip(self._or_root.weights.tolist(),
                                            trace.and_pre.tolist())):
            g_out = g_or * or_w
            if g_out != 0.0 and 0.0 < pre < 1.0:
                k = 1 + j * step
                np.multiply(y, -g_out, out=grad[k:k + arity])
                grad[k + arity] = g_out
        return Gradient(grad, (self.category, arity, n))

    # ------------------------------------------------------ structure and domain

    def induce(self, trace: ForwardTrace) -> int | None:
        """Gate induction on a rewarded step's forward pass: `add_and_gate`
        on `trace.facts` unless a gate already fires on them at alpha.
        Returns the new gate's index, or None when nothing was added."""
        if trace.and_out.size and trace.and_out.max() >= self.config.alpha:
            return None
        return self.add_and_gate(trace.facts)

    def add_and_gate(self, facts) -> int | None:
        """Append a gate seeded from `facts`: unit weight on every true literal.

        The OR root gains one unit-weight input. The new block goes at the
        end of the buffer, so every other element keeps its index. Returns
        the new gate's index, or None, adding nothing, when the bank is full.
        """
        n = len(self._and_gates)
        if n >= self.gate_cap:
            return None
        x = np.asarray(facts, dtype=np.float64)
        if x.shape != (self.input_arity,):
            raise ValueError(f"seed facts must have arity {self.input_arity}")
        # the gate's weights, then its bias 1 and its OR weight 1
        weights = np.where(x >= self.config.alpha, 1.0, 0.0)
        self._point(np.concatenate((self.buffer, weights, (1.0, 1.0))), n + 1)
        return n

    def project(self) -> None:
        """Put every parameter back into its domain, in place, as `np.clip`
        would: weights and biases nonnegative, OR weights also at most 1, so
        a lone matching gate cannot pin its score to the upper clamp, and the
        OR bias at least `OR_BIAS_FLOOR`, so an OR of false inputs reads
        false."""
        # `np.maximum` is what `np.clip` runs for a lower bound alone, but it
        # turns an OR weight of -0.0 into +0.0, so the OR weights are clipped
        # from their values before it
        weights = self._or_root.weights
        before = weights.copy()
        np.maximum(self.buffer, 0.0, out=self.buffer)
        before.clip(0.0, 1.0, out=weights)
        if self.buffer[0] < OR_BIAS_FLOOR:     # buffer[0] is the OR bias
            self.buffer[0] = OR_BIAS_FLOOR


# ---------------------------------------------------------------------------
# rule extraction
# ---------------------------------------------------------------------------

_LITERAL_DISPLAY = {
    "find_x": "⟨find x⟩",
    "not_find_x": "¬⟨find x⟩",
    "visited_x": "⟨visited x⟩",
    "not_visited_x": "¬⟨visited x⟩",
    "initial_x": "⟨initial x⟩",
    "not_initial_x": "¬⟨initial x⟩",
    "all_visited": "⟨all are visited⟩",
    "not_all_visited": "¬⟨all are visited⟩",
}


def _display_literal(literal: str) -> str:
    return _LITERAL_DISPLAY.get(literal, f"⟨{literal}⟩")


@dataclass(frozen=True)
class Rule:
    category: str
    verb: str
    literals: tuple[str, ...]
    or_weight: float
    gate_index: int

    def render(self) -> str:
        body = " ∧ ".join(_display_literal(l) for l in self.literals)
        return f"{body} → ⟪{self.verb} x⟫"


def extract_rules(
    net: LnnNetwork, weight_threshold: float = DEFAULT_RULE_WEIGHT_THRESHOLD
) -> list[Rule]:
    """Read conjunctive rules off the high-weight connections.

    A gate contributes a rule when its OR-root weight clears the threshold
    and at least one of its literal weights does; rules come back ordered by
    OR weight descending. A non-finite threshold raises ValueError.
    """
    if not np.isfinite(weight_threshold):
        raise ValueError(f"rule weight threshold must be finite, got {weight_threshold}")
    rules: list[Rule] = []
    for j, gate in enumerate(net.and_gates):
        or_w = float(net.or_root.weights[j])
        if or_w < weight_threshold:
            continue
        literals = tuple(
            name for name, w in zip(net.literals, gate.weights) if w >= weight_threshold
        )
        if not literals:
            continue
        rules.append(Rule(net.category, net.verb, literals, or_w, j))
    rules.sort(key=lambda r: (-r.or_weight, r.gate_index))
    return rules


def render_ruleset(nets: dict[str, LnnNetwork], weight_threshold: float = DEFAULT_RULE_WEIGHT_THRESHOLD) -> str:
    """Human-readable dump of every category's rules, stable ordering."""
    blocks: list[str] = []
    for category in sorted(nets):
        net = nets[category]
        lines = [f"∃x ∈ W_{category}"]
        rules = extract_rules(net, weight_threshold)
        if not rules:
            lines.append("  (no rule above threshold)")
        for rule in rules:
            lines.append(f"  {rule.render()}    [or-weight {rule.or_weight:.3f}]")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CHECKPOINT_HEADER = "lnn-checkpoint v1"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _check_domain(what: str, values, or_weights) -> None:
    """The domain `LnnNetwork.project` keeps and a checkpoint holds: `values`
    finite and nonnegative, `or_weights` among them at most 1; else ValueError."""
    if not all(np.isfinite(v) and v >= 0 for v in values):
        raise ValueError(f"{what} holds a negative or non-finite value")
    if any(w > 1.0 for w in or_weights):
        raise ValueError(f"{what} holds a weight above 1")


def save_network(net: LnnNetwork, path) -> None:
    """Write `net`; a value `load_network` would refuse raises ValueError first."""
    _check_domain(f"{net.category} network", net.buffer, net.or_root.weights)
    lines = [
        _CHECKPOINT_HEADER,
        f"category {net.category}",
        f"verb {net.verb}",
        f"alpha {_fmt(net.config.alpha)}",
        f"gate_cap {net.gate_cap}",
        f"arity {net.input_arity}",
        "literals " + " ".join(net.literals),
        f"gates {len(net.and_gates)}",
    ]
    for j, gate in enumerate(net.and_gates):
        lines.append(f"and {j} bias {_fmt(gate.bias)} weights " + " ".join(_fmt(w) for w in gate.weights))
    lines.append(f"or bias {_fmt(net.or_root.bias)} weights " + " ".join(_fmt(w) for w in net.or_root.weights))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_HEADER_KEYS = ("category", "verb", "alpha", "gate_cap", "arity", "literals", "gates")


class CheckpointError(ValueError):
    """A checkpoint file that is truncated, malformed or out of domain."""


@contextlib.contextmanager
def reading_checkpoint(path):
    """Re-raise any other ValueError met while parsing `path` (a number that
    does not parse, an alpha out of range, more gates than the gate cap,
    bytes that are not UTF-8) as a CheckpointError naming the file."""
    try:
        yield
    except CheckpointError:
        raise
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def _row(path, line: str, head: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """(weights, bias) of a `<head> bias B weights w1 .. w<width>` row."""
    tokens = line.split()
    n = len(head)
    if tokens[:n] != head or tokens[n:n + 1] != ["bias"] or tokens[n + 2:n + 3] != ["weights"]:
        raise CheckpointError(f"{path}: expected a {' '.join(head)!r} row, got {line!r}")
    bias = parse_float(tokens[n + 1])
    weights = np.array([parse_float(t) for t in tokens[n + 3:]], dtype=np.float64)
    if weights.size != width:
        raise CheckpointError(f"{path}: {' '.join(head)} row has {weights.size} weights, expected {width}")
    # `reading_checkpoint` names the file
    _check_domain(f"{' '.join(head)} row", (bias, *weights), weights if head == ["or"] else ())
    return weights, np.array(bias, dtype=np.float64)


def load_network(path) -> LnnNetwork:
    """Read a checkpoint written by `save_network`, laying its rows out once;
    a truncated, malformed or out-of-domain file (short row, non-finite or
    negative value, an OR weight above 1, a gate_cap below 1, more gates than
    the gate_cap `LnnNetwork` keeps) raises CheckpointError."""
    with reading_checkpoint(path):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != _CHECKPOINT_HEADER:
            raise CheckpointError(f"{path}: not a network checkpoint")

        header = [line.partition(" ") for line in lines[1:1 + len(_HEADER_KEYS)]]
        if tuple(key for key, _, _ in header) != _HEADER_KEYS:
            raise CheckpointError(f"{path}: header rows must be {', '.join(_HEADER_KEYS)}")
        fields = {key: value for key, _, value in header}

        net = LnnNetwork(
            category=fields["category"],
            literals=tuple(fields["literals"].split()),
            verb=fields["verb"],
            config=TruthConfig(alpha=parse_float(fields["alpha"])),
            gate_cap=parse_int(fields["gate_cap"]),
        )
        if net.input_arity != parse_int(fields["arity"]):
            raise CheckpointError(f"{path}: arity does not match literal list")

        n_gates = parse_int(fields["gates"])
        body = lines[1 + len(_HEADER_KEYS):]
        if n_gates < 0 or len(body) != n_gates + 1:
            raise CheckpointError(
                f"{path}: expected {n_gates} gate rows and an or row, found {len(body)} rows")
        gates = [LogicNode(AND, *_row(path, line, ["and", str(j)], net.input_arity))
                 for j, line in enumerate(body[:n_gates])]
        weights, bias = _row(path, body[n_gates], ["or"], n_gates)
        net._lay_out(gates, bias, weights)
    return net
