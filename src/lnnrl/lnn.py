"""Differentiable weighted real-valued logic networks.

A network is two layers over a fixed fact vector: a bank of weighted AND
gates and a single weighted OR root. Node semantics are the clamped weighted
forms

    AND:  clamp01( b - sum_i w_i * (1 - x_i) )
    OR:   clamp01( 1 - b + sum_i w_i * x_i )

with all weights and biases nonnegative and OR weights at most 1, a domain
`project` restores after each optimizer step. Negation is materialized in
the input layer (each fact arrives with its complement), so there are no
trainable NOT nodes. With unit weights and biases these reduce exactly to
classical conjunction/disjunction on boolean inputs.

Gradients use a pass-through derivative of 1 strictly inside (0, 1) and 0 at
or beyond the clamp, chained through OR -> AND.

A network keeps all its parameters in one float64 buffer, so a gradient is
one vector in the same layout and an optimizer step or a projection is a few
whole-buffer numpy operations. The nodes and the named parameters are views
into that buffer.

Gate induction splices in a new AND gate seeded from a fact vector (weight 1
on every literal true at threshold alpha) when no gate fires on it. Conjunctive
rules are read back out by keeping gates and literals whose weights clear a
threshold.
"""

from __future__ import annotations

import contextlib
import copy
import enum
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
    """Pre- and post-clamp activations from one forward pass."""

    facts: np.ndarray
    and_pre: np.ndarray
    and_out: np.ndarray
    or_pre: float
    or_out: float


def _named(category: str, arity: int, n_gates: int, vector: np.ndarray) -> dict[str, np.ndarray]:
    """Views into `vector`, laid out as a buffer of `n_gates` gates of
    `arity` weights, named `<category>.and<j>.w|b` and `<category>.or.w|b`."""
    views: dict[str, np.ndarray] = {}
    step = arity + 1
    for j in range(n_gates):
        k = j * step
        views[f"{category}.and{j}.w"] = vector[k:k + arity]
        views[f"{category}.and{j}.b"] = vector[k + arity:k + step].reshape(())
    o = n_gates * step
    views[f"{category}.or.w"] = vector[o + 1:]
    views[f"{category}.or.b"] = vector[o:o + 1].reshape(())
    return views


def _relayout(old: np.ndarray, arity: int, n_old: int, n: int) -> np.ndarray:
    """`old`, laid out for `n_old` gates, laid out for `n >= n_old`: each old
    element keeps its value, and each new gate's elements and each new OR
    weight are 0."""
    step = arity + 1
    o_old, o = n_old * step, n * step
    if old.size != o_old + 1 + n_old or n < n_old:
        raise ValueError(f"cannot lay out {old.size} elements of {n_old} gates for {n} gates")
    new = np.zeros(o + 1 + n, dtype=old.dtype)
    new[:o_old] = old[:o_old]
    new[o:o + 1 + n_old] = old[o_old:]
    return new


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

    Every parameter lives in one float64 vector, `buffer`: gate j's weights
    then its bias, for each gate in turn, then the OR bias, then the OR
    weights (one per gate, contiguous). `and_gates`, `or_root` and
    `parameters()` are views into it. Assigning `and_gates` or `or_root`
    copies the given nodes' values into a new buffer; `add_and_gate` grows it
    with `relayout`. A deep copy gets its own buffer and views into it.
    """

    def __init__(
        self,
        category: str,
        literals: tuple[str, ...],
        verb: str,
        config: TruthConfig | None = None,
        gate_cap: int = DEFAULT_GATE_CAP,
        or_bias: float = DEFAULT_OR_BIAS,
    ):
        self.category = category
        self.literals = tuple(literals)
        self.verb = verb
        self.config = config or TruthConfig()
        self.gate_cap = gate_cap
        self._lay_out([LogicNode.create(AND, np.full(self.input_arity, 0.5), 1.0)],
                      LogicNode.create(OR, np.array([1.0]), or_bias))

    @property
    def input_arity(self) -> int:
        return len(self.literals)

    # ------------------------------------------------------------------ buffer

    @property
    def and_gates(self) -> tuple[LogicNode, ...]:
        return self._and_gates

    @and_gates.setter
    def and_gates(self, gates) -> None:
        self._lay_out(gates, self._or_root)

    @property
    def or_root(self) -> LogicNode:
        return self._or_root

    @or_root.setter
    def or_root(self, node: LogicNode) -> None:
        self._lay_out(self._and_gates, node)

    def _lay_out(self, gates, or_root: LogicNode) -> None:
        """A new buffer holding the values of `gates` and `or_root`."""
        parts = []
        for gate in gates:
            weights = np.asarray(gate.weights, dtype=np.float64)
            if weights.shape != (self.input_arity,):
                raise ValueError(f"gate weights must have shape ({self.input_arity},)")
            parts += [weights, np.reshape(gate.bias, 1)]
        parts += [np.reshape(or_root.bias, 1), np.reshape(or_root.weights, -1)]
        self._point(np.concatenate(parts, dtype=np.float64), len(gates))

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

    def relayout(self, old: np.ndarray) -> np.ndarray:
        """`old`, a vector laid out like `buffer` before the newest gates were
        added, laid out like `buffer` now. Each old element keeps its value;
        a new gate's elements and a new OR weight are 0."""
        arity = self.input_arity
        return _relayout(old, arity, (old.size - 1) // (arity + 2), len(self._and_gates))

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
        layer's real-valued inputs, where `ddot` fuses multiply and add.
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
        or_pre = 1.0 - float(self._or_root.bias) + float(self._or_root.weights.dot(and_out))
        or_out = clamp01(or_pre)
        return or_out, ForwardTrace(x, and_pre, and_out, or_pre, or_out)

    # ---------------------------------------------------------------- gradients

    def gradients(self, trace: ForwardTrace, upstream: float) -> Gradient:
        """d(upstream * q)/d(param) for every parameter, exact for the clamped
        forms: one fresh vector laid out like `buffer`, zero where a gate gets
        no gradient.

        `trace` is what `forward` returned on the current parameters; no
        second forward pass runs.
        """
        arity, n = self.input_arity, len(self._and_gates)
        step = arity + 1
        o = n * step
        grad = np.zeros(o + 1 + n)

        g_or = upstream if 0.0 < trace.or_pre < 1.0 else 0.0
        grad[o] = -g_or
        np.multiply(trace.and_out, g_or, out=grad[o + 1:])

        y = 1.0 - trace.facts
        for j, (or_w, pre) in enumerate(zip(self._or_root.weights.tolist(),
                                            trace.and_pre.tolist())):
            g_out = g_or * or_w
            if g_out != 0.0 and 0.0 < pre < 1.0:
                k = j * step
                np.multiply(y, -g_out, out=grad[k:k + arity])
                grad[k + arity] = g_out
        return Gradient(grad, (self.category, arity, n))

    # ------------------------------------------------------ structure and domain

    def induce(self, trace: ForwardTrace) -> int | None:
        """Gate induction on a rewarded step's forward pass: `add_and_gate`
        on `trace.facts` unless a gate already fires on them at alpha.
        Returns the new gate's index, or None when nothing was added."""
        if trace.and_out.size and np.max(trace.and_out) >= self.config.alpha:
            return None
        return self.add_and_gate(trace.facts)

    def add_and_gate(self, facts) -> int | None:
        """Splice in a gate seeded from `facts`: unit weight on every true literal.

        The OR root gains one unit-weight input. Returns the new gate's
        index, or None, adding nothing, when the bank is full.
        """
        n = len(self._and_gates)
        if n >= self.gate_cap:
            return None
        x = np.asarray(facts, dtype=np.float64)
        if x.shape != (self.input_arity,):
            raise ValueError(f"seed facts must have arity {self.input_arity}")
        arity = self.input_arity
        buffer = _relayout(self.buffer, arity, n, n + 1)
        k = n * (arity + 1)
        buffer[k:k + arity] = np.where(x >= self.config.alpha, 1.0, 0.0)
        buffer[k + arity] = 1.0
        buffer[-1] = 1.0
        self._point(buffer, n + 1)
        return n

    def project(self) -> None:
        """Put every parameter back into its domain, in place, as `np.clip`
        would: weights and biases nonnegative, OR weights also at most 1, so
        a lone matching gate cannot pin its score to the upper clamp."""
        # every gate weight and bias and the OR bias precede the OR weights;
        # `np.maximum` is what `np.clip` runs for a lower bound alone
        head = self.buffer[:len(self._and_gates) * (self.input_arity + 1) + 1]
        np.maximum(head, 0.0, out=head)
        weights = self._or_root.weights
        weights.clip(0.0, 1.0, out=weights)


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


def save_network(net: LnnNetwork, path) -> None:
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
    does not parse, an alpha out of range, bytes that are not UTF-8) as a
    CheckpointError naming the file."""
    try:
        yield
    except CheckpointError:
        raise
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def _row(path, line: str, head: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """(bias, weights) of a `<head> bias B weights w1 .. w<width>` row."""
    tokens = line.split()
    n = len(head)
    if tokens[:n] != head or tokens[n:n + 1] != ["bias"] or tokens[n + 2:n + 3] != ["weights"]:
        raise CheckpointError(f"{path}: expected a {' '.join(head)!r} row, got {line!r}")
    bias = parse_float(tokens[n + 1])
    weights = np.array([parse_float(t) for t in tokens[n + 3:]], dtype=np.float64)
    if weights.size != width:
        raise CheckpointError(f"{path}: {' '.join(head)} row has {weights.size} weights, expected {width}")
    if not all(np.isfinite(v) and v >= 0 for v in (bias, *weights)):
        raise CheckpointError(f"{path}: {' '.join(head)} row holds a negative or non-finite value")
    # the domain `LnnNetwork.project` keeps: an OR weight above 1 scores off it
    if head == ["or"] and any(w > 1.0 for w in weights):
        raise CheckpointError(f"{path}: or row holds a weight above 1")
    return np.array(bias, dtype=np.float64), weights


def load_network(path) -> LnnNetwork:
    """Read a checkpoint written by `save_network`; a truncated, malformed or
    out-of-domain file (short row, non-finite or negative value, an OR weight
    above 1, more gates than its gate_cap) raises CheckpointError."""
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
        if n_gates > net.gate_cap:
            raise CheckpointError(f"{path}: {n_gates} gates exceed gate_cap {net.gate_cap}")
        body = lines[1 + len(_HEADER_KEYS):]
        if n_gates < 0 or len(body) != n_gates + 1:
            raise CheckpointError(
                f"{path}: expected {n_gates} gate rows and an or row, found {len(body)} rows")
        gates = []
        for j, line in enumerate(body[:n_gates]):
            bias, weights = _row(path, line, ["and", str(j)], net.input_arity)
            gates.append(LogicNode(AND, weights, bias))
        bias, weights = _row(path, body[n_gates], ["or"], n_gates)
        net.and_gates = gates
        net.or_root = LogicNode(OR, weights, bias)
    return net
