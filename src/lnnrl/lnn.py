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

Gate induction splices in a new AND gate seeded from a fact vector (weight 1
on every literal true at threshold alpha) when no gate fires on it. Conjunctive
rules are read back out by keeping gates and literals whose weights clear a
threshold.
"""

from __future__ import annotations

import contextlib
import enum
from dataclasses import dataclass

import numpy as np

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


@dataclass
class LogicNode:
    """One weighted connective. Bias is a 0-d array so optimizers can update in place."""

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


class LnnNetwork:
    """Fact inputs -> AND bank -> OR root, for one word category."""

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
        self.and_gates: list[LogicNode] = [
            LogicNode.create(AND, np.full(self.input_arity, 0.5), 1.0)
        ]
        self.or_root = LogicNode.create(OR, np.array([1.0]), or_bias)

    @property
    def input_arity(self) -> int:
        return len(self.literals)

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
        pre = [float(g.bias) - float(g.weights.dot(y)) for g in self.and_gates]
        and_pre = np.array(pre, dtype=np.float64)
        and_out = np.array([clamp01(v) for v in pre], dtype=np.float64)
        or_pre = 1.0 - float(self.or_root.bias) + float(self.or_root.weights.dot(and_out))
        or_out = clamp01(or_pre)
        return or_out, ForwardTrace(x, and_pre, and_out, or_pre, or_out)

    # ---------------------------------------------------------------- gradients

    def parameters(self) -> dict[str, np.ndarray]:
        """Every parameter, named `<category>.and<j>.w|b` and `<category>.or.w|b`
        so one optimizer can cover several networks."""
        params: dict[str, np.ndarray] = {}
        for j, gate in enumerate(self.and_gates):
            params[f"{self.category}.and{j}.w"] = gate.weights
            params[f"{self.category}.and{j}.b"] = gate.bias
        params[f"{self.category}.or.w"] = self.or_root.weights
        params[f"{self.category}.or.b"] = self.or_root.bias
        return params

    def gradients(self, trace: ForwardTrace, upstream: float) -> dict[str, np.ndarray]:
        """d(upstream * q)/d(param) for every parameter, exact for the clamped
        forms, named as in `parameters`.

        `trace` is what `forward` returned on the current parameters; no
        second forward pass runs.
        """
        x = trace.facts
        prefix = self.category
        grads: dict[str, np.ndarray] = {}

        or_open = 0.0 < trace.or_pre < 1.0
        g_or = upstream if or_open else 0.0
        grads[f"{prefix}.or.w"] = g_or * trace.and_out
        grads[f"{prefix}.or.b"] = np.array(-g_or, dtype=np.float64)

        for j, gate in enumerate(self.and_gates):
            g_out = g_or * float(self.or_root.weights[j])
            if g_out != 0.0 and 0.0 < trace.and_pre[j] < 1.0:
                grads[f"{prefix}.and{j}.w"] = -g_out * (1.0 - x)
                grads[f"{prefix}.and{j}.b"] = np.array(g_out, dtype=np.float64)
            else:
                grads[f"{prefix}.and{j}.w"] = np.zeros_like(gate.weights)
                grads[f"{prefix}.and{j}.b"] = np.array(0.0, dtype=np.float64)
        return grads

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
        if len(self.and_gates) >= self.gate_cap:
            return None
        x = np.asarray(facts, dtype=np.float64)
        if x.shape != (self.input_arity,):
            raise ValueError(f"seed facts must have arity {self.input_arity}")
        weights = np.where(x >= self.config.alpha, 1.0, 0.0)
        self.and_gates.append(LogicNode.create(AND, weights, 1.0))
        self.or_root.weights = np.append(self.or_root.weights, 1.0)
        return len(self.and_gates) - 1

    def project(self) -> None:
        """Put every parameter back into its domain, in place."""
        # weights and biases stay nonnegative; OR weights additionally stay <= 1
        # so a lone matching gate cannot pin its score to the upper clamp.
        # `np.maximum` is what `np.clip` runs for a lower bound alone, and the
        # `clip` method skips `np.clip`'s dispatch: both give its exact results.
        for gate in self.and_gates:
            np.maximum(gate.weights, 0.0, out=gate.weights)
            gate.bias[...] = max(float(gate.bias), 0.0)
        self.or_root.weights.clip(0.0, 1.0, out=self.or_root.weights)
        self.or_root.bias[...] = max(float(self.or_root.bias), 0.0)


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
    bias = float(tokens[n + 1])
    weights = np.array([float(t) for t in tokens[n + 3:]], dtype=np.float64)
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
            config=TruthConfig(alpha=float(fields["alpha"])),
            gate_cap=int(fields["gate_cap"]),
        )
        if net.input_arity != int(fields["arity"]):
            raise CheckpointError(f"{path}: arity does not match literal list")

        n_gates = int(fields["gates"])
        if n_gates > net.gate_cap:
            raise CheckpointError(f"{path}: {n_gates} gates exceed gate_cap {net.gate_cap}")
        body = lines[1 + len(_HEADER_KEYS):]
        if n_gates < 0 or len(body) != n_gates + 1:
            raise CheckpointError(
                f"{path}: expected {n_gates} gate rows and an or row, found {len(body)} rows")
        net.and_gates = []
        for j, line in enumerate(body[:n_gates]):
            bias, weights = _row(path, line, ["and", str(j)], net.input_arity)
            net.and_gates.append(LogicNode(AND, weights, bias))
        bias, weights = _row(path, body[n_gates], ["or"], n_gates)
        net.or_root = LogicNode(OR, weights, bias)
    return net
