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

A network keeps all its parameters in one list of Python floats, its only
form (rows go in through the constructor and out through `rows()`), so a
gradient is one list in the same layout, and the forward pass, the gradient,
the projection and an optimizer step are per-element arithmetic on floats.
The vectors are short (at most 8 facts, at most `gate_cap` gates), so no
array library is needed: each dot product is summed left to right from 0.0,
and every clamp and projection agrees with `np.clip` bit for bit.

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

from .numtext import parse_float, parse_int
from .records import Frozen, parameters, set_fields

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


class TruthValue(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


def check_alpha(alpha: float) -> None:
    """The truth threshold's range: values >= alpha read True and values
    <= 1 - alpha read False, so alpha must lie in [0.5, 1]; else ValueError."""
    if not 0.5 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0.5, 1.0], got {alpha}")


def classify_truth(value: float, alpha: float) -> TruthValue:
    check_alpha(alpha)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"truth values live in [0, 1], got {value}")
    if value >= alpha:
        return TruthValue.TRUE
    if value <= 1.0 - alpha:
        return TruthValue.FALSE
    return TruthValue.UNKNOWN


def clamp01(v: float) -> float:
    """`np.clip(v, 0.0, 1.0)` of one float, bit for bit (NaN stays NaN, -0.0
    stays -0.0)."""
    return min(max(v, 0.0), 1.0)


def _dot(weights, values) -> float:
    """sum_i weights[i] * values[i], added left to right from 0.0. Not the
    builtin `sum`, which adds floats with compensation from Python 3.12."""
    total = 0.0
    for w, v in zip(weights, values):
        total += w * v
    return total


def _check_domain(what: str, values, or_weights) -> None:
    """The domain `LnnNetwork.project` keeps and a checkpoint holds: `values`
    finite and nonnegative, `or_weights` among them at most 1; else ValueError."""
    if not all(math.isfinite(v) and v >= 0 for v in values):
        raise ValueError(f"{what}: weights and biases must be finite and nonnegative")
    if any(w > 1.0 for w in or_weights):
        raise ValueError(f"{what} holds a weight above 1")


class ForwardTrace(Frozen):
    """What `gradients` and `induce` read of one forward pass: the facts,
    each gate's pre- and post-clamp value and the OR's pre-clamp value (its
    clamped value is the q `forward` returns)."""

    __slots__ = ("facts", "and_pre", "and_out", "or_pre")

    def __init__(self, facts: tuple[float, ...], and_pre: tuple[float, ...],
                 and_out: tuple[float, ...], or_pre: float) -> None:
        object.__setattr__(self, "facts", facts)
        object.__setattr__(self, "and_pre", and_pre)
        object.__setattr__(self, "and_out", and_out)
        object.__setattr__(self, "or_pre", or_pre)


class LnnNetwork:
    """Fact inputs -> AND bank -> OR root, for one word category.

    The fields are a checkpoint header's: the category, its literals, the
    verb, the truth threshold `alpha` and the most gates the bank may hold.
    Every parameter lives in one list of floats, `buffer`: the OR bias, then
    one block per gate, its weights, its bias and the OR weight that reads
    it. It is laid out once, from `rows`, one `(weights, bias, or_weight)`
    per gate (default: one seed gate, weights 0.5, bias 1, OR weight 1), and
    `or_bias`; `rows()` reads them back. The constructor refuses what a
    checkpoint refuses: a value that is negative or not finite, or an OR
    weight above 1 (ValueError). `add_and_gate` extends the buffer
    at its end, so no element moves. A deep copy gets its own buffer.
    """

    def __init__(
        self,
        category: str,
        literals: tuple[str, ...],
        verb: str,
        alpha: float = DEFAULT_ALPHA,
        gate_cap: int = DEFAULT_GATE_CAP,
        rows=None,
        or_bias: float = DEFAULT_OR_BIAS,
    ):
        check_alpha(alpha)
        if gate_cap < 1:
            raise ValueError(f"gate_cap must be at least 1, got {gate_cap}")
        self.category = category
        self.literals = tuple(literals)
        self.verb = verb
        self.alpha = alpha
        self.gate_cap = gate_cap
        arity = self.input_arity
        if rows is None:
            rows = [([0.5] * arity, 1.0, 1.0)]
        if len(rows) > gate_cap:
            raise ValueError(f"{len(rows)} gates exceed gate_cap {gate_cap}")
        buffer = [float(or_bias)]
        for weights, bias, or_weight in rows:
            if len(weights) != arity:
                raise ValueError(f"gate weights must number {arity}, got {len(weights)}")
            buffer += map(float, weights)
            buffer += (float(bias), float(or_weight))
        # every OR weight: the last element of each gate's block
        _check_domain(f"{category} network", buffer, buffer[arity + 2::arity + 2])
        self.buffer = buffer

    @property
    def input_arity(self) -> int:
        return len(self.literals)

    # ------------------------------------------------------------------ buffer

    def _blocks(self) -> range:
        """The index of each gate's first weight in `buffer`, in gate order."""
        return range(1, len(self.buffer), self.input_arity + 2)

    def rows(self) -> list[tuple[tuple[float, ...], float, float]]:
        """`(weights, bias, or_weight)` of each gate, in gate order, as the
        constructor takes them; the OR bias is `buffer[0]`."""
        b, arity = self.buffer, self.input_arity
        return [(tuple(b[k:k + arity]), b[k + arity], b[k + arity + 1]) for k in self._blocks()]

    def __deepcopy__(self, memo) -> "LnnNetwork":
        copied = copy.copy(self)
        copied.buffer = self.buffer.copy()
        memo[id(self)] = copied
        return copied

    # ------------------------------------------------------------------ forward

    def forward(self, facts) -> tuple[float, ForwardTrace]:
        """q and the trace `gradients` differentiates, for one fact vector.

        A tuple of floats is kept in the trace as it is; any other sequence
        is read into one. Each gate's dot product, and the OR's over the
        gates' clamped values, is summed left to right from 0.0.
        """
        x = facts if type(facts) is tuple else tuple(map(float, facts))
        arity = self.input_arity
        if len(x) != arity:
            raise ValueError(f"{self.category} network expects {arity} facts, got {len(x)}")
        y = [1.0 - v for v in x]
        b = self.buffer
        and_pre, and_out = [], []
        or_dot = 0.0
        for k in self._blocks():
            pre = b[k + arity] - _dot(b[k:k + arity], y)
            out = clamp01(pre)
            and_pre.append(pre)
            and_out.append(out)
            or_dot += b[k + arity + 1] * out
        or_pre = 1.0 - b[0] + or_dot
        return clamp01(or_pre), ForwardTrace(x, tuple(and_pre), tuple(and_out), or_pre)

    # ---------------------------------------------------------------- gradients

    def gradients(self, trace: ForwardTrace, upstream: float) -> list[float]:
        """d(upstream * q)/d(param) for every parameter, exact for the clamped
        forms: one fresh list laid out like `buffer`, +0.0 where a gate gets
        no gradient.

        `trace` is what `forward` returned on the current parameters; no
        second forward pass runs.
        """
        arity = self.input_arity
        b = self.buffer
        grad = [0.0] * len(b)

        g_or = upstream if 0.0 < trace.or_pre < 1.0 else 0.0
        grad[0] = -g_or
        y = [1.0 - v for v in trace.facts]
        for k, pre, out in zip(self._blocks(), trace.and_pre, trace.and_out):
            grad[k + arity + 1] = out * g_or
            g_out = g_or * b[k + arity + 1]
            if g_out != 0.0 and 0.0 < pre < 1.0:
                neg = -g_out
                for i, v in enumerate(y, k):
                    grad[i] = v * neg
                grad[k + arity] = g_out
        return grad

    # ------------------------------------------------------ structure and domain

    def induce(self, trace: ForwardTrace) -> int | None:
        """Gate induction on a rewarded step's forward pass: `add_and_gate`
        on `trace.facts` unless a gate already fires on them at alpha.
        Returns the new gate's index, or None when nothing was added."""
        alpha = self.alpha
        if any(out >= alpha for out in trace.and_out):
            return None
        return self.add_and_gate(trace.facts)

    def add_and_gate(self, facts) -> int | None:
        """Append a gate seeded from `facts`: unit weight on every true literal.

        The OR root gains one unit-weight input. The buffer is extended at
        its end, so every other element keeps its index. Returns the new
        gate's index, or None, adding nothing, when the bank is full.
        """
        n = len(self._blocks())
        if n >= self.gate_cap:
            return None
        if len(facts) != self.input_arity:
            raise ValueError(f"seed facts must have arity {self.input_arity}")
        alpha = self.alpha
        # the gate's weights, then its bias 1 and its OR weight 1
        self.buffer += [1.0 if v >= alpha else 0.0 for v in facts]
        self.buffer += (1.0, 1.0)
        return n

    def project(self) -> None:
        """Put every parameter back into its domain, in place, as `np.clip`
        would, bit for bit: weights and biases nonnegative, OR weights also
        at most 1, so a lone matching gate cannot pin its score to the upper
        clamp, and the OR bias at least `OR_BIAS_FLOOR`, so an OR of false
        inputs reads false. NaN stays NaN."""
        b = self.buffer
        arity = self.input_arity
        for k in self._blocks():
            # as `np.clip` with a lower bound alone: -0.0 becomes +0.0
            for i in range(k, k + arity + 1):
                if b[i] <= 0.0:
                    b[i] = 0.0
            # with both bounds, `np.clip` keeps an OR weight of -0.0
            b[k + arity + 1] = clamp01(b[k + arity + 1])
        if b[0] < OR_BIAS_FLOOR:     # b[0] is the OR bias
            b[0] = OR_BIAS_FLOOR


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


class Rule(Frozen):
    """One conjunctive rule read off a gate: its literals and OR weight."""

    def __init__(self, category: str, verb: str, literals: tuple[str, ...], or_weight: float,
                 gate_index: int) -> None:
        set_fields(self, locals())

    __slots__ = parameters(__init__)

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
    if not math.isfinite(weight_threshold):
        raise ValueError(f"rule weight threshold must be finite, got {weight_threshold}")
    rules: list[Rule] = []
    for j, (weights, _, or_w) in enumerate(net.rows()):
        if or_w < weight_threshold:
            continue
        literals = tuple(
            name for name, w in zip(net.literals, weights) if w >= weight_threshold
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
    """Write `net`; a value `load_network` would refuse raises ValueError first."""
    rows = net.rows()
    or_weights = [or_weight for _, _, or_weight in rows]
    _check_domain(f"{net.category} network", net.buffer, or_weights)
    lines = [
        _CHECKPOINT_HEADER,
        f"category {net.category}",
        f"verb {net.verb}",
        f"alpha {_fmt(net.alpha)}",
        f"gate_cap {net.gate_cap}",
        f"arity {net.input_arity}",
        "literals " + " ".join(net.literals),
        f"gates {len(rows)}",
    ]
    for j, (weights, bias, _) in enumerate(rows):
        lines.append(f"and {j} bias {_fmt(bias)} weights " + " ".join(_fmt(w) for w in weights))
    lines.append(f"or bias {_fmt(net.buffer[0])} weights " + " ".join(_fmt(w) for w in or_weights))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_HEADER_KEYS = ("category", "verb", "alpha", "gate_cap", "arity", "literals", "gates")


class CheckpointError(ValueError):
    """A checkpoint file that is truncated, malformed or out of domain."""


@contextlib.contextmanager
def reading_checkpoint(path):
    """Re-raise any other ValueError met while parsing `path` (a number that
    does not parse, bytes that are not UTF-8, and anything `LnnNetwork`
    refuses) as a CheckpointError naming the file."""
    try:
        yield
    except CheckpointError:
        raise
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def _row(path, line: str, head: list[str], width: int) -> tuple[tuple[float, ...], float]:
    """(weights, bias) of a `<head> bias B weights w1 .. w<width>` row."""
    tokens = line.split()
    n = len(head)
    if tokens[:n] != head or tokens[n:n + 1] != ["bias"] or tokens[n + 2:n + 3] != ["weights"]:
        raise CheckpointError(f"{path}: expected a {' '.join(head)!r} row, got {line!r}")
    bias = parse_float(tokens[n + 1])
    weights = tuple([parse_float(t) for t in tokens[n + 3:]])
    if len(weights) != width:
        raise CheckpointError(f"{path}: {' '.join(head)} row has {len(weights)} weights, expected {width}")
    return weights, bias


def load_network(path) -> LnnNetwork:
    """Read a checkpoint written by `save_network`, built once from its parsed
    rows; a truncated or malformed file (short row, a number off its
    canonical form), or one `LnnNetwork` refuses (non-finite or negative
    value, an OR weight above 1, a gate_cap below 1, more gates than the
    gate_cap), raises CheckpointError."""
    with reading_checkpoint(path):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != _CHECKPOINT_HEADER:
            raise CheckpointError(f"{path}: not a network checkpoint")

        header = [line.partition(" ") for line in lines[1:1 + len(_HEADER_KEYS)]]
        if tuple(key for key, _, _ in header) != _HEADER_KEYS:
            raise CheckpointError(f"{path}: header rows must be {', '.join(_HEADER_KEYS)}")
        fields = {key: value for key, _, value in header}

        literals = tuple(fields["literals"].split())
        if len(literals) != parse_int(fields["arity"]):
            raise CheckpointError(f"{path}: arity does not match literal list")

        n_gates = parse_int(fields["gates"])
        body = lines[1 + len(_HEADER_KEYS):]
        if n_gates < 0 or len(body) != n_gates + 1:
            raise CheckpointError(
                f"{path}: expected {n_gates} gate rows and an or row, found {len(body)} rows")
        gates = [_row(path, line, ["and", str(j)], len(literals))
                 for j, line in enumerate(body[:n_gates])]
        or_weights, or_bias = _row(path, body[n_gates], ["or"], n_gates)
        rows = [(weights, bias, or_weight) for (weights, bias), or_weight in zip(gates, or_weights)]
        return LnnNetwork(fields["category"], literals, fields["verb"], parse_float(fields["alpha"]),
                          parse_int(fields["gate_cap"]), rows, or_bias)
