"""Plain MLP action scorer trained with the identical DQN loop.

Scores all ten verb-noun commands from the raw 26 truth values through one
rectified hidden layer. Exists as the convergence-comparison baseline:
`MlpAgent` is the same `DqnAgent` as the logic-network agent, with this
black-box scorer in the middle.
"""

from __future__ import annotations

import copy
import math
import random

import numpy as np

from .agent import DqnAgent, Memo, TrainerConfig, Transition, explore, greedy
from .factextract import PROPOSITION_NAMES, Candidate, PropositionSet
from .lnn import CheckpointError, reading_checkpoint
from .numtext import parse_float
from .rng import substream
from .worldsim import ALL_ACTIONS, Action

N_INPUTS = len(PROPOSITION_NAMES)   # 26
N_ACTIONS = len(ALL_ACTIONS)        # 10
N_HIDDEN = 64

ACTION_INDEX: dict[Action, int] = {a: i for i, a in enumerate(ALL_ACTIONS)}

#: line 2 of every MLP checkpoint, and the size of each row after it, in order
SHAPE_LINE = f"shape {N_INPUTS} {N_HIDDEN} {N_ACTIONS}"
ROW_SIZES = {"w1": N_INPUTS * N_HIDDEN, "b1": N_HIDDEN, "w2": N_HIDDEN * N_ACTIONS, "b2": N_ACTIONS}


#: one read-only float64 26-vector per props record, built on first use and
#: kept with its record, so every step that shares the record shares it; the
#: shared records number at most 2,560, one per truth assignment
_INPUTS = Memo()


def _as_array(props: PropositionSet) -> np.ndarray:
    vector = np.array(props.as_vector())
    vector.flags.writeable = False
    return vector


def inputs(props: PropositionSet) -> np.ndarray:
    """The scorer's input for `props`: its 26 values as one shared, read-only
    float64 vector."""
    return _INPUTS.of(props, _as_array)


def _views(flat: np.ndarray) -> tuple[np.ndarray, ...]:
    """`w1`, `b1`, `w2`, `b2` as views into the last axis of `flat`, laid out
    as the buffer is."""
    w1_end = N_INPUTS * N_HIDDEN
    w2_start = w1_end + N_HIDDEN
    b2_start = w2_start + N_HIDDEN * N_ACTIONS
    lead = flat.shape[:-1]
    return (flat[..., :w1_end].reshape(lead + (N_INPUTS, N_HIDDEN)),
            flat[..., w1_end:w2_start],
            flat[..., w2_start:b2_start].reshape(lead + (N_HIDDEN, N_ACTIONS)),
            flat[..., b2_start:])


class MlpScorer:
    """26 -> 64 (ReLU) -> 10, with hand-rolled backprop.

    All parameters live in one float64 vector, `buffer`, laid out
    `[w1 (26 x 64, row-major) | b1 | w2 (64 x 10, row-major) | b2]`; `w1`,
    `b1`, `w2` and `b2` are views into it, and the optimizer steps the whole
    buffer under the key "mlp". A deep copy (the target) copies the buffer and
    points its own views into the copy.

    A fresh scorer draws `w1` and then `w2`, row-major, from the stream
    `substream("mlp-init", seed)` with `random.Random.normalvariate` (standard
    deviations sqrt(2/26) and sqrt(1/64)); both biases start at zero. Python
    keeps that stream stable across releases, which `numpy.random` does not
    promise, and a run never imports `numpy.random`.

    All scoring goes through `memo`: a forward pass per state's shared
    26-vector, a greedy choice per props record. It is emptied after every
    optimizer step. Replay reads the records' 26-vectors; one gradient call
    per batch reuses the hidden layers of the states' kept passes.
    """

    def __init__(self, seed: int = 0):
        rng = substream("mlp-init", seed)
        w1 = [rng.normalvariate(0.0, math.sqrt(2.0 / N_INPUTS)) for _ in range(ROW_SIZES["w1"])]
        w2 = [rng.normalvariate(0.0, math.sqrt(1.0 / N_HIDDEN)) for _ in range(ROW_SIZES["w2"])]
        self._point_into(np.array(w1 + [0.0] * N_HIDDEN + w2 + [0.0] * N_ACTIONS))
        self.memo = Memo()

    def _point_into(self, buffer: np.ndarray) -> None:
        """Make `buffer` the parameters, with `w1`, `b1`, `w2`, `b2` views into it."""
        self.buffer = buffer
        self.w1, self.b1, self.w2, self.b2 = _views(buffer)

    def __deepcopy__(self, memo) -> "MlpScorer":
        scorer = type(self).__new__(type(self))
        scorer._point_into(self.buffer.copy())
        scorer.memo = copy.deepcopy(self.memo, memo)
        return scorer

    def parameters(self) -> dict[str, np.ndarray]:
        return {"mlp": self.buffer}

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ten action values and the rectified hidden layer behind them."""
        hidden = np.maximum(self.w1.T @ x + self.b1, 0.0)
        return self.w2.T @ hidden + self.b2, hidden

    def gradients(self, xs: np.ndarray, hiddens: np.ndarray, action_indices: list[int],
                  upstreams: np.ndarray) -> np.ndarray:
        """d(sum_i upstreams[i] * q_i[action_indices[i]])/d(buffer), one fresh
        vector in the buffer's layout, given each row of `xs` and the hidden
        layer `forward` gave it (the rows of `hiddens`).

        Each transition's term, one row of `terms`, is the per-transition
        gradient's, elementwise and with no BLAS call, and the rows are summed
        in batch order from -0.0, the exact additive identity: bit for bit the
        sum `g_0 + g_1 + ...` of one gradient per transition, signed zeros
        included."""
        rows = np.arange(len(action_indices))
        u = upstreams[:, None]
        terms = np.zeros((rows.size, self.buffer.size))
        w1, b1, w2, b2 = _views(terms)
        np.multiply(u * self.w2.T[action_indices], hiddens > 0.0, out=b1)
        np.multiply(xs[:, :, None], b1[:, None, :], out=w1)
        w2[rows, :, action_indices] = u * hiddens
        b2[rows, action_indices] = upstreams
        # an axis-0 reduction adds whole rows, in order
        return np.add.reduce(terms, axis=0, initial=-0.0)

    # ------------------------------------------------------ scorer contract

    def _forward(self, props: PropositionSet) -> tuple[np.ndarray, np.ndarray]:
        return self.memo.of(inputs(props), self.forward)

    def _greedy(self, props: PropositionSet) -> tuple[Action, list[float]]:
        q_values = self._forward(props)[0].tolist()
        return ALL_ACTIONS[greedy(q_values)], q_values

    def choose(self, props: PropositionSet, candidates: tuple[Candidate, ...],
               epsilon: float, rng: random.Random) -> tuple[Action, list[float] | None]:
        index = explore(N_ACTIONS, epsilon, rng)
        if index is not None:
            return ALL_ACTIONS[index], None
        action, q_values = self.memo.of(props, self._greedy)
        return action, list(q_values)

    def chosen(self, candidates: tuple[Candidate, ...], action: Action) -> None:
        # the MLP reads the action, never a candidate
        return None

    def q(self, transition: Transition) -> float:
        return float(self._forward(transition.props)[0][ACTION_INDEX[transition.action]])

    def best_next(self, transition: Transition) -> float:
        return float(self._forward(transition.next_props)[0].max())

    def batch_gradients(self, batch: list[Transition], upstreams: list[float]) -> dict[str, np.ndarray]:
        xs = np.array([inputs(t.props) for t in batch])
        hiddens = np.array([self._forward(t.props)[1] for t in batch])
        return {"mlp": self.gradients(xs, hiddens, [ACTION_INDEX[t.action] for t in batch],
                                      np.array(upstreams))}

    def before_batch(self, batch: list[Transition]) -> None:
        pass

    def after_step(self, stepped) -> None:
        self.memo.clear()

    # ------------------------------------------------------------ checkpoints

    def save(self, path) -> None:
        """Write the scorer; a non-finite value, which `load` would refuse,
        raises ValueError before the file is opened."""
        if not np.all(np.isfinite(self.buffer)):
            raise ValueError("MLP scorer holds a non-finite value")
        lines = ["mlp-checkpoint v1", SHAPE_LINE]
        for name in ROW_SIZES:
            arr = getattr(self, name)
            lines.append(f"{name} " + " ".join(format(v, ".17g") for v in arr.ravel()))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "MlpScorer":
        """Read a checkpoint written by `save`; line 2 must be `SHAPE_LINE`, the
        scorer's one shape, and every row `w1`, `b1`, `w2`, `b2` must appear
        once, finite and of its `ROW_SIZES` size, or CheckpointError is raised."""
        with reading_checkpoint(path):
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if not lines or lines[0] != "mlp-checkpoint v1":
                raise CheckpointError(f"{path}: not an MLP checkpoint")
            if lines[1:2] != [SHAPE_LINE]:
                raise CheckpointError(f"{path}: expected {SHAPE_LINE!r} on line 2")
            rows: dict[str, np.ndarray] = {}
            for line in lines[2:]:
                name, _, rest = line.partition(" ")
                if name not in ROW_SIZES or name in rows:
                    raise CheckpointError(f"{path}: unexpected or repeated row {name!r}")
                values = np.array([parse_float(t) for t in rest.split()])
                if values.size != ROW_SIZES[name] or not np.all(np.isfinite(values)):
                    raise CheckpointError(f"{path}: row {name} needs {ROW_SIZES[name]} finite values")
                rows[name] = values
            missing = [name for name in ROW_SIZES if name not in rows]
            if missing:
                raise CheckpointError(f"{path}: missing rows {', '.join(missing)}")
        scorer = cls.__new__(cls)
        scorer._point_into(np.concatenate([rows[name] for name in ROW_SIZES]))
        scorer.memo = Memo()
        return scorer


class MlpAgent(DqnAgent):
    """The trainer over an MLP scorer seeded by the run."""

    def __init__(self, config: TrainerConfig, run_seed: int = 0):
        super().__init__(config, MlpScorer(seed=run_seed),
                         substream("replay-sampling", "mlp", run_seed))
