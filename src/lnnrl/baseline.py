"""Plain MLP action scorer trained with the identical DQN loop.

Scores all ten verb-noun commands from the raw 26 truth values through one
rectified hidden layer. Exists as the convergence-comparison baseline:
`MlpAgent` is the same `DqnAgent` as the logic-network agent, with this
black-box scorer in the middle.
"""

from __future__ import annotations

import copy
import random

import numpy as np

from .agent import Candidate, DqnAgent, TrainerConfig, Transition
from .factextract import PROPOSITION_NAMES, PropositionSet
from .rng import substream
from .worldsim import ALL_ACTIONS, Action

N_INPUTS = len(PROPOSITION_NAMES)   # 26
N_ACTIONS = len(ALL_ACTIONS)        # 10
N_HIDDEN = 64


class MlpScorer:
    """26 -> 64 (ReLU) -> 10, with hand-rolled backprop."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.w1 = rng.normal(0.0, np.sqrt(2.0 / N_INPUTS), size=(N_INPUTS, N_HIDDEN))
        self.b1 = np.zeros(N_HIDDEN)
        self.w2 = rng.normal(0.0, np.sqrt(1.0 / N_HIDDEN), size=(N_HIDDEN, N_ACTIONS))
        self.b2 = np.zeros(N_ACTIONS)

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def forward(self, x: np.ndarray) -> np.ndarray:
        hidden = np.maximum(self.w1.T @ x + self.b1, 0.0)
        return self.w2.T @ hidden + self.b2

    def gradients(self, x: np.ndarray, action_index: int, upstream: float) -> dict[str, np.ndarray]:
        """d(upstream * q[action_index])/d(params)."""
        pre = self.w1.T @ x + self.b1
        hidden = np.maximum(pre, 0.0)
        g_hidden = upstream * self.w2[:, action_index]
        g_pre = g_hidden * (pre > 0.0)
        grads = {
            "b1": g_pre,
            "w1": np.outer(x, g_pre),
            "b2": np.zeros(N_ACTIONS),
            "w2": np.zeros_like(self.w2),
        }
        grads["b2"][action_index] = upstream
        grads["w2"][:, action_index] = upstream * hidden
        return grads

    # ------------------------------------------------------ scorer contract

    def choose(self, props: PropositionSet, candidates: list[Candidate],
               epsilon: float, rng: random.Random) -> tuple[Action, list[float]]:
        q = self.forward(props.as_vector())
        if epsilon > 0.0 and rng.random() < epsilon:
            return ALL_ACTIONS[rng.randrange(N_ACTIONS)], list(q)
        return ALL_ACTIONS[int(np.argmax(q))], list(q)

    def q(self, transition: Transition) -> float:
        return float(self.forward(transition.props_vec)[transition.action_index])

    def best_next(self, transition: Transition) -> float:
        return float(np.max(self.forward(transition.next_props_vec)))

    def transition_gradients(self, transition: Transition, upstream: float) -> dict[str, np.ndarray]:
        return self.gradients(transition.props_vec, transition.action_index, upstream)

    def snapshot(self) -> "MlpScorer":
        return copy.deepcopy(self)

    def before_batch(self, batch: list[Transition]) -> None:
        pass

    def after_step(self) -> None:
        pass

    # ------------------------------------------------------------ checkpoints

    def save(self, path) -> None:
        lines = ["mlp-checkpoint v1", f"shape {N_INPUTS} {self.w1.shape[1]} {N_ACTIONS}"]
        for name in ("w1", "b1", "w2", "b2"):
            arr = getattr(self, name)
            lines.append(f"{name} " + " ".join(format(v, ".17g") for v in arr.ravel()))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "MlpScorer":
        """Read a checkpoint written by `save`; every row `w1`, `b1`, `w2`, `b2`
        must appear once, finite and with the header's shape."""
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != "mlp-checkpoint v1":
            raise ValueError(f"{path}: not an MLP checkpoint")
        head = lines[1].split() if len(lines) > 1 else []
        if (len(head) != 4 or head[0] != "shape" or head[1] != str(N_INPUTS)
                or head[3] != str(N_ACTIONS) or not head[2].isdigit() or int(head[2]) == 0):
            raise ValueError(f"{path}: expected 'shape {N_INPUTS} <hidden> {N_ACTIONS}' on line 2")
        n_hidden = int(head[2])
        shapes = {
            "w1": (N_INPUTS, n_hidden),
            "b1": (n_hidden,),
            "w2": (n_hidden, N_ACTIONS),
            "b2": (N_ACTIONS,),
        }
        rows: dict[str, np.ndarray] = {}
        for line in lines[2:]:
            name, _, rest = line.partition(" ")
            if name not in shapes or name in rows:
                raise ValueError(f"{path}: unexpected or repeated row {name!r}")
            values = np.array([float(t) for t in rest.split()])
            size = int(np.prod(shapes[name]))
            if values.size != size or not np.all(np.isfinite(values)):
                raise ValueError(f"{path}: row {name} needs {size} finite values")
            rows[name] = values.reshape(shapes[name])
        missing = [name for name in shapes if name not in rows]
        if missing:
            raise ValueError(f"{path}: missing rows {', '.join(missing)}")
        scorer = cls.__new__(cls)
        scorer.w1, scorer.b1, scorer.w2, scorer.b2 = (rows[name] for name in shapes)
        return scorer


class MlpAgent(DqnAgent):
    """The trainer over an MLP scorer seeded by the run."""

    def __init__(self, config: TrainerConfig, run_seed: int = 0):
        super().__init__(config, MlpScorer(seed=run_seed),
                         substream("replay-sampling", "mlp", run_seed))
