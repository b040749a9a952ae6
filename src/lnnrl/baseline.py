"""Plain MLP action scorer trained with the identical DQN loop.

Scores all ten verb-noun commands from the raw 26 truth values through one
rectified hidden layer. Exists as the convergence-comparison baseline:
`MlpAgent` is the same `DqnAgent` as the logic-network agent, with this
black-box scorer in the middle.
"""

from __future__ import annotations

import random

import numpy as np

from .agent import DqnAgent, Memo, TrainerConfig, Transition, explore, greedy
from .factextract import PROPOSITION_NAMES, Candidate, PropositionSet
from .lnn import CheckpointError, reading_checkpoint
from .rng import substream
from .worldsim import ALL_ACTIONS, Action

N_INPUTS = len(PROPOSITION_NAMES)   # 26
N_ACTIONS = len(ALL_ACTIONS)        # 10
N_HIDDEN = 64

ACTION_INDEX: dict[Action, int] = {a: i for i, a in enumerate(ALL_ACTIONS)}


class MlpScorer:
    """26 -> 64 (ReLU) -> 10, with hand-rolled backprop.

    All scoring goes through `memo`: a forward pass per state's shared
    26-vector, a greedy choice per props record. It is emptied after every
    optimizer step. Replay reads the records' 26-vectors; gradients reuse the
    hidden layer of the state's kept pass.
    """

    #: the optimizer's: no array ever changes shape
    relayout = None

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.w1 = rng.normal(0.0, np.sqrt(2.0 / N_INPUTS), size=(N_INPUTS, N_HIDDEN))
        self.b1 = np.zeros(N_HIDDEN)
        self.w2 = rng.normal(0.0, np.sqrt(1.0 / N_HIDDEN), size=(N_HIDDEN, N_ACTIONS))
        self.b2 = np.zeros(N_ACTIONS)
        self.memo = Memo()

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ten action values and the rectified hidden layer behind them."""
        hidden = np.maximum(self.w1.T @ x + self.b1, 0.0)
        return self.w2.T @ hidden + self.b2, hidden

    def gradients(self, x: np.ndarray, hidden: np.ndarray, action_index: int,
                  upstream: float) -> dict[str, np.ndarray]:
        """d(upstream * q[action_index])/d(params), given `forward(x)`'s `hidden`."""
        g_hidden = upstream * self.w2[:, action_index]
        g_pre = g_hidden * (hidden > 0.0)
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

    def _forward(self, props: PropositionSet) -> tuple[np.ndarray, np.ndarray]:
        return self.memo.of(props.as_vector(), self.forward)

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
        return float(np.max(self._forward(transition.next_props)[0]))

    def transition_gradients(self, transition: Transition, upstream: float) -> dict[str, np.ndarray]:
        x = transition.props.as_vector()
        return self.gradients(x, self._forward(transition.props)[1],
                              ACTION_INDEX[transition.action], upstream)

    def before_batch(self, batch: list[Transition]) -> None:
        pass

    def after_step(self, stepped) -> None:
        self.memo.clear()

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
        must appear once, finite and with the header's shape, or CheckpointError
        is raised."""
        with reading_checkpoint(path):
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if not lines or lines[0] != "mlp-checkpoint v1":
                raise CheckpointError(f"{path}: not an MLP checkpoint")
            head = lines[1].split() if len(lines) > 1 else []
            if (len(head) != 4 or head[0] != "shape" or head[1] != str(N_INPUTS)
                    or head[3] != str(N_ACTIONS) or not head[2].isdigit() or int(head[2]) == 0):
                raise CheckpointError(f"{path}: expected 'shape {N_INPUTS} <hidden> {N_ACTIONS}' on line 2")
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
                    raise CheckpointError(f"{path}: unexpected or repeated row {name!r}")
                values = np.array([float(t) for t in rest.split()])
                size = int(np.prod(shapes[name]))
                if values.size != size or not np.all(np.isfinite(values)):
                    raise CheckpointError(f"{path}: row {name} needs {size} finite values")
                rows[name] = values.reshape(shapes[name])
            missing = [name for name in shapes if name not in rows]
            if missing:
                raise CheckpointError(f"{path}: missing rows {', '.join(missing)}")
        scorer = cls.__new__(cls)
        scorer.w1, scorer.b1, scorer.w2, scorer.b2 = (rows[name] for name in shapes)
        scorer.memo = Memo()
        return scorer


class MlpAgent(DqnAgent):
    """The trainer over an MLP scorer seeded by the run."""

    def __init__(self, config: TrainerConfig, run_seed: int = 0):
        super().__init__(config, MlpScorer(seed=run_seed),
                         substream("replay-sampling", "mlp", run_seed))
