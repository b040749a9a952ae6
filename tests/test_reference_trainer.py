"""The whole trainer against a slow reference loop, byte for byte.

`reference_run` trains and evaluates the way the program did before any of its
fast paths: it renders and parses the room text on every step, grounds the
candidates afresh with `reference_candidates`, shapes the reward from the
agent's map with `reference_shaping`, scores every candidate of every step
with a fresh forward pass in the numpy-call form (no memo, no shared
records), keeps each logic network as named arrays, steps them with
`ReferenceAdam`, projects with `np.clip`, and takes a deep-copied target every
`target_update_period` optimizer steps. It draws from the same named random
substreams as `run_experiment`, so on any config the two must write the same
files, `config.txt`, `metrics.csv`, rule dumps and checkpoints, and none that
`harness.RUN_FILES` does not list.
"""

import copy
import dataclasses
import math
import random
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_agent import loop_index, reference_candidates, reference_shaping, reference_vector
from test_golden import run_files
from test_lnn import ReferenceAdam, reference_forward

from lnnrl.agent import TrainerConfig, epsilon_at
from lnnrl.baseline import N_ACTIONS, N_HIDDEN, N_INPUTS
from lnnrl.factextract import (
    CATEGORY_LITERALS,
    CATEGORY_VERBS,
    AgentMap,
    extract_propositions,
    parse_observation,
)
from lnnrl.harness import ExperimentConfig, build_game_sets, run_experiment
from lnnrl.lexicon import default_lexicon
from lnnrl.lnn import DEFAULT_OR_BIAS, load_network, render_ruleset
from lnnrl.rng import derive_seed, substream
from lnnrl.worldsim import (
    ALL_ACTIONS,
    DIFFICULTIES,
    generate_game,
    render_observation,
    start_episode,
    step,
)


def fmt(x) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# the logic networks as named arrays
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Node:
    weights: np.ndarray
    bias: np.ndarray


@dataclasses.dataclass
class ReferenceNet:
    """One category's network as a list of gates and an OR root, each its own
    arrays; `forward` is `reference_forward` over its rows."""

    category: str
    alpha: float
    gate_cap: int
    and_gates: list
    or_root: Node

    @classmethod
    def fresh(cls, category, alpha, gate_cap):
        arity = len(CATEGORY_LITERALS[category])
        return cls(category, alpha, gate_cap, [Node(np.full(arity, 0.5), np.array(1.0))],
                   Node(np.array([1.0]), np.array(DEFAULT_OR_BIAS)))

    def forward(self, facts):
        rows = [(g.weights, g.bias, w) for g, w in zip(self.and_gates, self.or_root.weights)]
        return reference_forward(rows, self.or_root.bias, facts)

    def parameters(self):
        params = {}
        for j, gate in enumerate(self.and_gates):
            params[f"{self.category}.and{j}.w"] = gate.weights
            params[f"{self.category}.and{j}.b"] = gate.bias
        params[f"{self.category}.or.w"] = self.or_root.weights
        params[f"{self.category}.or.b"] = self.or_root.bias
        return params

    def gradients(self, trace, upstream):
        """d(upstream * q)/d(param) by name, every array fresh."""
        x, and_pre, and_out, or_pre, _ = trace
        g_or = upstream if 0.0 < or_pre < 1.0 else 0.0
        grads = {f"{self.category}.or.w": g_or * and_out,
                 f"{self.category}.or.b": np.array(-g_or)}
        for j, gate in enumerate(self.and_gates):
            g_out = g_or * float(self.or_root.weights[j])
            if g_out != 0.0 and 0.0 < and_pre[j] < 1.0:
                grads[f"{self.category}.and{j}.w"] = -g_out * (1.0 - x)
                grads[f"{self.category}.and{j}.b"] = np.array(g_out)
            else:
                grads[f"{self.category}.and{j}.w"] = np.zeros(gate.weights.size)
                grads[f"{self.category}.and{j}.b"] = np.array(0.0)
        return grads

    def induce(self, trace):
        x, _, and_out, _, _ = trace
        if and_out.size and np.max(and_out) >= self.alpha:
            return
        if len(self.and_gates) >= self.gate_cap:
            return
        self.and_gates.append(Node(np.where(x >= self.alpha, 1.0, 0.0), np.array(1.0)))
        self.or_root.weights = np.append(self.or_root.weights, 1.0)

    def project(self):
        for gate in self.and_gates:
            np.clip(gate.weights, 0.0, None, out=gate.weights)
            np.clip(gate.bias, 0.0, None, out=gate.bias)
        np.clip(self.or_root.weights, 0.0, 1.0, out=self.or_root.weights)
        # an OR of false inputs must read false: the bias stays above 1
        np.clip(self.or_root.bias, math.nextafter(1.0, 2.0), None, out=self.or_root.bias)

    def checkpoint(self) -> str:
        literals = CATEGORY_LITERALS[self.category]
        lines = ["lnn-checkpoint v1", f"category {self.category}",
                 f"verb {CATEGORY_VERBS[self.category]}", f"alpha {fmt(self.alpha)}",
                 f"gate_cap {self.gate_cap}", f"arity {len(literals)}",
                 "literals " + " ".join(literals), f"gates {len(self.and_gates)}"]
        for j, gate in enumerate(self.and_gates):
            lines.append(f"and {j} bias {fmt(gate.bias)} weights "
                         + " ".join(fmt(w) for w in gate.weights))
        lines.append(f"or bias {fmt(self.or_root.bias)} weights "
                     + " ".join(fmt(w) for w in self.or_root.weights))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the two scorers, with no memo
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Step:
    props: object
    action: object
    chosen: tuple | None              # (category, facts) of the candidate taken
    reward: float
    terminal: bool
    next_props: object
    next_candidates: list


class LnnModel:
    def __init__(self, trainer: TrainerConfig):
        self.nets = {category: ReferenceNet.fresh(category, trainer.alpha, trainer.gate_cap)
                     for category in CATEGORY_VERBS}

    def choose(self, props, candidates, epsilon, rng):
        q_values = [self.nets[category].forward(facts)[0]
                    for category, _, _, facts in candidates]
        category, _, action, facts = candidates[loop_index(q_values, epsilon, rng)]
        return action, (category, facts)

    def q(self, t):
        category, facts = t.chosen
        return self.nets[category].forward(facts)[0]

    def best_next(self, t):
        return max((self.nets[category].forward(facts)[0]
                    for category, _, _, facts in t.next_candidates), default=0.0)

    def gradients(self, t, upstream):
        category, facts = t.chosen
        net = self.nets[category]
        return net.gradients(net.forward(facts)[1], upstream)

    def parameters(self):
        return {name: p for net in self.nets.values() for name, p in net.parameters().items()}

    def before_batch(self, batch):
        for t in batch:
            if t.reward >= 1.0:
                category, facts = t.chosen
                net = self.nets[category]
                net.induce(net.forward(facts)[1])

    def after_step(self):
        for net in self.nets.values():
            net.project()

    def save(self, seed_dir: Path, threshold: float, rules_path: Path):
        for category, net in self.nets.items():
            (seed_dir / f"{category}.lnn").write_text(net.checkpoint(), encoding="utf-8")
        loaded = {category: load_network(seed_dir / f"{category}.lnn") for category in self.nets}
        rules_path.write_text(render_ruleset(loaded, threshold), encoding="utf-8")


class MlpModel:
    def __init__(self, run_seed):
        # w1 then w2, each row by row, from the "mlp-init" stream
        rng = random.Random(derive_seed("mlp-init", run_seed))

        def normal(sd, rows, cols):
            return np.array([[rng.normalvariate(0.0, sd) for _ in range(cols)] for _ in range(rows)])

        self.params = {
            "w1": normal(math.sqrt(2.0 / N_INPUTS), N_INPUTS, N_HIDDEN),
            "b1": np.zeros(N_HIDDEN),
            "w2": normal(math.sqrt(1.0 / N_HIDDEN), N_HIDDEN, N_ACTIONS),
            "b2": np.zeros(N_ACTIONS),
        }

    def forward(self, props):
        p = self.params
        hidden = np.maximum(p["w1"].T @ reference_vector(props) + p["b1"], 0.0)
        return p["w2"].T @ hidden + p["b2"], hidden

    def choose(self, props, candidates, epsilon, rng):
        q_values = self.forward(props)[0].tolist()
        return ALL_ACTIONS[loop_index(q_values, epsilon, rng)], None

    def q(self, t):
        return float(self.forward(t.props)[0][ALL_ACTIONS.index(t.action)])

    def best_next(self, t):
        return float(np.max(self.forward(t.next_props)[0]))

    def gradients(self, t, upstream):
        a = ALL_ACTIONS.index(t.action)
        x = reference_vector(t.props)
        hidden = self.forward(t.props)[1]
        g_pre = upstream * self.params["w2"][:, a] * (hidden > 0.0)
        grads = {"b1": g_pre, "w1": np.outer(x, g_pre),
                 "b2": np.zeros(N_ACTIONS), "w2": np.zeros((N_HIDDEN, N_ACTIONS))}
        grads["b2"][a] = upstream
        grads["w2"][:, a] = upstream * hidden
        return grads

    def parameters(self):
        return self.params

    def before_batch(self, batch):
        pass

    def after_step(self):
        pass

    def save(self, seed_dir: Path, threshold: float, rules_path: Path):
        lines = ["mlp-checkpoint v1", f"shape {N_INPUTS} {N_HIDDEN} {N_ACTIONS}"]
        for name in ("w1", "b1", "w2", "b2"):
            lines.append(f"{name} " + " ".join(format(v, ".17g") for v in self.params[name].ravel()))
        (seed_dir / "mlp.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# the trainer
# ---------------------------------------------------------------------------


class ReferenceAgent:
    def __init__(self, config: ExperimentConfig, run_seed):
        trainer = self.trainer = config.trainer
        if config.agent == "lnn":
            self.model = LnnModel(trainer)
            self.replay_rng = substream("replay-sampling", run_seed)
        else:
            self.model = MlpModel(run_seed)
            self.replay_rng = substream("replay-sampling", "mlp", run_seed)
        self.target = copy.deepcopy(self.model)
        self.optimizer = ReferenceAdam(trainer.learning_rate)
        cap = trainer.replay_capacity
        prioritized_cap = max(1, int(cap * trainer.priority_fraction))
        self.prioritized, self.ordinary = [], []
        self.caps = (prioritized_cap, max(1, cap - prioritized_cap))
        self.env_steps = self.optimizer_steps = 0

    def observe(self, t: Step):
        pool, cap = (self.prioritized, self.caps[0]) if t.reward > 0 else (self.ordinary, self.caps[1])
        pool.append(t)
        del pool[:-cap]
        self.env_steps += 1
        if self.env_steps % self.trainer.update_period == 0:
            self.train_step()

    def sample(self):
        size = self.trainer.batch_size
        want_prioritized = round(size * self.trainer.priority_fraction)
        batch = []
        for i in range(size):
            pool = self.prioritized if i < want_prioritized else self.ordinary
            if not pool:
                pool = self.ordinary if pool is self.prioritized else self.prioritized
            batch.append(pool[self.replay_rng.randrange(len(pool))])
        return batch

    def train_step(self):
        batch = self.sample()
        self.model.before_batch(batch)
        grads = {}
        for t in batch:
            y = t.reward
            if not t.terminal:
                y = y + self.trainer.gamma * self.target.best_next(t)
            error = self.model.q(t) - float(np.clip(y, 0.0, 1.0))
            for name, g in self.model.gradients(t, 2.0 * error / len(batch)).items():
                grads[name] = grads[name] + g if name in grads else g
        self.optimizer.step(self.model.parameters(), grads)
        self.model.after_step()
        self.optimizer_steps += 1
        if self.optimizer_steps % self.trainer.target_update_period == 0:
            self.target = copy.deepcopy(self.model)


def read(graph, room, agent_map):
    return extract_propositions(parse_observation(render_observation(graph, room)), agent_map)


def episode(graph, agent, lexicon, train, epsilon=0.0, rng=None):
    """One episode, every step read afresh; returns (quest reward, steps)."""
    state = start_episode(graph)
    agent_map = AgentMap.start(state.room)
    props = read(graph, state.room, agent_map)
    quest = 0.0
    while not state.done:
        candidates = reference_candidates(props, lexicon)
        action, chosen = agent.model.choose(props, candidates, epsilon, rng)
        outcome = step(state, action)
        reward = reference_shaping(outcome, props, agent_map.visited,
                                   agent_map.entry_direction.get(agent_map.current),
                                   action, graph.difficulty, agent.trainer.bonus_coefficient)
        quest += outcome.quest_reward
        if outcome.action_valid and action.verb == "go":
            agent_map.record_move(action.noun, outcome.room_id)
        next_props = read(graph, state.room, agent_map)
        if train:
            agent.observe(Step(props, action, chosen, reward, outcome.done,
                               next_props, reference_candidates(next_props, lexicon)))
        props = next_props
    return quest, state.steps


def reference_run(config: ExperimentConfig, out: Path):
    """Every seed of `config` trained and evaluated the slow way; writes the
    artifacts `run_experiment` writes."""
    lexicon = default_lexicon()
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config.to_text(), encoding="utf-8")
    columns = []
    for k in range(config.n_seeds):
        run_seed = derive_seed("run", config.base_seed, k)
        train_specs, test_specs = build_game_sets(config, run_seed)
        train_graphs = [generate_game(s) for s in train_specs]
        test_graphs = [generate_game(s) for s in test_specs]
        agent = ReferenceAgent(config, run_seed)
        order_rng = substream("train-order", run_seed)
        rows = []
        for epoch in range(1, config.resolved_epochs() + 1):
            graph = train_graphs[order_rng.randrange(len(train_graphs))]
            episode(graph, agent, lexicon, True, epsilon_at(epoch - 1, config.trainer),
                    substream("epsilon-exploration", run_seed, epoch))
            if epoch % config.eval_interval == 0:
                results = [episode(g, agent, lexicon, False, rng=random.Random(0))
                           for g in test_graphs]
                rows.append((epoch, sum(r for r, _ in results) / len(results),
                             sum(s for _, s in results) / len(results)))
        window = config.moving_average_window
        smoothed = []
        for i, (epoch, _, _) in enumerate(rows):
            chunk = rows[max(0, i - window + 1):i + 1]
            smoothed.append((epoch, sum(r for _, r, _ in chunk) / len(chunk),
                             sum(s for _, _, s in chunk) / len(chunk)))
        columns.append(smoothed)
        seed_dir = out / f"seed{k}"
        seed_dir.mkdir()
        agent.model.save(seed_dir, config.rule_weight_threshold, out / f"rules_seed{k}.txt")

    header = ["epoch", "reward_mean", "steps_mean"]
    for k in range(config.n_seeds):
        header += [f"reward_seed{k}", f"steps_seed{k}"]
    lines = [",".join(header)]
    for row in zip(*columns):
        rewards, steps = [r for _, r, _ in row], [s for _, _, s in row]
        cells = [str(row[0][0]), f"{sum(rewards) / len(rewards):.6f}",
                 f"{sum(steps) / len(steps):.6f}"]
        for r, s in zip(rewards, steps):
            cells += [f"{r:.6f}", f"{s:.6f}"]
        lines.append(",".join(cells))
    (out / "metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


@st.composite
def small_configs(draw):
    epochs = draw(st.integers(2, 20))
    trainer = TrainerConfig(
        batch_size=draw(st.integers(1, 6)),
        update_period=draw(st.integers(1, 4)),
        priority_fraction=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
        target_update_period=draw(st.integers(1, 8)),
        gate_cap=draw(st.integers(1, 16)),
        learning_rate=draw(st.sampled_from([1e-3, 0.05, 0.3])),
        epsilon_end=draw(st.sampled_from([0.0, 0.2])),
        epsilon_anneal_epochs=draw(st.integers(1, 10)),
        # shaping and discounting change which steps induce gates and how
        # targets clamp
        bonus_coefficient=draw(st.sampled_from([1.0, 0.5, 0.25])),
        gamma=draw(st.sampled_from([0.9, 0.5])),
    )
    return ExperimentConfig(
        difficulty=draw(st.sampled_from(DIFFICULTIES)),
        agent=draw(st.sampled_from(["lnn", "nn"])),
        n_train_games=draw(st.integers(1, 4)),
        train_level=draw(st.integers(1, 4)),
        test_levels=tuple(draw(st.lists(st.integers(2, 6), min_size=1, max_size=2, unique=True))),
        n_test_per_level=draw(st.integers(1, 2)),
        epochs=epochs,
        eval_interval=draw(st.integers(1, epochs)),
        n_seeds=draw(st.integers(1, 2)),
        base_seed=draw(st.integers(0, 2**16)),
        max_episode_steps=draw(st.integers(8, 30)),
        moving_average_window=draw(st.integers(1, 3)),
        trainer=trainer,
    )


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(config=small_configs())
# training raises the OR bias to its floor, which none of the drawn configs reaches
@example(config=ExperimentConfig(
    difficulty="easy", agent="lnn", epochs=10, eval_interval=5, n_seeds=1, n_train_games=4,
    train_level=3, n_test_per_level=1, test_levels=(5,), base_seed=1, max_episode_steps=30,
    trainer=TrainerConfig(learning_rate=0.05)))
def test_the_trainer_writes_what_the_reference_loop_writes(tmp_path_factory, config):
    root = tmp_path_factory.mktemp("run")
    run_experiment(config, root / "fast")
    reference_run(config, root / "reference")
    fast = run_files(root / "fast", config.agent, traced=False)
    reference = run_files(root / "reference", config.agent, traced=False)
    assert sorted(fast) == sorted(reference)
    assert [name for name in reference if fast[name] != reference[name]] == []
