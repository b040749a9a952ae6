"""DQN-style training of per-category logic-network policies.

Each step the agent grounds one candidate action per (category, noun) pair
the lexicon supports — four `go` directions plus `take coin` — scores every
candidate with its category's network, and acts epsilon-greedily. Rewards
are shaped with an episodic discovery bonus and, on medium/hard maps, a
bonus for backing out of a fully explored room the way it came in.

`DqnAgent` is the one trainer: Q-regression against a periodically
refreshed target snapshot, one Adam over every named parameter, and a
two-pool replay buffer that keeps reward-bearing transitions sampled at a
fixed fraction of every batch. It drives any scorer; `LnnScorer` holds the
logic networks and the MLP baseline's scorer lives in `baseline.py`.

Gate induction: whenever a sampled transition carried reward >= 1 and no AND
gate of the chosen category's network fires at the truth threshold on its
facts, a new gate seeded from those facts is spliced in.
"""

from __future__ import annotations

import copy
import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .factextract import (
    CATEGORY_LITERALS,
    AgentMap,
    GroundedFactVector,
    PropositionSet,
    can_ground,
    extract_propositions,
    ground_facts,
    parse_observation,
)
from .lexicon import LexiconTable
from .lnn import GateCapReached, LnnNetwork, TruthConfig
from .optim import AdamOptimizer
from .rng import substream
from .worldsim import (
    ALL_ACTIONS,
    DIRECTIONS,
    Action,
    RoomGraph,
    StepOutcome,
    reset,
    step,
)

# nouns in candidate order: directions first (NESW), then coin
CANDIDATE_NOUNS: tuple[str, ...] = DIRECTIONS + ("coin",)

# which verb a category's networks decide about
CATEGORY_VERBS: dict[str, str] = {"direction": "go", "money": "take"}

ACTION_INDEX: dict[Action, int] = {a: i for i, a in enumerate(ALL_ACTIONS)}


@dataclass(frozen=True)
class TrainerConfig:
    gamma: float = 0.9
    batch_size: int = 4
    update_period: int = 4              # environment steps between gradient updates
    epsilon_start: float = 1.0
    epsilon_end: float = 0.2
    epsilon_anneal_epochs: int = 1000
    bonus_coefficient: float = 1.0
    learning_rate: float = 1e-3
    replay_capacity: int = 500_000
    priority_fraction: float = 0.25
    target_update_period: int = 100     # optimizer steps between target refreshes
    alpha: float = 0.75
    gate_cap: int = 16

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        for name in ("batch_size", "update_period", "epsilon_anneal_epochs",
                     "replay_capacity", "target_update_period", "gate_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.priority_fraction <= 1.0:
            raise ValueError("priority_fraction must lie in [0, 1]")


def epsilon_at(epoch: int, config: TrainerConfig) -> float:
    """Linear anneal from epsilon_start to epsilon_end, flat afterwards."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    frac = min(epoch, config.epsilon_anneal_epochs) / config.epsilon_anneal_epochs
    return config.epsilon_start + (config.epsilon_end - config.epsilon_start) * frac


# ---------------------------------------------------------------------------
# candidates and action selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    category: str
    noun: str
    action: Action
    facts: GroundedFactVector


def enumerate_candidates(props: PropositionSet, lexicon: LexiconTable) -> list[Candidate]:
    """One grounded candidate per (category, noun) pair the lexicon supports."""
    candidates: list[Candidate] = []
    for noun in CANDIDATE_NOUNS:
        for category in sorted(lexicon.lookup(noun)):
            verb = CATEGORY_VERBS.get(category)
            if verb is None or not can_ground(category, noun):
                continue
            candidates.append(
                Candidate(
                    category=category,
                    noun=noun,
                    action=Action(verb, noun),
                    facts=ground_facts(props, category, noun),
                )
            )
    return candidates


def select_action(
    candidates: list[Candidate],
    nets: dict[str, LnnNetwork],
    epsilon: float,
    rng: random.Random,
) -> tuple[Action, list[float]]:
    """Epsilon-greedy over the candidates; exact ties go to the earliest index."""
    if not candidates:
        raise ValueError("select_action needs at least one candidate")
    q_values = [nets[c.category].forward(c.facts.values)[0] for c in candidates]
    if epsilon > 0.0 and rng.random() < epsilon:
        return candidates[rng.randrange(len(candidates))].action, q_values
    best = 0
    for i in range(1, len(q_values)):
        if q_values[i] > q_values[best]:
            best = i
    return candidates[best].action, q_values


# ---------------------------------------------------------------------------
# reward shaping
# ---------------------------------------------------------------------------


def shape_reward(
    outcome: StepOutcome,
    props_before: PropositionSet,
    visited_before: frozenset[int],
    entry_direction_before: str | None,
    action: Action,
    difficulty: str,
    bonus_coefficient: float = 1.0,
) -> float:
    """Quest reward plus exploration shaping. Invalid actions earn exactly 0."""
    if not outcome.action_valid:
        return 0.0
    reward = outcome.quest_reward
    if action.verb == "go" and outcome.room_id not in visited_before:
        reward += bonus_coefficient
    if (
        difficulty in ("medium", "hard")
        and action.verb == "go"
        and entry_direction_before is not None
        and action.noun == entry_direction_before
        and props_before.all_visited
    ):
        reward += bonus_coefficient
    return reward


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


@dataclass
class Transition:
    action: Action
    category: str | None                     # grounding category of the chosen candidate
    facts: np.ndarray | None
    reward: float                            # shaped
    next_candidates: tuple[tuple[str, np.ndarray], ...]  # (category, facts) at t+1
    terminal: bool
    # inputs of the 26-input baseline scorer
    props_vec: np.ndarray | None = field(repr=False, default=None)
    next_props_vec: np.ndarray | None = field(repr=False, default=None)
    action_index: int = -1


class ReplayBuffer:
    """Two FIFO pools; transitions with reward > 0 go to the prioritized pool."""

    def __init__(self, capacity: int = 500_000, priority_fraction: float = 0.25):
        prioritized_cap = max(1, int(capacity * priority_fraction))
        self.priority_fraction = priority_fraction
        self.prioritized: deque[Transition] = deque(maxlen=prioritized_cap)
        self.ordinary: deque[Transition] = deque(maxlen=max(1, capacity - prioritized_cap))

    def __len__(self) -> int:
        return len(self.prioritized) + len(self.ordinary)

    def push(self, transition: Transition) -> None:
        if transition.reward > 0:
            self.prioritized.append(transition)
        else:
            self.ordinary.append(transition)

    def sample(self, batch_size: int, rng: random.Random) -> list[Transition]:
        if len(self) == 0:
            raise ValueError("cannot sample from an empty replay buffer")
        want_prioritized = round(batch_size * self.priority_fraction)
        batch: list[Transition] = []
        for i in range(batch_size):
            use_prioritized = i < want_prioritized
            pool = self.prioritized if use_prioritized else self.ordinary
            if not pool:
                pool = self.ordinary if use_prioritized else self.prioritized
            batch.append(pool[rng.randrange(len(pool))])
        return batch


# ---------------------------------------------------------------------------
# TD targets
# ---------------------------------------------------------------------------


def td_target(transition: Transition, target, gamma: float) -> float:
    """clamp01(r) at terminals, else clamp01(r + gamma * the target scorer's best next q)."""
    if transition.terminal:
        return float(np.clip(transition.reward, 0.0, 1.0))
    return float(np.clip(transition.reward + gamma * target.best_next(transition), 0.0, 1.0))


# ---------------------------------------------------------------------------
# network construction
# ---------------------------------------------------------------------------


def fresh_networks(config: TrainerConfig) -> dict[str, LnnNetwork]:
    truth = TruthConfig(alpha=config.alpha)
    return {
        category: LnnNetwork(
            category=category,
            literals=CATEGORY_LITERALS[category],
            verb=verb,
            config=truth,
            gate_cap=config.gate_cap,
        )
        for category, verb in CATEGORY_VERBS.items()
    }


def scripted_rule_networks(alpha: float = 0.75) -> dict[str, LnnNetwork]:
    """Networks wired by hand to the known-good policy, for oracle play.

    Take when the coin is in sight; go toward a not-yet-visited exit; and
    from a fully explored room, go back the way you first came in. The
    direction OR bias sits above 1 so direction scores stay strictly below
    the take score when both fire in the coin room.
    """
    truth = TruthConfig(alpha=alpha)

    def wired(category: str, or_bias: float, *gates: tuple[str, ...]) -> LnnNetwork:
        net = LnnNetwork(category, CATEGORY_LITERALS[category], CATEGORY_VERBS[category],
                         truth, or_bias=or_bias)
        net.and_gates = []
        net.or_root.weights = np.array([], dtype=np.float64)
        for literals in gates:
            net.add_and_gate([1.0 if name in literals else 0.0 for name in net.literals])
        return net

    return {
        "money": wired("money", 1.0, ("find_x",)),
        "direction": wired("direction", 1.25, ("find_x", "not_visited_x", "not_initial_x"),
                           ("find_x", "all_visited", "initial_x")),
    }


# ---------------------------------------------------------------------------
# the trainer and the logic-network scorer
# ---------------------------------------------------------------------------


class DqnAgent:
    """Replay, TD regression, one Adam and target snapshots over a scorer.

    The scorer supplies `choose(props, candidates, epsilon, rng)`;
    `q(transition)`, which is None for a transition it does not learn from;
    `best_next(transition)`; `transition_gradients(transition, upstream)`;
    `parameters()` and `snapshot()`, keyed and copied so one optimizer and
    one target cover all of it; and the hooks `before_batch(batch)` and
    `after_step()`.
    """

    def __init__(self, config: TrainerConfig, scorer, replay_rng: random.Random):
        self.config = config
        self.scorer = scorer
        self.target = scorer.snapshot()
        self.optimizer = AdamOptimizer(learning_rate=config.learning_rate)
        self.buffer = ReplayBuffer(config.replay_capacity, config.priority_fraction)
        self.replay_rng = replay_rng
        self.env_steps = 0
        self.optimizer_steps = 0

    def choose(self, props: PropositionSet, candidates: list[Candidate],
               epsilon: float, rng: random.Random) -> tuple[Action, list[float]]:
        return self.scorer.choose(props, candidates, epsilon, rng)

    def observe(self, transition: Transition) -> None:
        self.buffer.push(transition)
        self.env_steps += 1
        if self.env_steps % self.config.update_period == 0:
            self.train_step()

    def train_step(self, rng: random.Random | None = None) -> float:
        """One sampled batch: Q-regression, one optimizer step, target refresh."""
        if len(self.buffer) == 0:
            raise ValueError("train_step requires a non-empty replay buffer")
        batch = self.buffer.sample(self.config.batch_size, rng or self.replay_rng)
        self.scorer.before_batch(batch)

        grads: dict[str, np.ndarray] = {}
        total_loss = 0.0
        for transition in batch:
            q = self.scorer.q(transition)
            if q is None:
                continue
            error = q - td_target(transition, self.target, self.config.gamma)
            total_loss += error * error
            upstream = 2.0 * error / len(batch)
            for name, g in self.scorer.transition_gradients(transition, upstream).items():
                grads[name] = grads[name] + g if name in grads else g

        self.optimizer.step(self.scorer.parameters(), grads)
        self.scorer.after_step()
        self.optimizer_steps += 1
        if self.optimizer_steps % self.config.target_update_period == 0:
            self.target = self.scorer.snapshot()
        return total_loss / len(batch)

    def parameter_checksum(self) -> float:
        return sum(float(np.sum(a)) + float(np.sum(np.abs(a)))
                   for a in self.scorer.parameters().values())


class LnnScorer:
    """Per-category logic networks; parameters are keyed `<category>.<name>`."""

    def __init__(self, nets: dict[str, LnnNetwork]):
        self.nets = nets

    def choose(self, props: PropositionSet, candidates: list[Candidate],
               epsilon: float, rng: random.Random) -> tuple[Action, list[float]]:
        return select_action(candidates, self.nets, epsilon, rng)

    def q(self, transition: Transition) -> float | None:
        if transition.category is None:
            return None
        return self.nets[transition.category].forward(transition.facts)[0]

    def best_next(self, transition: Transition) -> float:
        # no next candidate leaves nothing to bootstrap from
        return max((self.nets[category].forward(facts)[0]
                    for category, facts in transition.next_candidates), default=0.0)

    def transition_gradients(self, transition: Transition, upstream: float) -> dict[str, np.ndarray]:
        grads = self.nets[transition.category].gradients(transition.facts, upstream)
        return {f"{transition.category}.{name}": g for name, g in grads.items()}

    def parameters(self) -> dict[str, np.ndarray]:
        return {f"{category}.{name}": p
                for category, net in self.nets.items()
                for name, p in net.parameters().items()}

    def snapshot(self) -> "LnnScorer":
        return copy.deepcopy(self)

    def before_batch(self, batch: list[Transition]) -> None:
        # induction first so the fresh gate participates in this update
        for transition in batch:
            if transition.reward < 1.0 or transition.category is None:
                continue
            net = self.nets[transition.category]
            _, trace = net.forward(transition.facts)
            if trace.and_out.size and np.max(trace.and_out) >= net.config.alpha:
                continue
            try:
                net.add_and_gate(transition.facts)
            except GateCapReached:
                pass

    def after_step(self) -> None:
        # weights and biases stay nonnegative; OR weights additionally stay <= 1
        # so a lone matching gate cannot pin its score to the upper clamp
        for net in self.nets.values():
            for gate in net.and_gates:
                np.clip(gate.weights, 0.0, None, out=gate.weights)
                gate.bias[...] = max(float(gate.bias), 0.0)
            np.clip(net.or_root.weights, 0.0, 1.0, out=net.or_root.weights)
            net.or_root.bias[...] = max(float(net.or_root.bias), 0.0)


class LnnAgent(DqnAgent):
    """The trainer over logic networks, fresh unless `nets` are given."""

    def __init__(self, config: TrainerConfig, run_seed: int = 0,
                 nets: dict[str, LnnNetwork] | None = None):
        self.nets = nets if nets is not None else fresh_networks(config)
        super().__init__(config, LnnScorer(self.nets), substream("replay-sampling", run_seed))


# ---------------------------------------------------------------------------
# episode loop
# ---------------------------------------------------------------------------


@dataclass
class EpisodeReport:
    quest_reward: float
    steps: int
    trace: list[str] = field(default_factory=list)


def run_episode(
    graph: RoomGraph,
    agent,
    lexicon: LexiconTable,
    *,
    mode: str = "eval",
    epsilon: float = 0.0,
    rng: random.Random | None = None,
    collect_trace: bool = False,
    epoch: int = 0,
) -> EpisodeReport:
    """Full observe/parse/ground/select/step loop for one episode.

    mode="train" stores transitions with the agent (the agent trains itself
    on its update period); mode="eval" is read-only and always greedy.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    rng = rng or random.Random(0)
    eps = epsilon if mode == "train" else 0.0

    state, observation = reset(graph)
    agent_map = AgentMap.start(state.room)
    parsed = parse_observation(observation)
    props = extract_propositions(parsed, agent_map)
    candidates = enumerate_candidates(props, lexicon)

    bonus = agent.config.bonus_coefficient
    quest_total = 0.0
    trace: list[str] = []

    while not state.done:
        action, q_values = agent.choose(props, candidates, eps, rng)
        visited_before = frozenset(agent_map.visited)
        entry_before = agent_map.entry_direction.get(agent_map.current)
        props_before = props

        outcome = step(state, action)
        reward = shape_reward(
            outcome, props_before, visited_before, entry_before,
            action, graph.difficulty, bonus,
        )
        quest_total += outcome.quest_reward

        if outcome.action_valid and action.verb == "go":
            agent_map.record_move(action.noun, outcome.room_id)

        next_parsed = parse_observation(outcome.observation)
        next_props = extract_propositions(next_parsed, agent_map)
        next_candidates = enumerate_candidates(next_props, lexicon)

        if collect_trace:
            qs = " ".join(f"{q:.3f}" for q in q_values)
            trace.append(
                f"epoch={epoch} step={state.steps} facts={props_before.bitstring()} "
                f"action={action} q=[{qs}] reward={reward:.2f}"
            )

        if mode == "train":
            chosen = next((c for c in candidates if c.action == action), None)
            transition = Transition(
                action=action,
                category=chosen.category if chosen else None,
                facts=chosen.facts.values if chosen else None,
                reward=reward,
                next_candidates=tuple((c.category, c.facts.values) for c in next_candidates),
                terminal=outcome.done,
                props_vec=props_before.as_vector(),
                next_props_vec=next_props.as_vector(),
                action_index=ACTION_INDEX[action],
            )
            agent.observe(transition)

        props = next_props
        candidates = next_candidates

    return EpisodeReport(quest_reward=quest_total, steps=state.steps, trace=trace)
