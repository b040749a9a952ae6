"""DQN-style training of per-category logic-network policies.

Each step the agent grounds one candidate action per (category, noun) pair
the lexicon supports — four `go` directions plus `take coin` — and acts
epsilon-greedily: an exploring step draws a uniform candidate and scores
nothing; a greedy step in a state not yet scored since the parameters last
changed scores every candidate with its category's network, and one in a
state already scored reads that choice back from the scorer's `Memo`.
Rewards are shaped from the step's facts, in the literals the direction
rules read: a discovery bonus on ¬⟨visited x⟩ and, on medium/hard maps, a
bonus on ⟨initial x⟩ ∧ ⟨all are visited⟩ for backing out of a fully
explored room the way it came in.

`DqnAgent` is the one trainer: Q-regression against a periodically
refreshed target snapshot, one Adam over the scorer's parameter buffers,
and a two-pool replay buffer that keeps reward-bearing transitions sampled
at a fixed fraction of every batch. It drives any scorer; `LnnScorer` holds the
logic networks and the MLP baseline's scorer lives in `baseline.py`.

Gate induction: every sampled transition that carried reward >= 1 hands the
chosen candidate's forward pass to its category network's `induce`, which
appends a gate seeded from those facts unless a gate already fires on them
or the bank is full.
"""

from __future__ import annotations

import copy
import math
import random
import struct
from collections import deque
from collections.abc import Callable
from typing import TextIO

from .factextract import (
    CATEGORY_LITERALS,
    CATEGORY_VERBS,
    AgentMap,
    Candidate,
    ParsedObservation,
    PropositionSet,
    extract_propositions,
    ground_facts,
    parse_observation,
)
from .lexicon import LexiconTable
from .lnn import DEFAULT_ALPHA, DEFAULT_GATE_CAP, LnnNetwork, check_alpha, clamp01
from .optim import AdamOptimizer
from .records import Frozen, parameters, same_fields, set_fields
from .rng import substream
from .worldsim import (
    Action,
    RoomGraph,
    RoomId,
    StepOutcome,
    render_observation,
    start_episode,
    step,
)


class TrainerConfig(Frozen):
    """The trainer's settings, checked when made (a fault raises ValueError).
    The parameters of `__init__` are the fields, in the order and with the
    defaults `config.txt` writes; configs are equal when every field is."""

    def __init__(
        self,
        gamma: float = 0.9,
        batch_size: int = 4,
        update_period: int = 4,              # environment steps between gradient updates
        epsilon_start: float = 1.0,
        epsilon_end: float = 0.2,
        epsilon_anneal_epochs: int = 1000,
        bonus_coefficient: float = 1.0,
        learning_rate: float = 1e-3,
        replay_capacity: int = 500_000,
        priority_fraction: float = 0.25,
        target_update_period: int = 100,     # optimizer steps between target refreshes
        alpha: float = DEFAULT_ALPHA,
        gate_cap: int = DEFAULT_GATE_CAP,
    ) -> None:
        set_fields(self, locals())
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0, 1), got {self.gamma}")
        for name in ("batch_size", "update_period", "epsilon_anneal_epochs",
                     "replay_capacity", "target_update_period", "gate_cap"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.priority_fraction <= 1.0:
            raise ValueError("priority_fraction must lie in [0, 1]")
        for name in ("epsilon_start", "epsilon_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        # zero is legal for both: a frozen learner, an unshaped reward
        for name in ("learning_rate", "bonus_coefficient"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        # the networks' own check, run now so a bad alpha fails before any output
        check_alpha(self.alpha)

    __slots__ = parameters(__init__)
    __eq__ = same_fields


def epsilon_at(epoch: int, config: TrainerConfig) -> float:
    """Linear anneal from epsilon_start to epsilon_end, flat afterwards."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    frac = min(epoch, config.epsilon_anneal_epochs) / config.epsilon_anneal_epochs
    return config.epsilon_start + (config.epsilon_end - config.epsilon_start) * frac


# ---------------------------------------------------------------------------
# candidates and action selection
# ---------------------------------------------------------------------------


def enumerate_candidates(props: PropositionSet, lexicon: LexiconTable) -> tuple[Candidate, ...]:
    """One grounded candidate per (category, noun) pair the lexicon supports
    (`lexicon.pairs`), nouns in `NOUNS` order (directions NESW, then coin).

    The tuple is built once per (props, pairs) and kept on the props record,
    so a state that recurs hands back the very tuple the logic scorer's
    greedy memo is keyed on."""
    memo = props.candidates_memo
    candidates = memo.get(lexicon.pairs)
    if candidates is None:
        candidates = memo[lexicon.pairs] = tuple(
            [ground_facts(props, category, noun) for category, noun in lexicon.pairs])
    return candidates


def explore(n: int, epsilon: float, rng: random.Random) -> int | None:
    """The draw of epsilon-greedy over n actions, made before anything is
    scored: with probability epsilon a uniform index, else None, and the
    caller scores and takes `greedy`. Epsilon 0 draws nothing from `rng`."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return rng.randrange(n)
    return None


def greedy(q_values: list[float]) -> int:
    """The index of the highest q; exact ties go to the earliest index."""
    return q_values.index(max(q_values))


def select_action(
    candidates: tuple[Candidate, ...],
    nets: dict[str, LnnNetwork],
    epsilon: float,
    rng: random.Random,
) -> tuple[Action, list[float] | None]:
    """Epsilon-greedy over the candidates; the q values are None when the step explored.

    `nets` maps each category to its network; every greedy call runs a fresh
    forward pass per candidate. The scorers keep their own memo instead.
    """
    if not candidates:
        raise ValueError("select_action needs at least one candidate")
    index = explore(len(candidates), epsilon, rng)
    if index is not None:
        return candidates[index].action, None
    q_values = [nets[c.category].forward(c.values)[0] for c in candidates]
    return candidates[greedy(q_values)].action, q_values


# ---------------------------------------------------------------------------
# reward shaping
# ---------------------------------------------------------------------------


def shape_reward(
    outcome: StepOutcome,
    props_before: PropositionSet,
    action: Action,
    difficulty: str,
    bonus_coefficient: float,
) -> float:
    """Quest reward plus exploration shaping, read from the facts before the
    step. Invalid actions earn exactly 0. A valid `go x` earns the bonus on
    ¬⟨visited x⟩, and on medium/hard maps again on ⟨initial x⟩ ∧ ⟨all are
    visited⟩: backing out of a fully explored room the way it came in.

    Every map is a tree, so the agent has visited the room behind x exactly
    when it walked that edge, which the facts record."""
    if not outcome.action_valid:
        return 0.0
    reward = outcome.quest_reward
    if action.verb == "go":
        if not props_before.visited_dir[action.noun]:
            reward += bonus_coefficient
        if (difficulty in ("medium", "hard") and props_before.initial_dir[action.noun]
                and props_before.all_visited):
            reward += bonus_coefficient
    return reward


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


class Transition(Frozen):
    """One stored step: the shared, read-only records `choose` saw before and
    after it. Each scorer reads its own inputs from them.

    `chosen` is the candidate whose action was taken, for a scorer that reads
    candidates (the logic networks), recorded once when the step is stored;
    None for one that reads actions (the MLP).

    A record is read-only and may stand for many steps: `ReplayBuffer.push`
    keeps one record per distinct transition, and its pools hold references
    to it."""

    __slots__ = ("props", "action", "reward", "terminal", "next_props", "next_candidates", "chosen")

    def __init__(self, props: PropositionSet, action: Action, reward: float, terminal: bool,
                 next_props: PropositionSet, next_candidates: tuple[Candidate, ...],
                 chosen: Candidate | None = None) -> None:
        object.__setattr__(self, "props", props)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "reward", reward)   # shaped
        object.__setattr__(self, "terminal", terminal)
        object.__setattr__(self, "next_props", next_props)
        object.__setattr__(self, "next_candidates", next_candidates)
        object.__setattr__(self, "chosen", chosen)


_REWARD_BITS = struct.Struct("<d").pack


class ReplayBuffer:
    """Two FIFO pools; transitions with reward > 0 go to the prioritized pool.

    A run keeps revisiting a few states, so most steps repeat an earlier
    transition, and each pool holds a reference per step to one kept record
    per distinct transition. `kept` finds it: `id(props) -> {(id(action),
    id(next_props), id(next_candidates), id(chosen), terminal, reward's
    bits): record}`. Records are keyed by identity, as in `Memo`, and each
    entry holds its record, which holds every keyed object, so an id cannot
    be reused while its entry stands. The reward is keyed by its bits, so
    +0.0 and -0.0 stay apart. An equal key means an equal transition, so the
    pools read exactly as if each step were its own record. `kept` lives as
    long as the buffer and grows with the distinct transitions, which are
    few: every state is one shared record per truth assignment.
    """

    def __init__(self, capacity: int, priority_fraction: float):
        prioritized_cap = max(1, int(capacity * priority_fraction))
        self.priority_fraction = priority_fraction
        self.prioritized: deque[Transition] = deque(maxlen=prioritized_cap)
        self.ordinary: deque[Transition] = deque(maxlen=max(1, capacity - prioritized_cap))
        self.kept: dict[int, dict[tuple, Transition]] = {}

    def __len__(self) -> int:
        return len(self.prioritized) + len(self.ordinary)

    def push(self, transition: Transition) -> None:
        t = transition
        key = (id(t.action), id(t.next_props), id(t.next_candidates), id(t.chosen),
               t.terminal, _REWARD_BITS(t.reward))
        by_props = self.kept.get(id(t.props))
        if by_props is None:
            by_props = self.kept[id(t.props)] = {}
        record = by_props.setdefault(key, t)
        if record.reward > 0:
            self.prioritized.append(record)
        else:
            self.ordinary.append(record)

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
    y = transition.reward
    if not transition.terminal:
        y = y + gamma * target.best_next(transition)
    return float(clamp01(y))


# ---------------------------------------------------------------------------
# network construction
# ---------------------------------------------------------------------------


def fresh_networks(config: TrainerConfig) -> dict[str, LnnNetwork]:
    return {
        category: LnnNetwork(
            category=category,
            literals=CATEGORY_LITERALS[category],
            verb=verb,
            alpha=config.alpha,
            gate_cap=config.gate_cap,
        )
        for category, verb in CATEGORY_VERBS.items()
    }


def scripted_rule_networks() -> dict[str, LnnNetwork]:
    """Networks wired by hand to the known-good policy, for oracle play.

    Take when the coin is in sight; go toward a not-yet-visited exit; and
    from a fully explored room, go back the way you first came in: one gate
    per rule, laid out once. The direction OR bias sits above 1 so direction
    scores stay strictly below the take score when both fire in the coin room.
    """
    def wired(category: str, or_bias: float, *rules: tuple[str, ...]) -> LnnNetwork:
        literals = CATEGORY_LITERALS[category]
        rows = [([1.0 if name in rule else 0.0 for name in literals], 1.0, 1.0) for rule in rules]
        return LnnNetwork(category, literals, CATEGORY_VERBS[category], rows=rows, or_bias=or_bias)

    return {
        "money": wired("money", 1.0, ("find_x",)),
        "direction": wired("direction", 1.25, ("find_x", "not_visited_x", "not_initial_x"),
                           ("find_x", "all_visited", "initial_x")),
    }


# ---------------------------------------------------------------------------
# the trainer and the logic-network scorer
# ---------------------------------------------------------------------------


class DqnAgent:
    """Replay, TD regression, one Adam and target copies over a scorer.

    The scorer supplies `choose(props, candidates, epsilon, rng)`, returning
    the action and its q values, or None when the step explored;
    `chosen(candidates, action)`, the `Transition.chosen` it reads;
    `q(transition)`, a float for every transition its `choose` produced;
    `best_next(transition)`; `batch_gradients(batch, upstreams)`, the
    gradient of `sum_i upstreams[i] * q(batch[i])` as one vector per key,
    from the passes its memo kept; `parameters()`, the vectors one optimizer
    steps (lists of floats, or float64 arrays), keyed as the gradients are,
    each of which may grow only at its end; and hooks `before_batch(batch)`
    and `after_step(stepped)`, given the keys that were stepped. Each reads
    its own inputs from the shared `Transition`. The target, a deep copy of
    the scorer, is retaken every `target_update_period` optimizer steps.

    The replay, the target and the optimizer's moments serve training only;
    a finished run keeps the trained `scorer` and drops the agent.
    """

    def __init__(self, config: TrainerConfig, scorer, replay_rng: random.Random):
        self.config = config
        self.scorer = scorer
        self.target = copy.deepcopy(scorer)
        self.optimizer = AdamOptimizer(config.learning_rate)
        self.buffer = ReplayBuffer(config.replay_capacity, config.priority_fraction)
        self.replay_rng = replay_rng
        self.env_steps = 0
        self.optimizer_steps = 0

    def choose(self, props: PropositionSet, candidates: tuple[Candidate, ...],
               epsilon: float, rng: random.Random) -> tuple[Action, list[float] | None]:
        return self.scorer.choose(props, candidates, epsilon, rng)

    def chosen(self, candidates: tuple[Candidate, ...], action: Action) -> Candidate | None:
        return self.scorer.chosen(candidates, action)

    def observe(self, transition: Transition) -> None:
        self.buffer.push(transition)
        self.env_steps += 1
        if self.env_steps % self.config.update_period == 0:
            self.train_step()

    def train_step(self) -> float:
        """One sampled batch: every TD error in batch order, then one gradient
        call for the batch, one optimizer step and the target refresh.

        A non-finite TD loss means the run has diverged: ValueError, naming
        the optimizer step (counted from 1), before any gradient or step."""
        batch = self.buffer.sample(self.config.batch_size, self.replay_rng)
        self.scorer.before_batch(batch)

        upstreams = []
        total_loss = 0.0
        for transition in batch:
            error = self.scorer.q(transition) - td_target(transition, self.target, self.config.gamma)
            total_loss += error * error
            upstreams.append(2.0 * error / len(batch))
        if not math.isfinite(total_loss):
            raise ValueError(f"TD loss is non-finite at optimizer step {self.optimizer_steps + 1}")
        grads = self.scorer.batch_gradients(batch, upstreams)

        self.optimizer.step(self.scorer.parameters(), grads)
        self.scorer.after_step(grads.keys())
        self.optimizer_steps += 1
        if self.optimizer_steps % self.config.target_update_period == 0:
            self.target = copy.deepcopy(self.scorer)
        return total_loss / len(batch)


class Memo(dict):
    """A scorer's values per shared, read-only record, `id(record) ->
    (record, value)`, each computed once while the parameters stand.

    The records are the ones every step shares: a candidate's `values` tuple
    or a state's 26-vector (value: `forward`'s `(q, trace)`), and a candidate
    tuple or props record (value: the greedy `(action, q_values)`). Records
    are keyed by identity, never hashed by value (an array cannot be, and a
    tuple's hash would read every value), and each entry holds its record, so
    an id cannot be reused while its entry stands. Whoever changes the
    parameters calls `clear`, so an entry equals a fresh pass bit for bit.
    Callers must not write into a value, which later lookups share.

    A deep copy shares the entries: they are exact for the copied parameters,
    and a record is never deep-copied.
    """

    def of(self, record, compute: Callable):
        """The kept value for `record`, else `compute(record)`, kept."""
        entry = self.get(id(record))
        if entry is None or entry[0] is not record:
            entry = self[id(record)] = (record, compute(record))
        return entry[1]

    def __deepcopy__(self, memo) -> "Memo":
        return Memo(self)


class LnnScorer:
    """Per-category logic networks; the optimizer steps each network's
    buffer, keyed by its category.

    All scoring goes through `memo`: a forward pass per candidate `values`
    tuple (facts are crisp, so one shared tuple per category and truth
    assignment), a greedy choice per candidate tuple. It is emptied after
    every optimizer step and whenever induction adds a gate. Replay reads the
    next candidates and the chosen one, which `choose` always acted through;
    the target's memo keeps each next state's greedy choice until the next
    refresh, since the target's parameters stand until then. A batch's
    gradient is each transition's network gradient, one list in its
    buffer's layout, summed element by element per category in batch order.
    """

    def __init__(self, nets: dict[str, LnnNetwork]):
        self.nets = nets
        self.memo = Memo()

    def _forward(self, candidate: Candidate) -> tuple:
        return self.memo.of(candidate.values, self.nets[candidate.category].forward)

    def _greedy(self, candidates: tuple[Candidate, ...]) -> tuple[Action, list[float]]:
        q_values = [self._forward(c)[0] for c in candidates]
        return candidates[greedy(q_values)].action, q_values

    def choose(self, props: PropositionSet, candidates: tuple[Candidate, ...],
               epsilon: float, rng: random.Random) -> tuple[Action, list[float] | None]:
        index = explore(len(candidates), epsilon, rng)
        if index is not None:
            return candidates[index].action, None
        action, q_values = self.memo.of(candidates, self._greedy)
        return action, list(q_values)

    def chosen(self, candidates: tuple[Candidate, ...], action: Action) -> Candidate:
        # `choose` acted through a candidate's own action object
        for candidate in candidates:
            if candidate.action is action:
                return candidate
        raise ValueError(f"no candidate proposed {action}")

    def q(self, transition: Transition) -> float:
        return self._forward(transition.chosen)[0]

    def best_next(self, transition: Transition) -> float:
        candidates = transition.next_candidates
        if not candidates:
            return 0.0       # nothing to bootstrap from
        return max(self.memo.of(candidates, self._greedy)[1])

    def batch_gradients(self, batch: list[Transition], upstreams: list[float]) -> dict[str, list[float]]:
        # one list per transition (its network's whole gradient), summed per
        # category in batch order
        grads: dict[str, list[float]] = {}
        for transition, upstream in zip(batch, upstreams):
            chosen = transition.chosen
            g = self.nets[chosen.category].gradients(self._forward(chosen)[1], upstream)
            total = grads.get(chosen.category)
            grads[chosen.category] = g if total is None else [a + b for a, b in zip(total, g)]
        return grads

    def parameters(self) -> dict[str, list[float]]:
        return {category: net.buffer for category, net in self.nets.items()}

    def before_batch(self, batch: list[Transition]) -> None:
        # induction first so the fresh gate participates in this update
        for transition in batch:
            if transition.reward < 1.0:
                continue
            chosen = transition.chosen
            if self.nets[chosen.category].induce(self._forward(chosen)[1]) is not None:
                self.memo.clear()

    def after_step(self, stepped) -> None:
        # a network that was not stepped is still in its domain
        for category in stepped:
            self.nets[category].project()
        self.memo.clear()


class LnnAgent(DqnAgent):
    """The trainer over fresh logic networks."""

    def __init__(self, config: TrainerConfig, run_seed: int = 0):
        super().__init__(config, LnnScorer(fresh_networks(config)),
                         substream("replay-sampling", run_seed))


# ---------------------------------------------------------------------------
# episode loop
# ---------------------------------------------------------------------------


def read_room(graph: RoomGraph, room: RoomId) -> ParsedObservation:
    """The room's parsed text from the graph's memo, rendered and parsed on
    the first read only."""
    parsed = graph.readings.get(room)
    if parsed is None:
        parsed = graph.readings[room] = parse_observation(render_observation(graph, room))
    return parsed


class EpisodeReport:
    """One episode's quest reward and step count; reports are equal when both are."""

    __slots__ = ("quest_reward", "steps")

    def __init__(self, quest_reward: float, steps: int) -> None:
        self.quest_reward = quest_reward
        self.steps = steps

    __eq__ = same_fields


def run_episode(
    graph: RoomGraph,
    agent,
    lexicon: LexiconTable,
    *,
    mode: str = "eval",
    epsilon: float = 0.0,
    rng: random.Random | None = None,
    trace: TextIO | None = None,
    epoch: int = 0,
) -> EpisodeReport:
    """Full observe/parse/ground/select/step loop for one episode.

    mode="train" shapes each step's reward from the facts before it and
    stores the transition through the agent's `chosen` and `observe` (it
    trains itself on its update period). Given a text sink as `trace`, each
    training step first writes one line to it (epoch, step, facts, action,
    q values, shaped reward). mode="eval" is read-only and always greedy,
    reads only the agent's `choose`, shapes nothing and writes no trace: a
    `trace` with it raises ValueError before the first step.

    An evaluation asks `choose` once per state it enters: at the start, and
    after each step whose next `props` or `candidates` are not the very
    records it chose on. Its epsilon is 0 and its parameters are fixed, so
    `choose` draws nothing and returns a function of those two records; a
    step that records no move, or a move into a room with the same shared
    truth assignment, keeps the action. Every step still runs through `step`.
    Training asks on every step: epsilon draws from `rng`, and the parameters
    move every `update_period` steps.

    Each room is read once per graph. A step that records no move (an
    invalid action, or `take coin`) changes neither the room nor the
    `AgentMap`, so the current `props` and `candidates` stand as the next
    ones: the very records a fresh reading would return. A move, and the
    start, take the room's reading from `graph.readings`, rendering and
    parsing it only on the room's first entry in any episode on this graph,
    then extract afresh, because the map changed, and enumerate: a lookup
    once the state has been seen.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if trace is not None and mode != "train":
        raise ValueError("only a training episode writes a trace")
    rng = rng or random.Random(0)
    eps = epsilon if mode == "train" else 0.0

    state = start_episode(graph)
    agent_map = AgentMap.start(state.room)
    props = extract_propositions(read_room(graph, state.room), agent_map)
    candidates = enumerate_candidates(props, lexicon)

    quest_total = 0.0
    keep = False

    while not state.done:
        if not keep:
            action, q_values = agent.choose(props, candidates, eps, rng)

        outcome = step(state, action)
        quest_total += outcome.quest_reward

        next_props, next_candidates = props, candidates
        if outcome.action_valid and action.verb == "go":
            agent_map.record_move(action.noun, outcome.room_id)
            next_props = extract_propositions(read_room(graph, outcome.room_id), agent_map)
            next_candidates = enumerate_candidates(next_props, lexicon)

        if mode == "train":
            reward = shape_reward(outcome, props, action, graph.difficulty,
                                  agent.config.bonus_coefficient)
            if trace is not None:
                if q_values is None:
                    # an exploring step scored nothing; epsilon 0 scores and draws nothing
                    q_values = agent.choose(props, candidates, 0.0, rng)[1]
                qs = " ".join(f"{q:.3f}" for q in q_values)
                trace.write(
                    f"epoch={epoch} step={state.steps} facts={props.bitstring()} "
                    f"action={action} q=[{qs}] reward={reward:.2f}\n"
                )
            agent.observe(Transition(props, action, reward, outcome.done,
                                     next_props, next_candidates,
                                     agent.chosen(candidates, action)))

        # a greedy choice with fixed parameters is a function of the records
        # it was made on, so an eval keeps it while they stand
        keep = mode == "eval" and next_props is props and next_candidates is candidates
        props = next_props
        candidates = next_candidates

    return EpisodeReport(quest_reward=quest_total, steps=state.steps)
