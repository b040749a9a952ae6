"""Procedural coin-collector world: map generation and a deterministic step engine.

A game is a connected set of rooms on an integer grid. The optimal path is a
seeded self-avoiding walk whose length defines the game level (minimum number
of moves from the start room to the room holding the coin). Difficulty decides
how many dead-end distractor rooms hang off each path room:

    easy    no distractors, the map is exactly the path
    medium  one distractor per path room (coin room excluded)
    hard    two distractors per path room (coin room excluded)

Observations are templated English with three surface forms per sentence so a
parser cannot get away with matching a single fixed string. Rendering and
stepping are pure functions of the generated graph, which makes full-episode
replays reproducible. `step` renders nothing: a `StepOutcome` renders its
room's text only when its `observation` is read. A room's text, and so its
reading, is a function of (graph, room) alone, so each `RoomGraph` keeps a
memo of the readings made of its rooms, which lives and dies with the graph.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .numtext import parse_int
from .rng import derive_seed, substream

# ---------------------------------------------------------------------------
# vocabulary and action space
# ---------------------------------------------------------------------------

DIRECTIONS: tuple[str, ...] = ("north", "east", "south", "west")
NOUNS: tuple[str, ...] = DIRECTIONS + ("coin",)
VERBS: tuple[str, ...] = ("go", "take")
DIFFICULTIES: tuple[str, ...] = ("easy", "medium", "hard")

OPPOSITE = {"north": "south", "south": "north", "east": "west", "west": "east"}

# grid offsets for the 2-D embedding (x grows east, y grows north)
_OFFSET = {"north": (0, 1), "south": (0, -1), "east": (1, 0), "west": (-1, 0)}

DISTRACTORS_PER_ROOM = {"easy": 0, "medium": 1, "hard": 2}

DEFAULT_MAX_EPISODE_STEPS = 100

RoomId = int

if TYPE_CHECKING:
    from .factextract import ParsedObservation


@dataclass(frozen=True)
class Action:
    """A two-word command: verb in {go, take}, noun in {coin, north, east, south, west}."""

    verb: str
    noun: str

    def __post_init__(self) -> None:
        if self.verb not in VERBS:
            raise ValueError(f"unknown verb {self.verb!r}")
        if self.noun not in NOUNS:
            raise ValueError(f"unknown noun {self.noun!r}")

    def __str__(self) -> str:
        return f"{self.verb} {self.noun}"


#: All ten commands the agent can issue, in a fixed order (verb-major).
ALL_ACTIONS: tuple[Action, ...] = tuple(Action(v, n) for v in VERBS for n in NOUNS)


class WorldError(Exception):
    """Base class for world construction and stepping errors."""


class InvalidSpecError(WorldError):
    """The game spec violates its invariants."""


class GenerationError(WorldError):
    """No valid layout could be embedded for the requested spec."""


class EpisodeFinishedError(WorldError):
    """step() was called on an episode that already ended."""


# ---------------------------------------------------------------------------
# game spec
# ---------------------------------------------------------------------------


#: the keys `GameSpec.to_line` writes
_SPEC_LINE_KEYS = ("difficulty", "level", "seed", "max_steps")


@dataclass(frozen=True)
class GameSpec:
    difficulty: str
    level: int
    seed: int
    max_episode_steps: int = DEFAULT_MAX_EPISODE_STEPS

    def validate(self) -> None:
        if self.difficulty not in DIFFICULTIES:
            raise InvalidSpecError(f"difficulty must be one of {DIFFICULTIES}, got {self.difficulty!r}")
        if self.level < 1:
            raise InvalidSpecError(f"level must be >= 1, got {self.level}")
        if self.max_episode_steps < self.level + 1:
            raise InvalidSpecError(
                f"max_episode_steps={self.max_episode_steps} cannot fit an optimal "
                f"episode of level {self.level}"
            )

    def to_line(self) -> str:
        return (
            f"difficulty={self.difficulty} level={self.level} "
            f"seed={self.seed} max_steps={self.max_episode_steps}"
        )

    @classmethod
    def from_line(cls, line: str) -> "GameSpec":
        """The spec `to_line` wrote: each of its keys at most once, integers in
        their canonical form; `max_steps` may be left out for the default."""
        fields: dict[str, str] = {}
        for token in line.split():
            if "=" not in token:
                raise InvalidSpecError(f"bad spec token {token!r} in line {line!r}")
            key, value = token.split("=", 1)
            if key not in _SPEC_LINE_KEYS:
                raise InvalidSpecError(f"unknown field {key!r} in spec line {line!r}")
            if key in fields:
                raise InvalidSpecError(f"repeated field {key!r} in spec line {line!r}")
            fields[key] = value
        fields.setdefault("max_steps", str(DEFAULT_MAX_EPISODE_STEPS))
        for key in _SPEC_LINE_KEYS:
            if key not in fields:
                raise InvalidSpecError(f"missing field {key!r} in spec line {line!r}")
        spec = cls(
            difficulty=fields["difficulty"],
            level=_spec_int(fields, "level", line),
            seed=_spec_int(fields, "seed", line),
            max_episode_steps=_spec_int(fields, "max_steps", line),
        )
        spec.validate()
        return spec


def _spec_int(fields: dict[str, str], key: str, line: str) -> int:
    """`fields[key]` as an integer written as `str(int)` writes one."""
    raw = fields[key]
    try:
        return parse_int(raw)
    except ValueError:
        raise InvalidSpecError(
            f"field {key!r} must be an integer, got {raw!r} in spec line {line!r}") from None


# ---------------------------------------------------------------------------
# room names
# ---------------------------------------------------------------------------

# none of these words may contain a direction word or "coin" as a substring;
# the parser tests rely on direction words appearing only in exit sentences
_NAME_ADJECTIVES = (
    "Dusty", "Quiet", "Ancient", "Gloomy", "Bright", "Narrow", "Stately",
    "Humid", "Frosty", "Velvet", "Crooked", "Sunlit", "Shadowy", "Marble",
    "Ivy", "Hollow", "Amber", "Drafty", "Cluttered", "Silent",
)
_NAME_PLACES = (
    "Cellar", "Parlor", "Kitchen", "Library", "Attic", "Gallery", "Pantry",
    "Chapel", "Study", "Vault", "Solarium", "Armory", "Foyer", "Larder",
    "Scullery", "Workshop", "Archive", "Conservatory",
)

ROOM_NAME_BANK: tuple[str, ...] = tuple(
    f"{adj} {place}" for adj in _NAME_ADJECTIVES for place in _NAME_PLACES
)


# ---------------------------------------------------------------------------
# room graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RoomGraph:
    """Immutable generated map plus the spec metadata the engine needs.

    `readings` is the graph's one piece of state: a memo of parsed room
    texts that every episode on this graph shares.
    """

    difficulty: str
    level: int
    seed: int
    max_episode_steps: int
    rooms: tuple[RoomId, ...]
    names: dict[RoomId, str]
    exits: dict[tuple[RoomId, str], RoomId]
    start: RoomId
    coin_room: RoomId
    optimal_path: tuple[RoomId, ...]
    template_seed: int

    def open_exits(self, room: RoomId) -> tuple[str, ...]:
        return tuple(d for d in DIRECTIONS if (room, d) in self.exits)

    def degree(self, room: RoomId) -> int:
        return len(self.open_exits(room))

    @functools.cached_property
    def readings(self) -> dict[RoomId, "ParsedObservation"]:
        """Room id -> `parse_observation(render_observation(self, room))`,
        filled by `agent.run_episode` on a room's first entry in any episode
        on this graph. A room's text never changes, so neither does its
        reading; the memo is this graph's alone, even among equal graphs."""
        return {}


def _neighbors(cell: tuple[int, int]):
    x, y = cell
    return [(x + dx, y + dy) for dx, dy in _OFFSET.values()]


def _self_avoiding_walk(rng, length: int) -> list[tuple[int, int]] | None:
    """Random stiff self-avoiding walk of `length` steps, via DFS backtracking.

    Stiff: a new cell may touch no occupied cell except its predecessor. This
    keeps the walk from coiling against itself so every path room keeps its
    two perpendicular neighbor cells free for distractor attachment.
    """
    path = [(0, 0)]
    occupied = {(0, 0)}
    choice_stack: list[list[tuple[int, int]]] = []
    while len(path) <= length:
        if len(choice_stack) < len(path):
            head = path[-1]
            options = [
                c for c in _neighbors(head)
                if c not in occupied
                and all(n == head or n not in occupied for n in _neighbors(c))
            ]
            rng.shuffle(options)
            choice_stack.append(options)
        options = choice_stack[-1]
        if not options:
            # dead end: backtrack
            choice_stack.pop()
            occupied.discard(path.pop())
            if not path:
                return None
            continue
        cell = options.pop()
        path.append(cell)
        occupied.add(cell)
    return path


def _segmented_walk(rng, length: int) -> list[tuple[int, int]] | None:
    """Walk for fully saturated (hard) maps: straight, with optional turns
    only right after the first step and right before the last.

    A hard map gives every interior path room degree 4 (two path edges, two
    distractors), so any interior turn would make two saturated rooms compete
    for the shared elbow cell; turns are only embeddable at the two ends.
    """
    idx = {d: i for i, d in enumerate(DIRECTIONS)}

    def rot(d: str, k: int) -> str:
        return DIRECTIONS[(idx[d] + k) % 4]

    d0 = rng.choice(DIRECTIONS)
    turn_a = rng.choice((-1, 0, 1))
    turn_b = rng.choice((-1, 0, 1))

    mid = rot(d0, turn_a) if length >= 3 else d0
    headings = [d0] + [mid] * (length - 2) + ([rot(mid, turn_b)] if length >= 2 else [])

    path = [(0, 0)]
    for d in headings:
        dx, dy = _OFFSET[d]
        path.append((path[-1][0] + dx, path[-1][1] + dy))
    if len(set(path)) != len(path):
        return None
    # keep non-consecutive rooms off each other's doorsteps
    for i, cell in enumerate(path):
        for n in _neighbors(cell):
            if n in path and abs(path.index(n) - i) != 1:
                return None
    return path


def _attach_distractors(
    rng, path: list[tuple[int, int]], per_room: int
) -> list[tuple[int, tuple[int, int]]] | None:
    """Assign `per_room` free neighbor cells to every path room except the last.

    Neighboring path rooms can compete for the same free cell, so this is a
    small bipartite matching: room slots on one side, candidate cells on the
    other, solved with augmenting paths. Candidate order per room is shuffled
    by the seeded generator, which is where the layout randomness comes from.
    Returns None when no full assignment exists (caller retries a new walk).
    """
    occupied = set(path)
    room_cells: list[list[tuple[int, int]]] = []
    for x, y in path[:-1]:
        free = [
            (x + _OFFSET[d][0], y + _OFFSET[d][1])
            for d in DIRECTIONS
            if (x + _OFFSET[d][0], y + _OFFSET[d][1]) not in occupied
        ]
        if len(free) < per_room:
            return None
        rng.shuffle(free)
        room_cells.append(free)

    slots = [(room, k) for room in range(len(room_cells)) for k in range(per_room)]
    match: dict[tuple[int, int], tuple[int, int]] = {}  # cell -> slot

    def augment(slot, visited) -> bool:
        room = slot[0]
        for cell in room_cells[room]:
            if cell in visited:
                continue
            visited.add(cell)
            if cell not in match or augment(match[cell], visited):
                match[cell] = slot
                return True
        return False

    for slot in slots:
        if not augment(slot, set()):
            return None

    by_slot = {slot: cell for cell, slot in match.items()}
    return [(slot[0], by_slot[slot]) for slot in slots]


_GENERATION_ATTEMPTS = 100


def generate_game(spec: GameSpec) -> RoomGraph:
    """Build the room graph for a spec. Deterministic in (difficulty, level, seed)."""
    spec.validate()
    rng = substream("game-gen", spec.difficulty, spec.level, spec.seed)
    per_room = DISTRACTORS_PER_ROOM[spec.difficulty]

    walk = _segmented_walk if spec.difficulty == "hard" else _self_avoiding_walk
    path = None
    distractors: list[tuple[int, tuple[int, int]]] = []
    for _ in range(_GENERATION_ATTEMPTS):
        candidate = walk(rng, spec.level)
        if candidate is None:
            continue
        if per_room == 0:
            path = candidate
            break
        attached = _attach_distractors(rng, candidate, per_room)
        if attached is not None:
            path, distractors = candidate, attached
            break
    if path is None:
        raise GenerationError(
            f"could not embed a {spec.difficulty} level-{spec.level} map on the grid "
            f"after {_GENERATION_ATTEMPTS} attempts (seed {spec.seed})"
        )

    # room ids: path rooms first (start..coin), then distractors in attachment order
    cells: list[tuple[int, int]] = list(path) + [cell for _, cell in distractors]
    cell_to_id = {cell: rid for rid, cell in enumerate(cells)}
    n = len(cells)

    exits: dict[tuple[RoomId, str], RoomId] = {}

    def connect(a_cell: tuple[int, int], b_cell: tuple[int, int]) -> None:
        a, b = cell_to_id[a_cell], cell_to_id[b_cell]
        for d, (dx, dy) in _OFFSET.items():
            if (a_cell[0] + dx, a_cell[1] + dy) == b_cell:
                exits[(a, d)] = b
                exits[(b, OPPOSITE[d])] = a
                return
        raise AssertionError("connect() called on non-adjacent cells")

    for a_cell, b_cell in zip(path, path[1:]):
        connect(a_cell, b_cell)
    for parent_idx, cell in distractors:
        connect(path[parent_idx], cell)

    names = dict(enumerate(rng.sample(ROOM_NAME_BANK, n)))

    return RoomGraph(
        difficulty=spec.difficulty,
        level=spec.level,
        seed=spec.seed,
        max_episode_steps=spec.max_episode_steps,
        rooms=tuple(range(n)),
        names=names,
        exits=exits,
        start=0,
        coin_room=spec.level,
        optimal_path=tuple(range(spec.level + 1)),
        template_seed=derive_seed("templates", spec.difficulty, spec.level, spec.seed),
    )


# ---------------------------------------------------------------------------
# observation rendering
# ---------------------------------------------------------------------------

ROOM_TEMPLATES = (
    "You are in the {name}.",
    "You have entered the {name}.",
    "This is the {name}.",
)
# (singular, plural) per surface form
EXIT_TEMPLATES = (
    ("There is an exit to the {dirs}.", "There are exits to the {dirs}."),
    ("You can head {dirs} from here.", "You can head {dirs} from here."),
    ("A doorway leads {dirs}.", "Doorways lead {dirs}."),
)
COIN_TEMPLATES = (
    "There is a coin on the floor.",
    "A coin glitters in the corner.",
    "You spot a coin lying here.",
)


def _template_index(template_seed: int, room: RoomId, slot: int) -> int:
    # cheap deterministic mix; must not rely on Python's salted hash()
    x = (template_seed ^ (room * 0x9E3779B97F4A7C15) ^ (slot * 0xBF58476D1CE4E5B9)) & 0xFFFFFFFFFFFFFFFF
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (x >> 32) % 3


def _join_directions(dirs: tuple[str, ...]) -> str:
    if len(dirs) == 1:
        return dirs[0]
    return ", ".join(dirs[:-1]) + " and " + dirs[-1]


def render_observation(graph: RoomGraph, room: RoomId) -> str:
    """Templated English naming the room, its open exits, and the coin if present."""
    if room not in graph.names:
        raise WorldError(f"room {room} not in graph")
    parts = [ROOM_TEMPLATES[_template_index(graph.template_seed, room, 0)].format(name=graph.names[room])]
    dirs = graph.open_exits(room)
    singular, plural = EXIT_TEMPLATES[_template_index(graph.template_seed, room, 1)]
    form = singular if len(dirs) == 1 else plural
    parts.append(form.format(dirs=_join_directions(dirs)))
    if room == graph.coin_room:
        parts.append(COIN_TEMPLATES[_template_index(graph.template_seed, room, 2)])
    return " ".join(parts)


# ---------------------------------------------------------------------------
# episode engine
# ---------------------------------------------------------------------------


@dataclass
class EpisodeState:
    """One episode in progress: where the agent is and the step count."""

    graph: RoomGraph
    room: RoomId
    steps: int = 0
    done: bool = False


class StepOutcome(NamedTuple):
    """What one step did. The room's text is rendered only when
    `observation` is read, so a step that nobody reads costs no rendering."""

    quest_reward: float
    done: bool
    room_id: RoomId
    action_valid: bool
    graph: RoomGraph

    @property
    def observation(self) -> str:
        """The text of the room the step ended in, rendered on each read."""
        return render_observation(self.graph, self.room_id)


def start_episode(graph: RoomGraph) -> EpisodeState:
    """Place the agent at the start room; nothing is rendered."""
    if not graph.rooms:
        raise WorldError("graph has no rooms")
    return EpisodeState(graph=graph, room=graph.start)


def reset(graph: RoomGraph) -> tuple[EpisodeState, str]:
    """Place the agent at the start room and render the opening observation."""
    state = start_episode(graph)
    return state, render_observation(graph, state.room)


def step(state: EpisodeState, action: Action) -> StepOutcome:
    """Apply one action. Invalid actions cost a step but never change the room.

    Nothing is rendered here; see `StepOutcome.observation`.
    """
    if state.done:
        raise EpisodeFinishedError("episode already finished")
    graph = state.graph
    state.steps += 1

    valid = False
    reward = 0.0
    if action.verb == "take" and action.noun == "coin" and state.room == graph.coin_room:
        valid = True
        reward = 1.0
        state.done = True
    elif action.verb == "go" and action.noun in DIRECTIONS:
        target = graph.exits.get((state.room, action.noun))
        if target is not None:
            valid = True
            state.room = target

    if not state.done and state.steps >= graph.max_episode_steps:
        state.done = True

    return StepOutcome(reward, state.done, state.room, valid, graph)


# ---------------------------------------------------------------------------
# debug export
# ---------------------------------------------------------------------------


def dump_graph(graph: RoomGraph) -> str:
    """Plain-text adjacency dump, stable ordering, for CLI inspection."""
    lines = [
        f"# {graph.difficulty} level={graph.level} seed={graph.seed} "
        f"rooms={len(graph.rooms)} start={graph.start} coin={graph.coin_room}"
    ]
    for room in graph.rooms:
        links = "  ".join(
            f"{d}->{graph.exits[(room, d)]}" for d in DIRECTIONS if (room, d) in graph.exits
        )
        lines.append(f"{room}\t{graph.names[room]}\t{links}")
    return "\n".join(lines) + "\n"
