"""Procedural coin-collector world: map generation and a deterministic step engine.

A game is a connected set of rooms on an integer grid. The optimal path is a
seeded self-avoiding walk whose length defines the game level (minimum number
of moves from the start room to the room holding the coin). Difficulty decides
how many dead-end distractor rooms hang off each path room:

    easy    no distractors, the map is exactly the path
    medium  one distractor per path room (coin room excluded)
    hard    two distractors per path room (coin room excluded)

Observations are templated English with three surface forms per sentence so a
parser cannot get away with matching a single fixed string. An exit sentence
is a lookup in `EXIT_SENTENCES`, built at import from `EXIT_TEMPLATES`: one
text per surface form and open-exit tuple, the table `factextract` inverts to
parse. Generation finds doorsteps and edge directions by dict lookup.
Rendering and stepping are pure functions of the generated graph, which makes
full-episode replays reproducible. `step` renders nothing:
a `StepOutcome` renders its room's text only when its `observation` is read.
A room's text, and so its reading, is a function of (graph, room) alone, so
each `RoomGraph` keeps a memo of the readings made of its rooms, which lives
and dies with the graph.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, NamedTuple

from .records import Frozen, parameters, same_fields, set_fields
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
# the same offsets in DIRECTIONS order, and the direction of each offset
_DIRECTION_OFFSETS = tuple(_OFFSET[d] for d in DIRECTIONS)
_DIRECTION_OF = {offset: d for d, offset in _OFFSET.items()}

DISTRACTORS_PER_ROOM = {"easy": 0, "medium": 1, "hard": 2}

DEFAULT_MAX_EPISODE_STEPS = 100

RoomId = int

if TYPE_CHECKING:
    from .factextract import ParsedObservation


class Action(Frozen):
    """A two-word command: verb in {go, take}, noun in {coin, north, east, south, west}.
    Equal and hashed by value."""

    __slots__ = ("verb", "noun")

    def __init__(self, verb: str, noun: str) -> None:
        if verb not in VERBS:
            raise ValueError(f"unknown verb {verb!r}")
        if noun not in NOUNS:
            raise ValueError(f"unknown noun {noun!r}")
        object.__setattr__(self, "verb", verb)
        object.__setattr__(self, "noun", noun)

    __eq__ = same_fields

    def __hash__(self) -> int:
        return hash((self.verb, self.noun))

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


class GameSpec(Frozen):
    """What a game is generated from, checked when made: a known difficulty,
    level >= 1 and a step cap that fits an optimal episode, or InvalidSpecError."""

    def __init__(self, difficulty: str, level: int, seed: int,
                 max_episode_steps: int = DEFAULT_MAX_EPISODE_STEPS) -> None:
        if difficulty not in DIFFICULTIES:
            raise InvalidSpecError(f"difficulty must be one of {DIFFICULTIES}, got {difficulty!r}")
        if level < 1:
            raise InvalidSpecError(f"level must be >= 1, got {level}")
        if max_episode_steps < level + 1:
            raise InvalidSpecError(
                f"max_episode_steps={max_episode_steps} cannot fit an optimal "
                f"episode of level {level}"
            )
        set_fields(self, locals())

    __slots__ = parameters(__init__)

    def to_line(self) -> str:
        return (
            f"difficulty={self.difficulty} level={self.level} "
            f"seed={self.seed} max_steps={self.max_episode_steps}"
        )


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


class RoomGraph(Frozen):
    """Immutable generated map plus the spec metadata the engine needs.

    The optimal path's rooms are ids `0..level`, start to coin, in order;
    distractor rooms follow. Graphs are equal when their fields are.

    `readings` is the graph's one piece of state: a memo of parsed room
    texts that every episode on this graph shares, room id ->
    `parse_observation(render_observation(self, room))`, filled by
    `agent.run_episode` on a room's first entry in any episode on this
    graph. A room's text never changes, so neither does its reading; the
    memo is this graph's alone, even among equal graphs.
    """

    def __init__(self, difficulty: str, level: int, seed: int, max_episode_steps: int,
                 rooms: tuple[RoomId, ...], names: dict[RoomId, str],
                 exits: dict[tuple[RoomId, str], RoomId], start: RoomId, coin_room: RoomId,
                 template_seed: int) -> None:
        set_fields(self, locals())
        object.__setattr__(self, "readings", {})

    # a weak reference shows when a graph is freed
    __slots__ = (*parameters(__init__), "readings", "__weakref__")
    readings: dict[RoomId, ParsedObservation]

    __eq__ = same_fields

    def open_exits(self, room: RoomId) -> tuple[str, ...]:
        return tuple([d for d in DIRECTIONS if (room, d) in self.exits])


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
            # the head is occupied and next to each option, so a stiff option
            # has exactly one occupied neighbor
            options = [
                c for c in _neighbors(head)
                if c not in occupied and len(occupied.intersection(_neighbors(c))) == 1
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
    index = {cell: i for i, cell in enumerate(path)}
    if len(index) != len(path):
        return None
    # keep non-consecutive rooms off each other's doorsteps
    for i, (x, y) in enumerate(path):
        for dx, dy in _DIRECTION_OFFSETS:
            j = index.get((x + dx, y + dy))
            if j is not None and abs(j - i) != 1:
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
        # listed in DIRECTIONS order: the shuffle below permutes this order
        free = [cell for cell in [(x + dx, y + dy) for dx, dy in _DIRECTION_OFFSETS]
                if cell not in occupied]
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
    n = len(cells)

    # path edges, then each distractor's edge to its path room, as room ids
    edges = [(i, i + 1) for i in range(len(path) - 1)]
    edges += [(parent_idx, len(path) + k) for k, (parent_idx, _) in enumerate(distractors)]
    exits: dict[tuple[RoomId, str], RoomId] = {}
    for a, b in edges:
        (ax, ay), (bx, by) = cells[a], cells[b]
        d = _DIRECTION_OF[bx - ax, by - ay]
        exits[(a, d)] = b
        exits[(b, OPPOSITE[d])] = a

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


#: the exit sentence per surface form (index into EXIT_TEMPLATES) and open
#: exits: for each form, the 15 nonempty direction tuples in DIRECTIONS order
EXIT_SENTENCES: tuple[dict[tuple[str, ...], str], ...] = tuple(
    {
        dirs: (plural if len(dirs) > 1 else singular).format(dirs=_join_directions(dirs))
        for n in range(1, len(DIRECTIONS) + 1)
        for dirs in itertools.combinations(DIRECTIONS, n)
    }
    for singular, plural in EXIT_TEMPLATES
)


def render_observation(graph: RoomGraph, room: RoomId) -> str:
    """Templated English naming the room, its open exits, and the coin if present."""
    if room not in graph.names:
        raise WorldError(f"room {room} not in graph")
    seed = graph.template_seed
    text = (ROOM_TEMPLATES[_template_index(seed, room, 0)].format(name=graph.names[room]) + " "
            + EXIT_SENTENCES[_template_index(seed, room, 1)][graph.open_exits(room)])
    if room == graph.coin_room:
        text += " " + COIN_TEMPLATES[_template_index(seed, room, 2)]
    return text


# ---------------------------------------------------------------------------
# episode engine
# ---------------------------------------------------------------------------


class EpisodeState:
    """One episode in progress: where the agent is and the step count."""

    __slots__ = ("graph", "room", "steps", "done")

    def __init__(self, graph: RoomGraph, room: RoomId, steps: int = 0, done: bool = False) -> None:
        self.graph = graph
        self.room = room
        self.steps = steps
        self.done = done


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
