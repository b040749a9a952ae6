"""Observation parsing, visit history, and grounded logical facts.

The pipeline per step is:

    observation text --parse_observation--> ParsedObservation
    (ParsedObservation, AgentMap) --extract_propositions--> PropositionSet
    (PropositionSet, category, noun) --ground_facts--> GroundedFactVector

A PropositionSet holds 26 truth values: find(n) for the five nouns, visited(d)
and initial(d) for the four directions, plus the complement of every one of
those 13 literals. ``all_visited`` (every currently open exit leads to an
already-visited room) is derived from them and only appears inside direction
groundings.

The parser is grammar-driven over the renderer's template family: it consumes
the text sentence by sentence and rejects anything it cannot account for,
reporting the unmatched span.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .worldsim import DIRECTIONS, NOUNS, OPPOSITE, RoomId

# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class ObservationParseError(Exception):
    """Input text falls outside the observation grammar."""


@dataclass(frozen=True)
class ParsedObservation:
    room_name: str
    open_exits: frozenset[str]
    objects_seen: frozenset[str]


_ROOM_RES = [
    re.compile(r"You are in the (?P<name>[^.]+)\."),
    re.compile(r"You have entered the (?P<name>[^.]+)\."),
    re.compile(r"This is the (?P<name>[^.]+)\."),
]
_EXIT_RES = [
    re.compile(r"There is an exit to the (?P<dirs>[a-z, ]+)\."),
    re.compile(r"There are exits to the (?P<dirs>[a-z, ]+)\."),
    re.compile(r"You can head (?P<dirs>[a-z, ]+) from here\."),
    re.compile(r"A doorway leads (?P<dirs>[a-z, ]+)\."),
    re.compile(r"Doorways lead (?P<dirs>[a-z, ]+)\."),
]
_COIN_RES = [
    re.compile(r"There is a coin on the floor\."),
    re.compile(r"A coin glitters in the corner\."),
    re.compile(r"You spot a coin lying here\."),
]


def _match_any(patterns, text: str, pos: int):
    for pattern in patterns:
        m = pattern.match(text, pos)
        if m is not None:
            return m
    return None


def _split_direction_list(dirs: str, text: str, pos: int) -> frozenset[str]:
    words: list[str] = []
    for chunk in dirs.split(", "):
        words.extend(chunk.split(" and "))
    for word in words:
        if word not in DIRECTIONS:
            raise ObservationParseError(
                f"unknown direction word {word!r} in exit list at: {text[pos:pos + 60]!r}"
            )
    return frozenset(words)


def parse_observation(text: str) -> ParsedObservation:
    """Recover room name, open exits, and visible objects from templated text."""
    pos = 0
    m = _match_any(_ROOM_RES, text, pos)
    if m is None:
        raise ObservationParseError(f"no room sentence at: {text[pos:pos + 60]!r}")
    room_name = m.group("name")
    pos = m.end()

    if not text.startswith(" ", pos):
        raise ObservationParseError(f"expected exit sentence after room sentence at: {text[pos:pos + 60]!r}")
    pos += 1
    m = _match_any(_EXIT_RES, text, pos)
    if m is None:
        raise ObservationParseError(f"no exit sentence at: {text[pos:pos + 60]!r}")
    open_exits = _split_direction_list(m.group("dirs"), text, pos)
    pos = m.end()

    objects: frozenset[str] = frozenset()
    if pos < len(text) and text.startswith(" ", pos):
        m = _match_any(_COIN_RES, text, pos + 1)
        if m is not None:
            objects = frozenset({"coin"})
            pos = m.end()

    if pos != len(text):
        raise ObservationParseError(f"trailing text not in grammar: {text[pos:pos + 60]!r}")
    return ParsedObservation(room_name=room_name, open_exits=open_exits, objects_seen=objects)


# ---------------------------------------------------------------------------
# visit history
# ---------------------------------------------------------------------------


@dataclass
class AgentMap:
    """What the agent has seen of the map this episode.

    Adjacency holds only edges the agent actually traversed (both directions
    of each traversal). ``entry_direction[room]`` points back the way the
    agent first came into that room and is never overwritten.
    """

    current: RoomId
    visited: set[RoomId] = field(default_factory=set)
    adjacency: dict[tuple[RoomId, str], RoomId] = field(default_factory=dict)
    entry_direction: dict[RoomId, str] = field(default_factory=dict)

    @classmethod
    def start(cls, room: RoomId) -> "AgentMap":
        return cls(current=room, visited={room})

    def record_move(self, direction: str, new_room: RoomId) -> None:
        """Record a successful `go direction` from the current room."""
        if direction not in DIRECTIONS:
            raise ValueError(f"cannot move along non-direction noun {direction!r}")
        prev = self.current
        self.adjacency[(prev, direction)] = new_room
        self.adjacency[(new_room, OPPOSITE[direction])] = prev
        if new_room not in self.visited:
            self.entry_direction[new_room] = OPPOSITE[direction]
            self.visited.add(new_room)
        self.current = new_room


# ---------------------------------------------------------------------------
# propositions
# ---------------------------------------------------------------------------

#: stable ordering of the 26 stored truth values
PROPOSITION_NAMES: tuple[str, ...] = tuple(
    name
    for noun in NOUNS
    for name in (f"find {noun}", f"not find {noun}")
) + tuple(
    name
    for d in DIRECTIONS
    for name in (f"visited {d}", f"not visited {d}")
) + tuple(
    name
    for d in DIRECTIONS
    for name in (f"initial {d}", f"not initial {d}")
)


@dataclass(frozen=True)
class PropositionSet:
    find: dict[str, bool]          # one per noun
    visited_dir: dict[str, bool]   # one per direction
    initial_dir: dict[str, bool]   # one per direction
    all_visited: bool              # derived, quantified over open exits only

    def as_vector(self) -> np.ndarray:
        """The 26 values (positives interleaved with their negations) as floats."""
        bits: list[float] = []
        for noun in NOUNS:
            v = self.find[noun]
            bits += [float(v), float(not v)]
        for d in DIRECTIONS:
            v = self.visited_dir[d]
            bits += [float(v), float(not v)]
        for d in DIRECTIONS:
            v = self.initial_dir[d]
            bits += [float(v), float(not v)]
        return np.array(bits, dtype=np.float64)

    def bitstring(self) -> str:
        return "".join(str(int(b)) for b in self.as_vector())

    def dump(self) -> str:
        """One named truth value per line, stable order."""
        values = self.as_vector()
        return "\n".join(
            f"{name} = {'true' if v else 'false'}"
            for name, v in zip(PROPOSITION_NAMES, values)
        )


def extract_propositions(parsed: ParsedObservation, agent_map: AgentMap) -> PropositionSet:
    """Turn the current observation plus history into the 26 truth values."""
    room = agent_map.current
    find = {noun: False for noun in NOUNS}
    for d in parsed.open_exits:
        find[d] = True
    for obj in parsed.objects_seen:
        if obj in find:
            find[obj] = True

    visited_dir = {}
    for d in DIRECTIONS:
        target = agent_map.adjacency.get((room, d))
        visited_dir[d] = target is not None and target in agent_map.visited

    entry = agent_map.entry_direction.get(room)
    initial_dir = {d: d == entry for d in DIRECTIONS}

    all_visited = all(visited_dir[d] for d in parsed.open_exits)

    return PropositionSet(
        find=find,
        visited_dir=visited_dir,
        initial_dir=initial_dir,
        all_visited=all_visited,
    )


# ---------------------------------------------------------------------------
# grounding
# ---------------------------------------------------------------------------

# literal layouts are positional; network weights index into them, so the
# order here is frozen
DIRECTION_LITERALS: tuple[str, ...] = (
    "find_x", "not_find_x",
    "visited_x", "not_visited_x",
    "initial_x", "not_initial_x",
    "all_visited", "not_all_visited",
)
MONEY_LITERALS: tuple[str, ...] = ("find_x", "not_find_x")

CATEGORY_LITERALS: dict[str, tuple[str, ...]] = {
    "direction": DIRECTION_LITERALS,
    "money": MONEY_LITERALS,
}


@dataclass(frozen=True)
class GroundedFactVector:
    category: str
    noun: str
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def can_ground(category: str, noun: str) -> bool:
    """Whether the category's literal layout is defined for this noun."""
    if category == "direction":
        return noun in DIRECTIONS
    if category == "money":
        return noun == "coin"
    return False


def ground_facts(props: PropositionSet, category: str, noun: str) -> GroundedFactVector:
    """Bind variable x to `noun` and assemble the category's literal tuple."""
    if category == "direction":
        if noun not in DIRECTIONS:
            raise ValueError(f"noun {noun!r} cannot ground a direction variable")
        f = props.find[noun]
        v = props.visited_dir[noun]
        i = props.initial_dir[noun]
        a = props.all_visited
        values = (f, not f, v, not v, i, not i, a, not a)
    elif category == "money":
        if noun != "coin":
            raise ValueError(f"noun {noun!r} cannot ground a money variable")
        f = props.find[noun]
        values = (f, not f)
    else:
        raise ValueError(f"no grounding layout for category {category!r}")
    return GroundedFactVector(
        category=category,
        noun=noun,
        values=np.array([float(b) for b in values], dtype=np.float64),
    )
