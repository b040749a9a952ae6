"""Observation parsing, visit history, and grounded logical facts.

The pipeline per step is:

    observation text --parse_observation--> ParsedObservation
    (ParsedObservation, AgentMap) --extract_propositions--> PropositionSet
    (PropositionSet, category, noun) --ground_facts--> Candidate

A PropositionSet holds 26 truth values: find(n) for the five nouns, visited(d)
and initial(d) for the four directions, plus the complement of every one of
those 13 literals. ``all_visited`` (every currently open exit leads to an
already-visited room) is derived from them and only appears inside direction
groundings. Facts are crisp, so each truth assignment has one shared,
read-only PropositionSet and each grounding one shared Candidate.

The parser is grammar-driven over the renderer's template family: it consumes
the text sentence by sentence and rejects anything it cannot account for,
reporting the unmatched span. An exit list must be one the renderer writes:
distinct directions in NESW order, and a singular sentence for one exit.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .worldsim import DIRECTIONS, NOUNS, OPPOSITE, Action, RoomId, _join_directions

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
#: exit sentence -> whether it names several exits; None where the singular
#: and plural forms are one text
_EXIT_RES = {
    re.compile(r"There is an exit to the (?P<dirs>[a-z, ]+)\."): False,
    re.compile(r"There are exits to the (?P<dirs>[a-z, ]+)\."): True,
    re.compile(r"You can head (?P<dirs>[a-z, ]+) from here\."): None,
    re.compile(r"A doorway leads (?P<dirs>[a-z, ]+)\."): False,
    re.compile(r"Doorways lead (?P<dirs>[a-z, ]+)\."): True,
}
#: the 15 exit lists the renderer writes (each nonempty set, in DIRECTIONS order)
_DIRECTION_LISTS: dict[str, frozenset[str]] = {
    _join_directions(dirs): frozenset(dirs)
    for n in range(1, len(DIRECTIONS) + 1)
    for dirs in itertools.combinations(DIRECTIONS, n)
}
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


def _read_direction_list(m: re.Match, text: str, pos: int) -> frozenset[str]:
    """The exits an exit sentence names, if the renderer could have written it:
    a list from `_DIRECTION_LISTS` whose count agrees with the sentence's form."""
    dirs = m.group("dirs")
    exits = _DIRECTION_LISTS.get(dirs)
    plural = _EXIT_RES[m.re]
    if exits is not None and (plural is None or plural == (len(exits) > 1)):
        return exits
    for chunk in dirs.split(", "):
        for word in chunk.split(" and "):
            if word not in DIRECTIONS:
                raise ObservationParseError(
                    f"unknown direction word {word!r} in exit list at: {text[pos:pos + 60]!r}"
                )
    raise ObservationParseError(f"exit list not in rendered order and form at: {text[pos:pos + 60]!r}")


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
    open_exits = _read_direction_list(m, text, pos)
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
    """One truth assignment of the 26 values.

    `extract_propositions` returns a shared record per assignment, whose
    mappings are read-only; one built directly holds whatever it was given.
    """

    find: Mapping[str, bool]          # one per noun
    visited_dir: Mapping[str, bool]   # one per direction
    initial_dir: Mapping[str, bool]   # one per direction
    all_visited: bool                 # derived, quantified over open exits only

    def as_vector(self) -> np.ndarray:
        """The 26 values (positives interleaved with their negations) as floats.

        Built on the first call; every call returns that one read-only array.
        """
        return self._vector

    @functools.cached_property
    def _vector(self) -> np.ndarray:
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
        vector = np.array(bits, dtype=np.float64)
        vector.flags.writeable = False
        return vector

    @functools.cached_property
    def candidates_memo(self) -> dict:
        """`agent.enumerate_candidates`' tuple for this record per
        `LexiconTable.pairs`, filled on first use. A shared record never
        changes, so neither does a tuple grounded from it."""
        return {}

    def bitstring(self) -> str:
        return "".join(str(int(b)) for b in self.as_vector())

    def dump(self) -> str:
        """One named truth value per line, stable order."""
        values = self.as_vector()
        return "\n".join(
            f"{name} = {'true' if v else 'false'}"
            for name, v in zip(PROPOSITION_NAMES, values)
        )


@functools.cache
def _shared_propositions(find: tuple[bool, ...], visited: tuple[bool, ...],
                         entry: str | None) -> PropositionSet:
    # facts are crisp, so there are at most 2**5 * 2**4 * 5 = 2,560 keys
    find_map = dict(zip(NOUNS, find))
    visited_map = dict(zip(DIRECTIONS, visited))
    props = PropositionSet(
        find=MappingProxyType(find_map),
        visited_dir=MappingProxyType(visited_map),
        initial_dir=MappingProxyType({d: d == entry for d in DIRECTIONS}),
        all_visited=all(visited_map[d] for d in DIRECTIONS if find_map[d]),
    )
    props.as_vector()   # built here, once, for every step that shares the record
    return props


def extract_propositions(parsed: ParsedObservation, agent_map: AgentMap) -> PropositionSet:
    """Turn the current observation plus history into the 26 truth values.

    Equal truth assignments return the same read-only record.
    """
    room, adjacency, visited = agent_map.current, agent_map.adjacency, agent_map.visited
    exits, objects = parsed.open_exits, parsed.objects_seen
    # an exit never traversed has no adjacency entry, and None is never visited
    return _shared_propositions(
        tuple([noun in exits or noun in objects for noun in NOUNS]),
        tuple([adjacency.get((room, d)) in visited for d in DIRECTIONS]),
        agent_map.entry_direction.get(room),
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


#: which verb a category's networks decide about
CATEGORY_VERBS: dict[str, str] = {"direction": "go", "money": "take"}

#: the nouns each category's variable x ranges over, in candidate order
CATEGORY_NOUNS: dict[str, tuple[str, ...]] = {
    "direction": DIRECTIONS,
    "money": ("coin",),
}


@dataclass(frozen=True)
class Candidate:
    """Variable x of a category bound to one noun: the action it proposes and
    the category's literal values under that binding."""

    category: str
    noun: str
    action: Action
    values: np.ndarray


def _build_groundings() -> dict[tuple[str, str, tuple[bool, ...]], Candidate]:
    # every literal arrives with its complement, in the frozen layout order;
    # one values array per (category, truth assignment), shared across nouns
    groundings = {}
    for category, literals in CATEGORY_LITERALS.items():
        for bits in itertools.product((False, True), repeat=len(literals) // 2):
            values = np.array([float(v) for b in bits for v in (b, not b)], dtype=np.float64)
            values.flags.writeable = False
            for noun in CATEGORY_NOUNS[category]:
                action = Action(CATEGORY_VERBS[category], noun)
                groundings[category, noun, bits] = Candidate(category, noun, action, values)
    return groundings


#: every grounded candidate there can be: facts are crisp, so a direction has
#: 2**4 truth assignments and the coin 2. Built once; the records and their
#: read-only values are shared by every caller, replay included, and equal
#: values are one array, so a scorer keyed on identity scores each once.
GROUNDINGS: dict[tuple[str, str, tuple[bool, ...]], Candidate] = _build_groundings()


def ground_facts(props: PropositionSet, category: str, noun: str) -> Candidate:
    """Bind variable x to `noun` and look up the category's literal values:
    (find, visited, initial, all_visited) for a direction, (find,) for the coin."""
    if category == "direction" and noun in DIRECTIONS:
        bits = (props.find[noun], props.visited_dir[noun], props.initial_dir[noun],
                props.all_visited)
    elif category == "money" and noun == "coin":
        bits = (props.find[noun],)
    elif category in CATEGORY_NOUNS:
        raise ValueError(f"noun {noun!r} cannot ground a {category} variable")
    else:
        raise ValueError(f"no grounding layout for category {category!r}")
    return GROUNDINGS[category, noun, bits]
