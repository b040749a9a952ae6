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

The parser reads through the renderer's sentence table. One regex reads the
room sentence; the exit sentence is one lookup in the inverse of
`worldsim.EXIT_SENTENCES`, so the parser recognises exactly the finite set of
rendered exit sentences (distinct directions in NESW order, a singular
sentence for one exit); the ending is one lookup among nothing and the three
coin sentences. Anything else is rejected with one `ObservationParseError`
that names where reading stopped: the room sentence, the exit sentence or
the text after it. The tables decide alone; no second reading words the
error.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Mapping
from types import MappingProxyType

from .records import Frozen, same_fields
from .worldsim import COIN_TEMPLATES, DIRECTIONS, EXIT_SENTENCES, NOUNS, OPPOSITE, Action, RoomId

# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class ObservationParseError(Exception):
    """Input text falls outside the observation grammar."""


class ParsedObservation(Frozen):
    """What one observation says; readings are equal when their fields are.
    A graph keeps one per room it has read (`RoomGraph.readings`), so a
    reading is kept small: no `__dict__`, and its frozensets are shared
    module constants."""

    __slots__ = ("room_name", "open_exits", "objects_seen")

    def __init__(self, room_name: str, open_exits: frozenset[str], objects_seen: frozenset[str]) -> None:
        object.__setattr__(self, "room_name", room_name)
        object.__setattr__(self, "open_exits", open_exits)
        object.__setattr__(self, "objects_seen", objects_seen)

    __eq__ = same_fields


#: the two `objects_seen` values there are, shared by every reading
_NO_OBJECTS: frozenset[str] = frozenset()
_COIN_SEEN: frozenset[str] = frozenset({"coin"})


_ROOM_RE = re.compile(r"(?:You are in the |You have entered the |This is the )(?P<name>[^.]+)\.")
#: rendered exit sentence -> the exits it names, one shared set per exit tuple
_EXIT_SETS = {dirs: frozenset(dirs) for dirs in EXIT_SENTENCES[0]}
_EXIT_SENTENCE_READINGS: dict[str, frozenset[str]] = {
    sentence: _EXIT_SETS[dirs]
    for sentences in EXIT_SENTENCES
    for dirs, sentence in sentences.items()
}
#: what may follow the exit sentence -> the objects it shows
_ENDINGS: dict[str, frozenset[str]] = {
    "": _NO_OBJECTS,
    **{" " + coin: _COIN_SEEN for coin in COIN_TEMPLATES},
}


def parse_observation(text: str) -> ParsedObservation:
    """Recover room name, open exits, and visible objects from templated text."""
    m = _ROOM_RE.match(text)
    if m is None:
        raise ObservationParseError(f"no room sentence at: {text[:60]!r}")
    pos = m.end()
    if not text.startswith(" ", pos):
        raise ObservationParseError(f"expected exit sentence after room sentence at: {text[pos:pos + 60]!r}")
    pos += 1
    # a rendered exit sentence holds one full stop, its last character
    end = text.find(".", pos) + 1
    open_exits = _EXIT_SENTENCE_READINGS.get(text[pos:end])
    if open_exits is None:
        raise ObservationParseError(f"no exit sentence at: {text[pos:pos + 60]!r}")
    objects = _ENDINGS.get(text[end:])
    if objects is None:
        raise ObservationParseError(f"trailing text not in grammar: {text[end:end + 60]!r}")
    return ParsedObservation(m["name"], open_exits, objects)


# ---------------------------------------------------------------------------
# visit history
# ---------------------------------------------------------------------------


class AgentMap:
    """What the agent has seen of the map this episode.

    Adjacency holds only edges the agent actually traversed (both directions
    of each traversal). ``entry_direction[room]`` points back the way the
    agent first came into that room and is never overwritten. Each
    collection not given is a fresh empty one.
    """

    __slots__ = ("current", "visited", "adjacency", "entry_direction")

    def __init__(self, current: RoomId, visited: set[RoomId] | None = None,
                 adjacency: dict[tuple[RoomId, str], RoomId] | None = None,
                 entry_direction: dict[RoomId, str] | None = None) -> None:
        self.current = current
        self.visited = set() if visited is None else visited
        self.adjacency = {} if adjacency is None else adjacency
        self.entry_direction = {} if entry_direction is None else entry_direction

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


class PropositionSet(Frozen):
    """One truth assignment of the 26 values; sets are equal when the four
    fields are.

    `extract_propositions` returns a shared record per assignment, whose
    mappings are read-only; one built directly holds whatever it was given.
    `candidates_memo` holds `agent.enumerate_candidates`' tuple for this
    record per `LexiconTable.pairs`, filled on first use. A shared record
    never changes, so neither does a tuple grounded from it.
    """

    __slots__ = ("find", "visited_dir", "initial_dir", "all_visited", "_vector", "candidates_memo")

    def __init__(
        self,
        find: Mapping[str, bool],          # one per noun
        visited_dir: Mapping[str, bool],   # one per direction
        initial_dir: Mapping[str, bool],   # one per direction
        all_visited: bool,                 # derived, quantified over open exits only
    ) -> None:
        object.__setattr__(self, "find", find)
        object.__setattr__(self, "visited_dir", visited_dir)
        object.__setattr__(self, "initial_dir", initial_dir)
        object.__setattr__(self, "all_visited", all_visited)
        bits: list[float] = []
        for values, names in ((find, NOUNS), (visited_dir, DIRECTIONS), (initial_dir, DIRECTIONS)):
            for name in names:
                v = values[name]
                bits += [float(v), float(not v)]
        object.__setattr__(self, "_vector", tuple(bits))
        object.__setattr__(self, "candidates_memo", {})

    __eq__ = same_fields

    def as_vector(self) -> tuple[float, ...]:
        """The 26 values (positives interleaved with their negations) as
        floats, built when the record is made; every call returns that one
        tuple."""
        return self._vector

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
def _proposition_record(find: tuple[bool, ...], visited: tuple[bool, ...],
                        entry: str | None) -> PropositionSet:
    # facts are crisp, so there are at most 2**5 * 2**4 * 5 = 2,560 keys
    find_map = dict(zip(NOUNS, find))
    visited_map = dict(zip(DIRECTIONS, visited))
    return PropositionSet(
        find=MappingProxyType(find_map),
        visited_dir=MappingProxyType(visited_map),
        initial_dir=MappingProxyType({d: d == entry for d in DIRECTIONS}),
        all_visited=all(visited_map[d] for d in DIRECTIONS if find_map[d]),
    )


@functools.cache
def _shared_propositions(open_exits: frozenset[str], objects_seen: frozenset[str],
                         visited: tuple[bool, ...], entry: str | None) -> PropositionSet:
    # keyed on a reading's shared sets, whose hashes are cached, so the find
    # bits are computed once per key; equal bits still share one record
    find = tuple([noun in open_exits or noun in objects_seen for noun in NOUNS])
    return _proposition_record(find, visited, entry)


def extract_propositions(parsed: ParsedObservation, agent_map: AgentMap) -> PropositionSet:
    """Turn the current observation plus history into the 26 truth values.

    Equal truth assignments return the same read-only record.
    """
    room, adjacency, visited = agent_map.current, agent_map.adjacency, agent_map.visited
    # an exit never traversed has no adjacency entry, and None is never visited
    return _shared_propositions(
        parsed.open_exits,
        parsed.objects_seen,
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


class Candidate(Frozen):
    """Variable x of a category bound to one noun: the action it proposes and
    the category's literal values under that binding, a tuple of floats."""

    __slots__ = ("category", "noun", "action", "values")

    def __init__(self, category: str, noun: str, action: Action, values: tuple[float, ...]) -> None:
        object.__setattr__(self, "category", category)
        object.__setattr__(self, "noun", noun)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "values", values)


def _build_groundings() -> dict[tuple[str, str, tuple[bool, ...]], Candidate]:
    # every literal arrives with its complement, in the frozen layout order;
    # one values tuple per (category, truth assignment), shared across nouns
    groundings = {}
    for category, literals in CATEGORY_LITERALS.items():
        for bits in itertools.product((False, True), repeat=len(literals) // 2):
            values = tuple([float(v) for b in bits for v in (b, not b)])
            for noun in CATEGORY_NOUNS[category]:
                action = Action(CATEGORY_VERBS[category], noun)
                groundings[category, noun, bits] = Candidate(category, noun, action, values)
    return groundings


#: every grounded candidate there can be: facts are crisp, so a direction has
#: 2**4 truth assignments and the coin 2. Built once; the records and their
#: values tuples are shared by every caller, replay included, and equal
#: values are one tuple, so a scorer keyed on identity scores each once.
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
