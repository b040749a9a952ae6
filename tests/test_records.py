"""The records' contract: read-only records refuse assignment, keyword
construction fills in the defaults, mutable defaults are fresh per
instance, and `Action` is equal and hashed by value."""

import pytest

from lnnrl.agent import EpisodeReport, TrainerConfig, Transition
from lnnrl.factextract import GROUNDINGS, AgentMap, Candidate, ParsedObservation, PropositionSet
from lnnrl.harness import CrossingReport, ExperimentConfig, ExperimentResult
from lnnrl.lexicon import LexiconTable
from lnnrl.lnn import DEFAULT_ALPHA, ForwardTrace, Rule
from lnnrl.worldsim import (
    ALL_ACTIONS,
    DEFAULT_MAX_EPISODE_STEPS,
    DIRECTIONS,
    NOUNS,
    Action,
    GameSpec,
    RoomGraph,
)

GO_NORTH = Action("go", "north")
CANDIDATE = GROUNDINGS["direction", "north", (True, False, False, False)]
PROPS = PropositionSet(find=dict.fromkeys(NOUNS, False), visited_dir=dict.fromkeys(DIRECTIONS, False),
                       initial_dir=dict.fromkeys(DIRECTIONS, False), all_visited=False)

#: every record that is read-only: (class, the keyword arguments it is made
#: with, the fields those leave at their defaults and the default of each)
FROZEN = [
    (Action, dict(verb="go", noun="north"), {}),
    (GameSpec, dict(difficulty="easy", level=2, seed=3),
     dict(max_episode_steps=DEFAULT_MAX_EPISODE_STEPS)),
    (RoomGraph, dict(difficulty="easy", level=1, seed=0, max_episode_steps=5, rooms=(0, 1),
                     names={0: "A", 1: "B"}, exits={(0, "north"): 1, (1, "south"): 0},
                     start=0, coin_room=1, template_seed=7), dict(readings={})),
    (ParsedObservation, dict(room_name="Quiet Attic", open_exits=frozenset({"north"}),
                             objects_seen=frozenset()), {}),
    (PropositionSet, dict(find=PROPS.find, visited_dir=PROPS.visited_dir,
                          initial_dir=PROPS.initial_dir, all_visited=False), {}),
    (Candidate, dict(category="direction", noun="north", action=GO_NORTH, values=(1.0, 0.0)), {}),
    (TrainerConfig, dict(gamma=0.5), dict(batch_size=4, alpha=DEFAULT_ALPHA, gate_cap=16)),
    (Transition, dict(props=PROPS, action=GO_NORTH, reward=1.0, terminal=False, next_props=PROPS,
                      next_candidates=(CANDIDATE,)), dict(chosen=None)),
    (ForwardTrace, dict(facts=(1.0, 0.0), and_pre=(0.5,), and_out=(0.5,), or_pre=0.25), {}),
    (Rule, dict(category="money", verb="take", literals=("find_x",), or_weight=1.0,
                gate_index=0), {}),
    (ExperimentConfig, dict(difficulty="medium", test_levels=(3, 4)),
     dict(agent="lnn", epochs=0, trainer=TrainerConfig())),
    (CrossingReport, dict(threshold=0.5, first_epoch_a=10, first_epoch_b=None), {}),
    (LexiconTable, {}, dict(entries={}, pairs=())),
]


@pytest.mark.parametrize("cls, given, defaults", FROZEN, ids=[c.__name__ for c, _, _ in FROZEN])
def test_a_read_only_record_is_made_by_keyword_and_refuses_assignment(cls, given, defaults):
    record = cls(**given)
    fields = {**given, **defaults}
    for name, value in fields.items():
        assert getattr(record, name) == value, name
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value, name
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_mutable_defaults_are_fresh_per_instance():
    first, second = AgentMap(0), AgentMap(0)
    for name in ("visited", "adjacency", "entry_direction"):
        assert not getattr(first, name) and getattr(first, name) is not getattr(second, name)
    assert ExperimentResult(None, []).rules_paths == []
    assert ExperimentResult(None, []).rules_paths is not ExperimentResult(None, []).rules_paths
    assert ExperimentConfig().trainer is not ExperimentConfig().trainer


def test_an_action_is_equal_and_hashed_by_value():
    twin = Action(verb="go", noun="north")
    assert twin == GO_NORTH and twin is not GO_NORTH and hash(twin) == hash(GO_NORTH)
    assert twin != Action("go", "south") and twin != Action("take", "north") and twin != "go north"
    assert {twin: 1}[GO_NORTH] == 1
    assert len(set(ALL_ACTIONS) | {Action(a.verb, a.noun) for a in ALL_ACTIONS}) == len(ALL_ACTIONS) == 10


def test_records_of_equal_fields_are_equal_where_callers_compare_them():
    assert EpisodeReport(1.0, 3) == EpisodeReport(quest_reward=1.0, steps=3) != EpisodeReport(1.0, 4)
    assert ExperimentConfig(n_seeds=2) == ExperimentConfig(n_seeds=2) != ExperimentConfig(n_seeds=3)
    assert TrainerConfig(gamma=0.5) != TrainerConfig()
    assert LexiconTable({"coin": frozenset({"money"})}) == LexiconTable({"coin": frozenset({"money"})})
