"""Neuro-symbolic RL on a procedural coin-collector text game.

Pipeline: templated observations -> grounded logical facts -> per-category
weighted-logic networks scored per candidate action, trained DQN-style, with
human-readable conjunctive rules extractable from the trained weights.
"""

from .agent import (
    LnnAgent,
    TrainerConfig,
    enumerate_candidates,
    run_episode,
    scripted_rule_networks,
    select_action,
)
from .factextract import (
    AgentMap,
    PropositionSet,
    extract_propositions,
    ground_facts,
    parse_observation,
)
from .harness import ExperimentConfig, compare_runs, run_experiment
from .lexicon import LexiconTable, default_lexicon, load_lexicon
from .lnn import LnnNetwork, classify_truth, extract_rules
from .worldsim import Action, GameSpec, generate_game, render_observation, reset, step

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AgentMap",
    "ExperimentConfig",
    "GameSpec",
    "LexiconTable",
    "LnnAgent",
    "LnnNetwork",
    "PropositionSet",
    "TrainerConfig",
    "classify_truth",
    "compare_runs",
    "default_lexicon",
    "enumerate_candidates",
    "extract_propositions",
    "extract_rules",
    "generate_game",
    "ground_facts",
    "load_lexicon",
    "parse_observation",
    "render_observation",
    "reset",
    "run_episode",
    "run_experiment",
    "scripted_rule_networks",
    "select_action",
    "step",
]
