"""Command-line entry points.

    lnnrl generate  --difficulty medium --level 5 --seed 3 [--count N] [--adjacency]
    lnnrl train     [--config FILE] [--set key=value ...] --out DIR [--trace]
    lnnrl eval      --run-dir DIR [--seed-index K]
    lnnrl rules     --run-dir DIR [--seed-index K] [--threshold W]
    lnnrl compare   A.csv B.csv [--threshold TAU]
    lnnrl play      --difficulty easy --level 5 --seed 1 [--run-dir DIR]
"""

from __future__ import annotations

import argparse
import random
import sys

from .agent import LnnScorer, enumerate_candidates, scripted_rule_networks
from .factextract import AgentMap, extract_propositions, parse_observation
from .harness import (
    ConfigError,
    ExperimentConfig,
    build_game_sets,
    compare_runs,
    evaluate,
    load_networks,
    run_experiment,
)
from .lexicon import default_lexicon
from .lnn import render_ruleset
from .numtext import parse_float, parse_int
from .rng import derive_seed
from .worldsim import (
    DEFAULT_MAX_EPISODE_STEPS,
    Action,
    GameSpec,
    NOUNS,
    VERBS,
    WorldError,
    dump_graph,
    generate_game,
    reset,
    step,
)


def _cmd_generate(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    for i in range(args.count):
        spec = GameSpec(args.difficulty, args.level, args.seed + i, args.max_steps)
        graph = generate_game(spec)
        print(spec.to_line())
        if args.adjacency:
            print(dump_graph(graph), end="")
    return 0


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    """The `--set key=value` pairs; each key once. A key may override one of
    the config file's."""
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        if key in overrides:
            raise ConfigError(f"--set {key} given twice")
        overrides[key] = value
    return overrides


def _cmd_train(args) -> int:
    overrides = _parse_overrides(args.set)
    if args.config:
        config = ExperimentConfig.from_file(args.config, overrides)
    else:
        config = ExperimentConfig.from_pairs(overrides)
    result = run_experiment(config, args.out, trace=args.trace)
    print(f"wrote {result.csv_path}")
    for path in result.rules_paths:
        print(f"wrote {path}")
    return 0


def _load_run(run_dir: str, seed_index: int):
    """The run's config and logic networks; a run that trained another agent
    has no networks to read, and says so."""
    config_path = f"{run_dir}/config.txt"
    config = ExperimentConfig.from_file(config_path)
    if config.agent != "lnn":
        raise ConfigError(f"{config_path}: the run trained agent={config.agent}; "
                          "eval, rules and play read logic-network checkpoints (agent=lnn)")
    nets = load_networks(f"{run_dir}/seed{seed_index}")
    return config, nets


def _cmd_eval(args) -> int:
    config, nets = _load_run(args.run_dir, args.seed_index)
    lexicon = default_lexicon()
    run_seed_value = derive_seed("run", config.base_seed, args.seed_index)
    _, test_specs = build_game_sets(config, run_seed_value)
    # each test game is played once: generated right before it, freed with
    # its readings when it ends
    test_graphs = map(generate_game, test_specs)
    reward, steps = evaluate(LnnScorer(nets), test_graphs, lexicon)
    print(f"test games: {len(test_specs)}  mean_reward={reward:.6f}  mean_steps={steps:.6f}")
    return 0


def _cmd_rules(args) -> int:
    config, nets = _load_run(args.run_dir, args.seed_index)
    threshold = config.rule_weight_threshold if args.threshold is None else args.threshold
    print(render_ruleset(nets, threshold), end="")
    return 0


def _cmd_compare(args) -> int:
    report = compare_runs(args.csv_a, args.csv_b, args.threshold)
    print(report.render(name_a=args.csv_a, name_b=args.csv_b))
    return 0


def _cmd_play(args) -> int:
    spec = GameSpec(args.difficulty, args.level, args.seed, args.max_steps)
    graph = generate_game(spec)
    lexicon = default_lexicon()
    if args.run_dir:
        _, nets = _load_run(args.run_dir, args.seed_index)
    else:
        nets = scripted_rule_networks()
    scorer = LnnScorer(nets)
    rng = random.Random(0)

    state, observation = reset(graph)
    agent_map = AgentMap.start(state.room)
    print(observation)
    while not state.done:
        try:
            line = input("> ").strip().lower()
        except EOFError:
            break
        if line in ("q", "quit", "exit"):
            break
        if line in ("help", "?"):
            print("commands: go <direction> | take coin | facts | q")
            continue
        props = extract_propositions(parse_observation(observation), agent_map)
        if line == "facts":
            print(props.dump())
            continue
        tokens = line.split()
        if len(tokens) != 2 or tokens[0] not in VERBS or tokens[1] not in NOUNS:
            print("commands: go <direction> | take coin | facts | q")
            continue
        action = Action(tokens[0], tokens[1])
        candidates = enumerate_candidates(props, lexicon)
        _, q_values = scorer.choose(props, candidates, 0.0, rng)
        scored = "  ".join(f"{c.action}:{q:.2f}" for c, q in zip(candidates, q_values))
        print(f"[q] {scored}")
        outcome = step(state, action)
        if not outcome.action_valid:
            print(f"invalid action: {action} (nothing happens)")
        elif action.verb == "go":
            agent_map.record_move(action.noun, outcome.room_id)
        observation = outcome.observation
        print(observation)
        if outcome.done:
            print(f"episode over: quest_reward={outcome.quest_reward} steps={state.steps}")
    return 0


def _argument(parse):
    """An argparse type reading a number as the file readers do: `parse`'s
    ValueError becomes argparse's `error:` (exit 2) with its message."""
    def read(raw: str):
        try:
            return parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


INT = _argument(parse_int)
FLOAT = _argument(parse_float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lnnrl", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="print game specs and optional adjacency dumps")
    p.add_argument("--difficulty", default="easy")
    p.add_argument("--level", type=INT, default=5)
    p.add_argument("--seed", type=INT, default=0)
    p.add_argument("--count", type=INT, default=1)
    p.add_argument("--max-steps", type=INT, default=DEFAULT_MAX_EPISODE_STEPS)
    p.add_argument("--adjacency", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="run a full experiment")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on its test set")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--seed-index", type=INT, default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("rules", help="dump extracted rules from a checkpoint")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--seed-index", type=INT, default=0)
    p.add_argument("--threshold", type=FLOAT, help="default: the run's rule_weight_threshold")
    p.set_defaults(func=_cmd_rules)

    p = sub.add_parser("compare", help="first threshold crossings of two metric files")
    p.add_argument("csv_a")
    p.add_argument("csv_b")
    p.add_argument("--threshold", type=FLOAT, default=0.9)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("play", help="interactive episode with fact inspection")
    p.add_argument("--difficulty", default="easy")
    p.add_argument("--level", type=INT, default=5)
    p.add_argument("--seed", type=INT, default=1)
    p.add_argument("--max-steps", type=INT, default=DEFAULT_MAX_EPISODE_STEPS)
    p.add_argument("--run-dir", default=None)
    p.add_argument("--seed-index", type=INT, default=0)
    p.set_defaults(func=_cmd_play)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, WorldError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
