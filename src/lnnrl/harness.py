"""Experiment orchestration: the train-small / test-bigger generalization run.

One experiment trains an agent on games of a single small level and evaluates
it, at a fixed epoch cadence, on a disjoint test set spanning several levels.
Every random decision flows from the config's base seed through named
sub-streams, so a config maps to byte-identical outputs: the files `RUN_FILES`
lists (config, metrics CSV, per-seed checkpoints, rule dumps and traces).
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from pathlib import Path

from .agent import LnnAgent, TrainerConfig, epsilon_at, run_episode
from .factextract import CATEGORY_LITERALS, CATEGORY_VERBS
from .lexicon import LexiconTable, default_lexicon
from .lnn import (
    DEFAULT_RULE_WEIGHT_THRESHOLD,
    CheckpointError,
    LnnNetwork,
    load_network,
    render_ruleset,
    save_network,
)
from .numtext import parse_float, parse_int
from .records import Frozen, parameters, same_fields, set_fields
from .rng import derive_seed, substream
from .worldsim import (
    DEFAULT_MAX_EPISODE_STEPS,
    GameSpec,
    InvalidSpecError,
    RoomGraph,
    generate_game,
)

DEFAULT_EPOCHS = {"easy": 200, "medium": 500, "hard": 500}

AGENT_KINDS = ("lnn", "nn")


class ConfigError(Exception):
    pass


class ExperimentConfig(Frozen):
    """One experiment's settings, checked when made (a fault raises ConfigError);
    `test_levels` is kept as the tuple `to_text` writes, so the text reads back.
    The parameters of `__init__` are the fields, in the order and with the
    defaults `to_text` writes; no `trainer` means a fresh default one.
    Configs are equal when every field is."""

    def __init__(
        self,
        difficulty: str = "easy",
        agent: str = "lnn",
        n_train_games: int = 50,
        train_level: int = 5,
        test_levels: tuple[int, ...] = (5, 10, 15, 20, 25),
        n_test_per_level: int = 10,
        epochs: int = 0,                      # 0 means the per-difficulty default
        eval_interval: int = 10,
        n_seeds: int = 5,
        base_seed: int = 0,
        max_episode_steps: int = DEFAULT_MAX_EPISODE_STEPS,
        moving_average_window: int = 1,
        rule_weight_threshold: float = DEFAULT_RULE_WEIGHT_THRESHOLD,
        trainer: TrainerConfig | None = None,
    ) -> None:
        test_levels = tuple(test_levels)
        trainer = TrainerConfig() if trainer is None else trainer
        set_fields(self, locals())
        if self.agent not in AGENT_KINDS:
            raise ConfigError(f"agent must be one of {AGENT_KINDS}")
        for name in ("n_train_games", "n_test_per_level", "eval_interval", "n_seeds",
                     "moving_average_window"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not self.test_levels:
            raise ConfigError("test_levels must not be empty")
        if len(set(self.test_levels)) != len(self.test_levels):
            # a repeated level would play and count each of its games twice
            raise ConfigError(f"test_levels must be distinct, got {self.test_levels}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be nonnegative (0 means the default), got {self.epochs}")
        if not math.isfinite(self.rule_weight_threshold):
            raise ConfigError(f"rule_weight_threshold must be finite, got {self.rule_weight_threshold}")
        # the games' own rules (a known difficulty, level >= 1, room for an
        # optimal episode), checked now so a bad one fails before any output
        for level in (self.train_level, *self.test_levels):
            try:
                GameSpec(self.difficulty, level, 0, self.max_episode_steps)
            except InvalidSpecError as exc:
                raise ConfigError(str(exc)) from exc

    __slots__ = parameters(__init__)
    __eq__ = same_fields

    def resolved_epochs(self) -> int:
        return self.epochs if self.epochs > 0 else DEFAULT_EPOCHS[self.difficulty]

    # ------------------------------------------------------------- key=value IO

    def to_text(self) -> str:
        lines = []
        for name in self.__slots__[:-1]:      # every field but `trainer`, the last
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{name}={value}")
        for name in self.trainer.__slots__:
            lines.append(f"{name}={getattr(self.trainer, name)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_pairs(cls, pairs: dict[str, str]) -> "ExperimentConfig":
        own_defaults = dict(zip(cls.__slots__[:-1], cls.__init__.__defaults__))
        trainer_defaults = dict(zip(TrainerConfig.__slots__, TrainerConfig.__init__.__defaults__))
        own_kwargs: dict = {}
        trainer_kwargs: dict = {}
        for key, raw in pairs.items():
            if key in own_defaults:
                own_kwargs[key] = _coerce(raw, own_defaults[key], key)
            elif key in trainer_defaults:
                trainer_kwargs[key] = _coerce(raw, trainer_defaults[key], key)
            else:
                raise ConfigError(f"unknown config key {key!r}")
        return cls(trainer=TrainerConfig(**trainer_kwargs), **own_kwargs)

    @classmethod
    def from_file(cls, path, overrides: dict[str, str] | None = None) -> "ExperimentConfig":
        """The config `path` holds, with `overrides` on top; any fault in its
        bytes, lines or values is a ConfigError naming the file."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from exc
        pairs = parse_key_value_text(text, source=str(path))
        if overrides:
            pairs.update(overrides)
        try:
            return cls.from_pairs(pairs)
        except (ConfigError, ValueError) as exc:
            # from_pairs names no file; a trainer value out of its domain is
            # TrainerConfig's ValueError
            where = f"{path} with its overrides" if overrides else path
            raise ConfigError(f"{where}: {exc}") from exc


def parse_key_value_text(text: str, source: str = "<config>") -> dict[str, str]:
    """The `key=value` lines of `text`; blank lines and `#` comments are
    skipped, and a line that is not a pair, or repeats a key, raises
    ConfigError naming `source:line`."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in pairs:
            raise ConfigError(f"{source}:{lineno}: repeated key {key!r}")
        pairs[key] = value
    return pairs


def _coerce(raw: str, default, key: str):
    """Parse `raw` as the type of the field's default, a number in canonical
    form; tuples are comma-separated ints, none of them empty."""
    try:
        if isinstance(default, tuple):
            return tuple(parse_int(tok) for tok in raw.split(","))
        return {int: parse_int, float: parse_float}.get(type(default), str)(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r} for {key}") from exc


# ---------------------------------------------------------------------------
# game sets
# ---------------------------------------------------------------------------


def build_game_sets(config: ExperimentConfig, run_seed: int) -> tuple[list[GameSpec], list[GameSpec]]:
    """Disjoint train/test specs for one seeded run."""
    train = [
        GameSpec(
            config.difficulty,
            config.train_level,
            derive_seed("train-game", run_seed, i),
            config.max_episode_steps,
        )
        for i in range(config.n_train_games)
    ]
    test = [
        GameSpec(
            config.difficulty,
            level,
            derive_seed("test-game", run_seed, level, j),
            config.max_episode_steps,
        )
        for level in config.test_levels
        for j in range(config.n_test_per_level)
    ]
    train_keys = {(s.level, s.seed) for s in train}
    overlap = [(s.level, s.seed) for s in test if (s.level, s.seed) in train_keys]
    if overlap:
        raise ConfigError(f"train/test game sets overlap on {overlap[:3]}")
    return train, test


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(player, test_graphs: Iterable[RoomGraph], lexicon: LexiconTable) -> tuple[float, float]:
    """Greedy rollout of every test game by `player`, any object with a
    scorer's `choose`; mean quest reward and mean steps. The graphs are read
    once, in order, so a lazy iterable lets each game be generated right
    before it is played and freed after it."""
    rewards = []
    steps = []
    for graph in test_graphs:
        report = run_episode(graph, player, lexicon, mode="eval")
        rewards.append(report.quest_reward)
        steps.append(report.steps)
    return sum(rewards) / len(rewards), sum(steps) / len(steps)


def moving_average(values: list[float], window: int) -> list[float]:
    """Trailing mean over up to `window` values; window 1 passes through."""
    out = []
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        chunk = values[lo:i + 1]
        out.append(sum(chunk) / len(chunk))
    return out


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


class SeedResult:
    """One replicate's eval curve and its trained scorer, which the
    checkpoints and rules are written from. The trainer around it (replay,
    target copy, optimizer moments) is not kept: it is freed when `run_seed`
    returns."""

    def __init__(self, seed_index: int, epochs: list[int], rewards: list[float],
                 steps: list[float], scorer: object) -> None:
        set_fields(self, locals())

    __slots__ = parameters(__init__)


class ExperimentResult:
    """A run's config, its seeds' results and the files it wrote; no
    `rules_paths` means a fresh empty list."""

    __slots__ = ("config", "seeds", "csv_path", "rules_paths")

    def __init__(self, config: ExperimentConfig, seeds: list[SeedResult],
                 csv_path: Path | None = None, rules_paths: list[Path] | None = None) -> None:
        self.config = config
        self.seeds = seeds
        self.csv_path = csv_path
        self.rules_paths = [] if rules_paths is None else rules_paths


def run_seed(
    config: ExperimentConfig,
    seed_index: int,
    lexicon: LexiconTable,
    trace_sink=None,
) -> SeedResult:
    """Train one replicate and evaluate on its test set at the configured cadence;
    the training episodes write their trace lines to `trace_sink`, if given."""
    run_seed_value = derive_seed("run", config.base_seed, seed_index)
    train_specs, test_specs = build_game_sets(config, run_seed_value)
    train_graphs = [generate_game(s) for s in train_specs]
    test_graphs = [generate_game(s) for s in test_specs]

    if config.agent == "lnn":
        agent = LnnAgent(config.trainer, run_seed=run_seed_value)
    else:
        from .baseline import MlpAgent   # numpy loads only for the MLP baseline
        agent = MlpAgent(config.trainer, run_seed=run_seed_value)
    order_rng = substream("train-order", run_seed_value)

    epochs: list[int] = []
    rewards: list[float] = []
    steps: list[float] = []
    total_epochs = config.resolved_epochs()
    for epoch in range(1, total_epochs + 1):
        graph = train_graphs[order_rng.randrange(len(train_graphs))]
        eps = epsilon_at(epoch - 1, config.trainer)
        explore_rng = substream("epsilon-exploration", run_seed_value, epoch)
        run_episode(graph, agent, lexicon, mode="train", epsilon=eps, rng=explore_rng,
                    trace=trace_sink, epoch=epoch)
        if epoch % config.eval_interval == 0:
            mean_reward, mean_steps = evaluate(agent.scorer, test_graphs, lexicon)
            epochs.append(epoch)
            rewards.append(mean_reward)
            steps.append(mean_steps)

    return SeedResult(
        seed_index=seed_index,
        epochs=epochs,
        rewards=moving_average(rewards, config.moving_average_window),
        steps=moving_average(steps, config.moving_average_window),
        scorer=agent.scorer,
    )


def write_metrics_csv(seeds: list[SeedResult], path: Path) -> None:
    header = ["epoch", "reward_mean", "steps_mean"]
    for s in seeds:
        header += [f"reward_seed{s.seed_index}", f"steps_seed{s.seed_index}"]
    lines = [",".join(header)]
    n_rows = len(seeds[0].epochs)
    for row in range(n_rows):
        rewards = [s.rewards[row] for s in seeds]
        steps = [s.steps[row] for s in seeds]
        cells = [
            str(seeds[0].epochs[row]),
            f"{sum(rewards) / len(rewards):.6f}",
            f"{sum(steps) / len(steps):.6f}",
        ]
        for s in seeds:
            cells += [f"{s.rewards[row]:.6f}", f"{s.steps[row]:.6f}"]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


#: every file a run directory holds, as `Path.glob` patterns under it, per
#: agent kind; `run_experiment` writes these and nothing else (the traces only
#: with `trace`)
RUN_FILES = {
    "lnn": ("config.txt", "metrics.csv", "rules_seed*.txt", "trace_seed*.txt", "seed*/*.lnn"),
    "nn": ("config.txt", "metrics.csv", "trace_seed*.txt", "seed*/mlp.txt"),
}


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path,
    lexicon: LexiconTable | None = None,
    trace: bool = False,
) -> ExperimentResult:
    """Train every seed, then write metrics CSV, checkpoints, and rule dumps."""
    lexicon = lexicon or default_lexicon()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config.to_text(), encoding="utf-8")

    seeds: list[SeedResult] = []
    rules_paths: list[Path] = []
    for k in range(config.n_seeds):
        trace_sink = None
        if trace:
            trace_sink = open(out / f"trace_seed{k}.txt", "w", encoding="utf-8")
        try:
            result = run_seed(config, k, lexicon, trace_sink=trace_sink)
        finally:
            if trace_sink is not None:
                trace_sink.close()
        seeds.append(result)

        seed_dir = out / f"seed{k}"
        seed_dir.mkdir(exist_ok=True)
        scorer = result.scorer
        if config.agent == "lnn":
            for category, net in scorer.nets.items():
                save_network(net, seed_dir / f"{category}.lnn")
            rules_path = out / f"rules_seed{k}.txt"
            rules_path.write_text(
                render_ruleset(scorer.nets, config.rule_weight_threshold), encoding="utf-8"
            )
            rules_paths.append(rules_path)
        else:
            scorer.save(seed_dir / "mlp.txt")

    csv_path = out / "metrics.csv"
    write_metrics_csv(seeds, csv_path)
    return ExperimentResult(config=config, seeds=seeds, csv_path=csv_path, rules_paths=rules_paths)


def load_networks(seed_dir: str | Path) -> dict[str, LnnNetwork]:
    """One network per category of `CATEGORY_LITERALS`, read from
    `<category>.lnn`; a missing or extra file, or a network whose category,
    literal layout or verb is not its file's, raises CheckpointError."""
    seed_dir = Path(seed_dir)
    expected = sorted(f"{category}.lnn" for category in CATEGORY_LITERALS)
    found = sorted(path.name for path in seed_dir.glob("*.lnn"))
    if found != expected:
        raise CheckpointError(f"{seed_dir}: expected checkpoints {', '.join(expected)}, "
                              f"found {', '.join(found) or 'none'}")
    nets = {}
    for category, literals in CATEGORY_LITERALS.items():
        path = seed_dir / f"{category}.lnn"
        net = load_network(path)
        if (net.category, net.literals, net.verb) != (category, literals, CATEGORY_VERBS[category]):
            raise CheckpointError(
                f"{path}: expected category {category}, literals {' '.join(literals)} "
                f"and verb {CATEGORY_VERBS[category]}")
        nets[category] = net
    return nets


# ---------------------------------------------------------------------------
# run comparison
# ---------------------------------------------------------------------------


class CrossingReport(Frozen):
    """The first epoch at which each of two runs reaches a reward threshold."""

    def __init__(self, threshold: float, first_epoch_a: int | None, first_epoch_b: int | None) -> None:
        set_fields(self, locals())

    __slots__ = parameters(__init__)

    def render(self, name_a: str = "A", name_b: str = "B") -> str:
        def show(epoch):
            return "not reached" if epoch is None else f"epoch {epoch}"

        lines = [
            f"threshold {self.threshold}:",
            f"  {name_a}: {show(self.first_epoch_a)}",
            f"  {name_b}: {show(self.first_epoch_b)}",
        ]
        if self.first_epoch_a is not None and self.first_epoch_b is not None:
            lines.append(f"  difference: {self.first_epoch_b - self.first_epoch_a}")
        return "\n".join(lines)


def read_metrics_csv(path: str | Path) -> tuple[list[str], list[list[float]]]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty metrics file")
    header = lines[0].split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}:{lineno}: {len(cells)} cells, the header has {len(header)}")
        try:
            row = [parse_float(cell) for cell in cells]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if not all(math.isfinite(value) for value in row):
            raise ValueError(f"{path}:{lineno}: non-finite cell in {line!r}")
        rows.append(row)
    return header, rows


def _crossing(path, metrics: tuple, threshold: float) -> int | None:
    header, rows = metrics
    if "epoch" not in header or "reward_mean" not in header:
        raise ValueError(f"{path}: metrics schema lacks epoch/reward_mean columns")
    epoch_i, col_i = header.index("epoch"), header.index("reward_mean")
    for row in rows:
        if row[col_i] >= threshold:
            return int(row[epoch_i])
    return None


def compare_runs(csv_a: str | Path, csv_b: str | Path, threshold: float = 0.9) -> CrossingReport:
    """First epoch each run's mean reward crosses the (finite) threshold."""
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    metrics_a, metrics_b = read_metrics_csv(csv_a), read_metrics_csv(csv_b)
    if metrics_a[0] != metrics_b[0]:
        raise ValueError("metrics files have different schemas")
    return CrossingReport(
        threshold=threshold,
        first_epoch_a=_crossing(csv_a, metrics_a, threshold),
        first_epoch_b=_crossing(csv_b, metrics_b, threshold),
    )
