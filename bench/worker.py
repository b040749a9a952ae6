"""One repetition of one benchmark workload, in a fresh process.

    python3 bench/worker.py --workload medium-lnn --seed 3 --out DIR [--trace] [--smoke]

`bench.py` starts this script once per repetition, so each repetition pays
its own imports and has its own peak RSS. The program is driven only
through `ExperimentConfig` + `run_experiment`, `scripted_rule_networks` +
`save_network`, and `lnnrl.cli.main(["eval", ...])`. One probe on
`run_episode` splits the time into set-up (until the first episode), train
and eval episodes, and counts env steps. Output checks and artifact digests
are taken after the clock stops. The last stdout line is a JSON record.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # before the program is imported: set-up includes imports

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(SRC))

from tracer import Tracer, rebind  # noqa: E402

WORKLOADS = ("medium-lnn", "medium-mlp", "hard-oracle-eval")

# Full sizes are the desk configs the workloads are named for; smoke sizes
# only exercise the plumbing, too short for the logic agent to learn, so
# they skip the two learning checks (reward floor and the take rule).
SIZES = {
    "full": {"epochs": 100, "eval_interval": 10, "n_test_per_level": 10,
             "oracle_games_per_level": 100, "check_learning": True},
    "smoke": {"epochs": 4, "eval_interval": 2, "n_test_per_level": 1,
              "oracle_games_per_level": 2, "check_learning": False},
}
MIN_LNN_REWARD = 0.9
TEST_LEVELS = (5, 10, 15, 20, 25)
TAKE_RULE = "⟨find x⟩ → ⟪take x⟫"
EVAL_LINE = re.compile(
    r"^test games: (\d+)  mean_reward=([0-9.]+)  mean_steps=([0-9.]+)$")


class EpisodeProbe:
    """Wraps `run_episode` to split train from eval time and count env steps."""

    def __init__(self):
        self.first_start: float | None = None
        self.seconds = {"train": 0.0, "eval": 0.0}
        self.steps = {"train": 0, "eval": 0}

    def wrap(self, fn):
        def probed(*args, **kwargs):
            start = time.perf_counter()
            if self.first_start is None:
                self.first_start = start
            mode = kwargs.get("mode", "eval")
            report = fn(*args, **kwargs)
            self.seconds[mode] += time.perf_counter() - start
            self.steps[mode] += report.steps
            return report
        return probed


def digest(root: Path, patterns: tuple[str, ...]) -> dict[str, str]:
    out = {}
    for pattern in patterns:
        for path in sorted(root.glob(pattern)):
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def check_metrics_csv(path: Path, expected_rows: int, failures: list[str]) -> list[list[float]]:
    """Parse metrics.csv by its header; rewards must lie in [0, 1]."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    except (OSError, IndexError, ValueError) as exc:
        failures.append(f"metrics.csv does not parse: {exc}")
        return []
    if header[:3] != ["epoch", "reward_mean", "steps_mean"]:
        failures.append(f"metrics.csv header is {header[:3]}")
        return []
    if len(rows) != expected_rows or any(len(r) != len(header) for r in rows):
        failures.append(f"metrics.csv has {len(rows)} rows, expected {expected_rows}")
        return []
    for j, name in enumerate(header):
        if name.startswith("reward") and not all(0.0 <= r[j] <= 1.0 for r in rows):
            failures.append(f"metrics.csv column {name} leaves [0, 1]")
    return rows


def run_medium(agent: str, seed: int, size: dict, out: Path, probe: EpisodeProbe) -> dict:
    from lnnrl.harness import ExperimentConfig, run_experiment
    from lnnrl.lexicon import default_lexicon

    lexicon = default_lexicon()
    config = ExperimentConfig(
        difficulty="medium", agent=agent, epochs=size["epochs"],
        eval_interval=size["eval_interval"], n_test_per_level=size["n_test_per_level"],
        test_levels=TEST_LEVELS, n_seeds=1, base_seed=seed,
    )
    run_experiment(config, out, lexicon=lexicon)
    t_end = time.perf_counter()

    failures: list[str] = []
    n_test = len(TEST_LEVELS) * size["n_test_per_level"]
    rows = check_metrics_csv(out / "metrics.csv", size["epochs"] // size["eval_interval"], failures)
    result = {"t_end": t_end, "failures": failures}
    if rows:
        result["test_reward"] = rows[-1][1]
        csv_eval_steps = sum(r[2] for r in rows) * n_test
        if abs(csv_eval_steps - probe.steps["eval"]) > 1e-3 * len(rows) * n_test:
            failures.append(f"metrics.csv steps_mean implies {csv_eval_steps} eval steps, "
                            f"{probe.steps['eval']} were run")
    if agent == "lnn":
        rules = out / "rules_seed0.txt"
        if not rules.is_file():
            failures.append("rules_seed0.txt is missing")
        elif size["check_learning"]:
            if TAKE_RULE not in rules.read_text(encoding="utf-8"):
                failures.append(f"rules_seed0.txt lacks {TAKE_RULE}")
            if result.get("test_reward", -1.0) < MIN_LNN_REWARD:
                failures.append(f"test_reward {result.get('test_reward')} < {MIN_LNN_REWARD}")
        result["digest"] = digest(out, ("metrics.csv", "rules_seed*.txt", "seed*/*.lnn"))
    else:
        from lnnrl.baseline import MlpScorer
        try:
            scorer = MlpScorer.load(out / "seed0" / "mlp.txt")
            if not all(math.isfinite(float(v)) for a in scorer.parameters().values()
                       for v in a.ravel()):
                failures.append("mlp.txt reloads with non-finite parameters")
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures.append(f"mlp.txt does not reload: {exc}")
        result["digest"] = digest(out, ("metrics.csv", "seed*/mlp.txt"))
    return result


def run_oracle_eval(seed: int, size: dict, out: Path, probe: EpisodeProbe) -> dict:
    from lnnrl.agent import scripted_rule_networks
    from lnnrl.cli import main as cli_main
    from lnnrl.harness import ExperimentConfig
    from lnnrl.lnn import save_network

    config = ExperimentConfig(
        difficulty="hard", agent="lnn", test_levels=TEST_LEVELS,
        n_test_per_level=size["oracle_games_per_level"], n_seeds=1, base_seed=seed,
    )
    (out / "seed0").mkdir(parents=True, exist_ok=True)
    (out / "config.txt").write_text(config.to_text(), encoding="utf-8")
    for category, net in scripted_rule_networks().items():
        save_network(net, out / "seed0" / f"{category}.lnn")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(["eval", "--run-dir", str(out), "--seed-index", "0"])
    t_end = time.perf_counter()

    failures: list[str] = []
    result = {"t_end": t_end, "failures": failures}
    line = buffer.getvalue().strip()
    (out / "eval.txt").write_text(line + "\n", encoding="utf-8")
    match = EVAL_LINE.match(line)
    n_games = len(TEST_LEVELS) * size["oracle_games_per_level"]
    if code != 0 or match is None:
        failures.append(f"eval exited {code} with output {line!r}")
    else:
        games, reward, steps = int(match[1]), float(match[2]), float(match[3])
        result["test_reward"] = reward
        if games != n_games:
            failures.append(f"eval ran {games} games, expected {n_games}")
        if not 0.0 <= reward <= 1.0:
            failures.append(f"eval mean_reward {reward} leaves [0, 1]")
        if abs(steps * games - probe.steps["eval"]) > 1e-3 * games:
            failures.append(f"eval reports {steps * games} steps, {probe.steps['eval']} were run")
    result["digest"] = digest(out, ("config.txt", "eval.txt", "seed*/*.lnn"))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    size = SIZES["smoke" if args.smoke else "full"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    import lnnrl
    import lnnrl.cli  # noqa: F401  (imports every module, so hooks see every binding)

    if Path(lnnrl.__file__).resolve().parent != SRC / "lnnrl":
        raise SystemExit(f"imported lnnrl from {lnnrl.__file__}, not from {SRC}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    probe = EpisodeProbe()
    from lnnrl.harness import run_episode
    rebind(run_episode, probe.wrap(run_episode))

    if args.workload == "hard-oracle-eval":
        result = run_oracle_eval(args.seed, size, out, probe)
    else:
        agent = "lnn" if args.workload == "medium-lnn" else "nn"
        result = run_medium(agent, args.seed, size, out, probe)

    record = {
        "setup_s": probe.first_start - T0,
        "wall_s": result.pop("t_end") - T0,
        "train_s": probe.seconds["train"],
        "eval_s": probe.seconds["eval"],
        "train_steps": probe.steps["train"],
        "eval_steps": probe.steps["eval"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **result,
    }
    if tracer is not None:
        tracer.write_spans(out / "spans.tsv")
        record["spans"] = tracer.summary()
        record["absent"] = tracer.absent
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
