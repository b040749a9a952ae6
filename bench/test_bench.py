"""Tests of the benchmark itself: span arithmetic, hook installation, and a
smoke run of every workload at tiny sizes.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from bench import END_TO_END  # noqa: E402
from tracer import self_times, summarize  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_merged_child_coverage():
    # root [0, 10]; children [1, 3] and [2, 5] overlap (union 4); child
    # [9, 12] is clipped to the root (1); grandchild [1.5, 2] sits in [1, 3]
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 2.0, 9.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.0]
    assert self_times(parents, starts, ends) == pytest.approx([5.0, 1.5, 3.0, 3.0, 0.5])

    stats = summarize(["outer", "inner"], [0, 1, 1, 1, 1], parents, starts, ends)
    assert stats["outer"] == pytest.approx({"calls": 1, "total_s": 10.0, "self_s": 5.0})
    assert stats["inner"] == pytest.approx({"calls": 4, "total_s": 8.5, "self_s": 8.0})


def test_hooks_are_installed_where_names_are_used():
    script = f"""
import sys
sys.path[:0] = [{str(BENCH_DIR)!r}, {str(ROOT / 'src')!r}]
import lnnrl.cli, lnnrl.agent, lnnrl.worldsim
from tracer import HOOKS, Tracer
original_step = lnnrl.worldsim.step
tracer = Tracer()
tracer.install({{**HOOKS, "gone.fn": (("lnnrl.lnn", "NoSuchNetwork.forward"),)}})
assert tracer.absent == ["gone.fn"], tracer.absent
for module in (lnnrl.worldsim, lnnrl.agent, lnnrl.cli):
    assert module.step.__wrapped__ is original_step, module
from lnnrl.agent import run_episode, scripted_rule_networks
from lnnrl.lexicon import default_lexicon
from lnnrl.worldsim import GameSpec, generate_game

class Oracle:
    config = lnnrl.agent.TrainerConfig()
    nets = scripted_rule_networks()
    def choose(self, props, candidates, epsilon, rng):
        return lnnrl.agent.select_action(candidates, self.nets, epsilon, rng)

report = run_episode(generate_game(GameSpec("medium", 5, 1)), Oracle(), default_lexicon())
stats = tracer.summary()
assert stats["worldsim.step"]["calls"] == report.steps
assert stats["lnn.forward"]["calls"] >= report.steps
assert stats["agent.select_action"]["self_s"] < stats["agent.select_action"]["total_s"]
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/bench.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, tmp_path):
    gated = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(dict(END_TO_END)[name] == unit for name, unit in gated.items())

    for trace in (0, 1):
        proc = run_bench(["--workload", workload, "--seed", "5", "--seconds", "0",
                          "--trace", str(trace), "--smoke", "--out", str(tmp_path)])
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stdout
        # metric rows read "name value unit"; note lines read "name = ..."
        rows = [line.split() for line in lines[:-1]]
        table = {row[0]: row[1:] for row in rows if len(row) >= 3 and row[1] != "="}
        for name, unit in END_TO_END:
            assert name in table and table[name][1] == unit, (name, table.get(name))
        expected = layer if trace else gated
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, unit in expected.items():
            assert table[name][1] == unit, name
        if trace:
            assert any(line.startswith("agent.forward_per_env_step = ") for line in lines)
            assert any(line.startswith("trace.overhead_s = ") for line in lines)
        record = json.loads((tmp_path / f"BENCH_{workload}-seed5-trace{trace}.json").read_text())
        assert {"python", "numpy", "nproc", "loadavg"} <= set(record["env"])


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(["--workload", "medium-lnn", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

