"""Desk-scale trainer benchmark: one workload per invocation.

    python3 bench/bench.py --workload medium-lnn --seed 3 --seconds 30 --trace 0

Runs from the root of a source checkout; the program is imported from
`src/`. Each repetition of the workload runs in a fresh single-threaded
process (`worker.py`), one at a time. The workload inputs follow from
`--seed`; every repetition of one invocation uses the same inputs, so their
outputs must be byte-identical. Repetitions continue until `--seconds` have
passed (at least two untraced, or one untraced and one traced pair with
`--trace 1`), and times, set-up time too, are reported as medians over them.

With `--trace 0` the last stdout line is a JSON object whose metrics are the
end-to-end metrics of BENCHMARK.json; with `--trace 1` they are the
per-layer metrics from span tracing (see tracer.py). A human-readable table
with units comes first, and a result file with python and numpy versions,
nproc, load average, every repetition's raw record and the metrics is
written to `<out>/BENCH_<tag>.json`. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
sys.path.insert(0, str(BENCH_DIR))

from tracer import HAS_TRACED_CHILDREN, HOOKS, REPORT_TOTAL  # noqa: E402
from worker import WORKLOADS  # noqa: E402

#: the metrics the JSON result carries, and their bounds
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: end-to-end metrics in print order. Those not in BENCHMARK.json are printed
#: and recorded only: train_s and train_steps_per_s are absent on
#: hard-oracle-eval, test_reward is 0.0 for the untrained MLP and must not
#: change at all at one seed, and failed_share is 0, so a share-of-median
#: bound cannot apply to them.
#: eval_s varies with the seed by up to a quarter on medium-lnn (whether the
#: first eval comes before the agent has learned), so eval speed is gated
#: through eval_steps_per_s, which gives the same before/after ratio at one
#: seed when the eval steps do not change.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("train_s", "s"),
    ("eval_s", "s"),
    ("train_steps_per_s", "1/s"),
    ("eval_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("test_reward", "reward"),
    ("failed_share", "share"),
)

DEADLINE_S = 170.0        # an invocation must end within 180 s
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


class Session:
    """Starts worker processes for one invocation and keeps their records."""

    def __init__(self, args, out: Path):
        self.args = args
        self.out = out
        self.started = time.perf_counter()
        self.records: list[dict] = []
        self.env = dict(os.environ, **{name: "1" for name in THREAD_ENV})

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def run(self, kind: str) -> dict:
        """kind is 'plain' or 'traced'; returns the worker's record."""
        index = len(self.records)
        rep_dir = self.out / f"rep{index}-{kind}"
        cmd = [sys.executable, str(WORKER), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--out", str(rep_dir)]
        if kind == "traced":
            cmd.append("--trace")
        if self.args.smoke:
            cmd.append("--smoke")
        record = {"kind": kind, "failures": []}
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.remaining()))
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-3:]
                record["failures"].append(f"worker exited {proc.returncode}: {' | '.join(tail)}")
            else:
                record.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        except subprocess.TimeoutExpired:
            record["failures"].append("worker timed out")
        except (json.JSONDecodeError, IndexError) as exc:
            record["failures"].append(f"worker printed no record: {exc}")
        self.records.append(record)
        return record


def warm_up(session: Session) -> None:
    """Import the worker and the program once, so that the first repetition
    finds the bytecode and file caches as the others do."""
    code = f"import sys; sys.path[:0] = [{str(BENCH_DIR)!r}, {str(ROOT / 'src')!r}]; " \
           "import worker, lnnrl.cli"
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=session.env,
                   capture_output=True, timeout=max(1.0, session.remaining()))


def run_session(args, session: Session) -> None:
    """Warm-up, then repetitions until --seconds have passed."""
    warm_up(session)
    kinds = ("plain", "traced") if args.trace else ("plain",)
    minimum = 1 if args.trace else 2
    begin = time.perf_counter()
    longest = 0.0
    rounds = 0
    while True:
        for kind in kinds:
            t = time.perf_counter()
            session.run(kind)
            longest = max(longest, time.perf_counter() - t)
        rounds += 1
        if session.remaining() < 1.5 * longest:
            break
        if rounds >= minimum and time.perf_counter() - begin >= args.seconds:
            break


def check_identical(records: list[dict]) -> None:
    """Every full repetition ran the same inputs, so artifacts must match."""
    full = [r for r in records if "digest" in r]
    for r in full[1:]:
        if r["digest"] != full[0]["digest"]:
            changed = sorted(k for k in set(r["digest"]) | set(full[0]["digest"])
                             if r["digest"].get(k) != full[0]["digest"].get(k))
            r["failures"].append(f"artifacts differ from the first repetition: {changed}")


def show(value) -> str:
    return "absent" if value is None else f"{value:.6g}"


def median_of(records: list[dict], fn) -> float | None:
    values = [v for v in (fn(r) for r in records) if v is not None]
    return statistics.median(values) if values else None


def ratio(a, b):
    return a / b if a and b else None


def end_to_end(records: list[dict], attempted: int, failed: int) -> dict[str, float | None]:
    # a repetition that failed an output check still measured its times
    ok = [r for r in records if "setup_s" in r]
    plain = [r for r in ok if r["kind"] == "plain"]
    first = plain[0] if plain else {}
    return {
        "setup_s": median_of(plain, lambda r: r["setup_s"]),
        "wall_s": median_of(plain, lambda r: r["wall_s"]),
        "train_s": median_of(plain, lambda r: r["train_s"] or None),
        "eval_s": median_of(plain, lambda r: r["eval_s"] or None),
        "train_steps_per_s": median_of(plain, lambda r: ratio(r["train_steps"], r["train_s"])),
        "eval_steps_per_s": median_of(plain, lambda r: ratio(r["eval_steps"], r["eval_s"])),
        "peak_rss_mb": median_of(plain, lambda r: r["peak_rss_mb"]),
        "test_reward": first.get("test_reward"),
        "failed_share": failed / attempted,
    }


def per_layer(records: list[dict]) -> tuple[dict[str, tuple[float | None, str]], list[str], list[str]]:
    """Per-layer metrics from the traced repetitions: counts from the first
    (they must repeat exactly), times as medians, None for the times of a
    hook never called; plus absent hook names and printed notes."""
    traced = [r for r in records if r["kind"] == "traced" and "spans" in r]
    notes: list[str] = []
    if not traced:
        return {}, [], notes
    for r in traced[1:]:
        if {k: v["calls"] for k, v in r["spans"].items()} != \
                {k: v["calls"] for k, v in traced[0]["spans"].items()}:
            r["failures"].append("traced call counts differ between repetitions")
    spans = traced[0]["spans"]
    metrics: dict[str, tuple[float, str]] = {}
    for name in HOOKS:
        if name not in spans:
            continue
        calls = spans[name]["calls"]
        metrics[f"{name}.calls"] = (calls, "count")

        def median_s(key: str) -> float | None:
            return median_of(traced, lambda r: r["spans"][name][key]) if calls else None

        def per_call_us(key: str) -> float | None:
            return median_s(key) * 1e6 / calls if calls else None

        metrics[f"{name}.us_per_call"] = (per_call_us("total_s"), "us")
        if name in HAS_TRACED_CHILDREN:
            metrics[f"{name}.self_us_per_call"] = (per_call_us("self_s"), "us")
        if name in REPORT_TOTAL:
            metrics[f"{name}.total_s"] = (median_s("total_s"), "s")
    forwards = spans.get("lnn.forward", {}).get("calls")
    steps = spans.get("worldsim.step", {}).get("calls")
    if forwards is not None and steps:
        metrics["agent.forward_per_env_step"] = (forwards / steps, "calls/step")
        notes.append(f"agent.forward_per_env_step = {forwards / steps:.4f} "
                     f"({forwards} lnn.forward calls / {steps} worldsim.step calls)")
    plain_wall = median_of([r for r in records if r["kind"] == "plain" and "wall_s" in r],
                           lambda r: r["wall_s"])
    traced_wall = median_of(traced, lambda r: r["wall_s"])
    if plain_wall is not None:
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        notes.append(f"trace.overhead_s = {traced_wall - plain_wall:.4f} s "
                     f"(traced wall {traced_wall:.4f} s - untraced wall {plain_wall:.4f} s)")
    return metrics, traced[0].get("absent", []), notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / ".bench_runs"),
                        help="directory for run outputs and the BENCH_<tag>.json result file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes that only exercise the plumbing")
    args = parser.parse_args(argv)
    # a terminated benchmark raises SystemExit, and subprocess.run then kills
    # and reaps the worker it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "lnnrl" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src' / 'lnnrl'}", file=sys.stderr)
        return 2

    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = Path(args.out)
    shutil.rmtree(out / tag, ignore_errors=True)
    (out / tag).mkdir(parents=True)

    session = Session(args, out / tag)
    run_session(args, session)
    records = session.records
    check_identical(records)
    layer, absent, notes = per_layer(records) if args.trace else ({}, [], [])
    attempted = len(records)
    failed = sum(1 for r in records if r["failures"])
    e2e = end_to_end(records, attempted, failed)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  "
          f"load {' '.join(f'{x:.2f}' for x in env['loadavg'])}")
    counts = {k: sum(1 for r in records if r["kind"] == k) for k in ("plain", "traced")}
    print(f"processes: {counts['plain']} untraced, {counts['traced']} traced; "
          f"{failed} of {attempted} failed")
    for r in records:
        for failure in r["failures"]:
            print(f"FAILED {r['kind']}: {failure}")
    print(f"{'metric':36s} {'value':>16s}  unit")
    gated = {m["name"] for m in SPEC["end_to_end"]}
    for name, unit in END_TO_END:
        print(f"{name:36s} {show(e2e[name]):>16s}  {unit}{'' if name in gated else '  (not gated)'}")
    if args.trace:
        print("per-layer (counts exact; times are medians over traced repetitions)")
        for name, (value, unit) in layer.items():
            print(f"{name:36s} {show(value):>16s}  {unit}")
        print(f"absent hooks: {', '.join(absent) if absent else 'none'}")
        for note in notes:
            print(note)

    measured = layer if args.trace else {name: (e2e[name], unit) for name, unit in END_TO_END}
    metrics = {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
               for m in SPEC["per_layer" if args.trace else "end_to_end"]
               if measured.get(m["name"], (None,))[0] is not None}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    (out / f"BENCH_{tag}.json").write_text(json.dumps({
        "tag": tag, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": env, "end_to_end": e2e,
        "per_layer": {k: v for k, (v, _) in layer.items()}, "absent": absent,
        "result": result, "records": records,
    }, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
