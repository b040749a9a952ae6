"""Golden pins: the sha256 of every file of two small training runs, one per
agent kind, each a file `harness.RUN_FILES` lists, and the exact `lnnrl eval`
line of the hand-wired rule networks on hard maps.

A refactor that moves a single bit of the learning dynamics (summation
order, an extra random draw, a changed clamp) fails here even when every
convergence criterion still holds. Change a pin only for an intended change
of behaviour, and say why in CHANGES.md.

Every pinned artifact is also kept as a file under `tests/golden/<agent>/`,
the file its digest pins, so a failure says what moved: a unified diff of a
small artifact, the first differing line of a trace or `mlp.txt` (kept
xz-compressed), and for `mlp.txt` how many of its values moved and by how
many ulps at most.
"""

import difflib
import hashlib
import itertools
import lzma
import math
import struct
from fnmatch import fnmatch
from pathlib import Path

import pytest

from lnnrl.agent import scripted_rule_networks
from lnnrl.cli import main
from lnnrl.harness import RUN_FILES, ExperimentConfig, run_experiment
from lnnrl.lnn import save_network

RUN = dict(difficulty="medium", epochs=30, eval_interval=10, n_seeds=2,
           n_train_games=8, n_test_per_level=2, base_seed=31)

GOLDEN = {
    "lnn": {
        "config.txt": "19e620154cfda2e823c8800d8e567e8c3371acfcb1974bf57054a3c58522f225",
        "metrics.csv": "ce02e342bfa19e41e6b5e2e86423e3efc4860aa9986c9ba1bfa678605329997a",
        "rules_seed0.txt": "7ae256ccf54c5f6805292278cac20417b15bde70d29543692c3a6156e2f2c1bd",
        "rules_seed1.txt": "7ae256ccf54c5f6805292278cac20417b15bde70d29543692c3a6156e2f2c1bd",
        "trace_seed0.txt": "1a809adec370e372e8e4a4a4096ea8782d4cd06d771836426773068d08c8ed18",
        "trace_seed1.txt": "64476b3615d337b3c839ca998651c04c8e0db31f6583be0c35984277a6cc5c24",
        "seed0/direction.lnn": "0e8098660266170cfdc0938a9c31c5d52dca10b4b1f6f79c12cfb716bb82fbf2",
        "seed0/money.lnn": "0f798d5c7629815069868d2d69d21e1c3851ba38bd412c96cd828c4dab7e8882",
        "seed1/direction.lnn": "d716ecd3257c86ed034fb7d8c35018cfc5e1f7834632b17392b7f2e3e216ba3b",
        "seed1/money.lnn": "3df08a1fa8b608f0e5c4943d91b14e6bea36e54516cdd4ca75295945209f3561",
    },
    "nn": {
        "config.txt": "6ad8e9c232cd1c6f327adaf110c5ea257b823ad3f9d20ca9398591b1098a301c",
        "metrics.csv": "c78afa6b25a648cc8fb570168e0347b6a08db984d7c8da1f758cc766f49dd4bc",
        "trace_seed0.txt": "de03b6c2bc619ff5ce0ee686c3d4b45a1196851a00c127c491b3045e5a117f22",
        "trace_seed1.txt": "5f271746366c02d9eac9176c0d4bd704ee42380ee3c7a0201aa1aa7e0d09d909",
        "seed0/mlp.txt": "70f5babefc62e6e02b83082c7dd15385aac0d0db86c349b34bbab370d4f4c816",
        "seed1/mlp.txt": "7272af0facb3f6a19c914f8d0331f89141dd54d567ee357d66cb38c33e6f02d1",
    },
}

ORACLE_HARD_EVAL = "test games: 20  mean_reward=0.900000  mean_steps=44.250000\n"

GOLDEN_DIR = Path(__file__).parent / "golden"

#: kept as `<name>.xz`: 300-420 KB traces and a 49 KB checkpoint of 2,378 values
COMPRESSED = ("trace_seed*.txt", "seed*/mlp.txt")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_files(root: Path, agent: str, traced: bool = True) -> dict[str, bytes]:
    """The bytes of every file in the run directory `root`, by its path
    relative to it. Each pattern of `RUN_FILES[agent]` must name a file, and
    each file must match a pattern; a run writes traces only when `traced`."""
    patterns = [p for p in RUN_FILES[agent] if traced or not p.startswith("trace")]
    listed = {path for pattern in patterns for path in root.glob(pattern)}
    unlisted = [path for path in root.rglob("*") if path.is_file() and path not in listed]
    unmatched = [pattern for pattern in patterns if not any(root.glob(pattern))]
    assert (unlisted, unmatched) == ([], []), f"{root}: unlisted files, patterns naming no file"
    return {path.relative_to(root).as_posix(): path.read_bytes() for path in sorted(listed)}


def compressed(name: str) -> bool:
    return any(fnmatch(name, pattern) for pattern in COMPRESSED)


def kept(agent, name) -> bytes:
    """The bytes of the kept copy of `agent`'s pinned artifact `name`."""
    path = GOLDEN_DIR / agent / name
    if compressed(name):
        return lzma.decompress(path.with_name(path.name + ".xz").read_bytes())
    return path.read_bytes()


#: how much of a differing line is shown, around its first differing character
WINDOW = 100


def first_difference(want: str, got: str) -> str:
    lines = itertools.zip_longest(want.splitlines(), got.splitlines(), fillvalue="")
    for number, (a, b) in enumerate(lines, 1):
        if a != b:
            column = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            start = max(0, column - WINDOW // 2)
            return (f"first differing line {number}, from column {start + 1}:\n"
                    f"  kept: {a[start:start + WINDOW]}\n  run:  {b[start:start + WINDOW]}")
    return "every line matches; the line endings differ"


def ulps(a: float, b: float) -> int:
    """How many steps apart `a` and `b` lie among the doubles."""
    def ordered(x):
        bits = struct.unpack("<q", struct.pack("<d", x))[0]
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)
    return abs(ordered(a) - ordered(b))


def value_moves(want: str, got: str) -> str:
    """How many of an `mlp.txt`'s values moved, and by how many ulps at most.
    Its first two lines are the header and the shape; each row after them
    is a name and its values."""
    def values(text):
        return [float(v) for row in text.splitlines()[2:] for v in row.split()[1:]]
    try:
        kept_values, run_values = values(want), values(got)
    except ValueError:
        return "the run's values do not parse"
    if len(kept_values) != len(run_values):
        return f"the run holds {len(run_values)} values where the pin holds {len(kept_values)}"
    steps = [ulps(a, b) for a, b in zip(kept_values, run_values)]
    return (f"{sum(1 for n in steps if n)} of {len(steps)} values differ, "
            f"the largest by {max(steps)} ulp")


def moved(agent, name, want: bytes, got: bytes | None) -> str:
    """What moved in `name`: a unified diff of the kept file and the run's,
    or for a compressed one the first differing line, and for `mlp.txt` its
    values that moved."""
    if got is None:
        return f"{name}: the run wrote no such file"
    kept_text, run_text = want.decode("utf-8"), got.decode("utf-8", "replace")
    if compressed(name):
        lines = f"{name} moved, {first_difference(kept_text, run_text)}"
        if fnmatch(name, "seed*/mlp.txt"):
            lines += "\n  " + value_moves(kept_text, run_text)
        return lines
    diff = difflib.unified_diff(kept_text.splitlines(keepends=True),
                                run_text.splitlines(keepends=True),
                                f"tests/golden/{agent}/{name}", f"run/{name}")
    return f"{name} moved:\n" + "".join(diff)


@pytest.mark.parametrize("agent", sorted(GOLDEN))
def test_training_artifacts_match_pins(agent, tmp_path):
    run_experiment(ExperimentConfig(agent=agent, **RUN), tmp_path, trace=True)
    files = run_files(tmp_path, agent)
    moves = []
    for name, pin in GOLDEN[agent].items():
        # the kept file is the pinned one, so a difference from it is one from the pin
        want = kept(agent, name)
        assert sha256(want) == pin, f"the kept copy of {agent}/{name} is not the pinned file"
        if files.get(name) != want:
            moves.append(moved(agent, name, want, files.get(name)))
    if moves:
        pytest.fail("\n".join(moves), pytrace=False)
    assert sorted(files) == sorted(GOLDEN[agent])


def test_a_moved_trace_or_checkpoint_names_its_first_line_and_its_values():
    trace = kept("lnn", "trace_seed0.txt")
    lines = trace.splitlines(keepends=True)
    lines[6] = lines[6].replace(b"reward=", b"reward=-")
    report = moved("lnn", "trace_seed0.txt", trace, b"".join(lines))
    assert report.startswith("trace_seed0.txt moved, first differing line 7, from column ")
    assert " reward=0.00\n  run:  " in report and report.endswith(" reward=-0.00")
    checkpoint = kept("nn", "seed0/mlp.txt")
    rows = checkpoint.decode("utf-8").splitlines(keepends=True)
    name, first, rest = rows[3].split(" ", 2)
    rows[3] = f"{name} {math.nextafter(float(first), math.inf)!r} {rest}"
    report = moved("nn", "seed0/mlp.txt", checkpoint, "".join(rows).encode("utf-8"))
    assert report.startswith("seed0/mlp.txt moved, first differing line 4, from column 1:\n")
    assert report.endswith("\n  1 of 2378 values differ, the largest by 1 ulp")


def test_oracle_eval_line_on_hard_maps_matches_pin(tmp_path, capsys):
    config = ExperimentConfig(difficulty="hard", n_test_per_level=4, n_seeds=1, base_seed=7)
    (tmp_path / "config.txt").write_text(config.to_text(), encoding="utf-8")
    (tmp_path / "seed0").mkdir()
    for category, net in scripted_rule_networks().items():
        save_network(net, tmp_path / "seed0" / f"{category}.lnn")
    assert main(["eval", "--run-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ORACLE_HARD_EVAL
