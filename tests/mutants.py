"""Mutation checks: each entry breaks `src/lnnrl` in one place and names
the tests that must catch it.

An entry is the file, the exact snippet, which must occur in it exactly once
(`tests/test_mutants.py` checks that in tier-1), its replacement, and the
test ids, as pytest prints them, that must fail on the mutant. A refactor that
moves a snippet updates its entry; a mutant whose tests pass is a gap in the
tests, not an entry to drop.

    python tests/mutants.py [NAME ...]

copies the tree into a temporary directory per mutant, applies it, and runs
its tests there: each named test must fail. The unmutated copy must then pass
every named test. Exit status 0 means every mutant was caught.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    # --- logic network ------------------------------------------------------
    Mutant("checkpoint-15-digits", "src/lnnrl/lnn.py",
           'return format(float(x), ".17g")',
           'return format(float(x), ".15g")',
           ("tests/test_lnn.py::test_checkpoint_round_trip_is_exact",)),
    Mutant("project-keeps-or-weights-above-1", "src/lnnrl/lnn.py",
           "b[k + arity + 1] = clamp01(b[k + arity + 1])",
           "b[k + arity + 1] = max(b[k + arity + 1], 0.0)",
           ("tests/test_agent.py::test_projection_keeps_every_parameter_in_its_domain",
            "tests/test_agent.py::test_projection_equals_np_clip_bit_for_bit",
            "tests/test_agent.py::test_memo_entries_equal_a_fresh_forward")),
    Mutant("project-skips-the-and-bias", "src/lnnrl/lnn.py",
           "for i in range(k, k + arity + 1):",
           "for i in range(k, k + arity):",
           ("tests/test_agent.py::test_projection_keeps_every_parameter_in_its_domain",
            "tests/test_agent.py::test_projection_equals_np_clip_bit_for_bit",
            "tests/test_lnn.py::test_an_induced_gate_gets_no_gradient_so_any_adam_count_leaves_it")),
    Mutant("rows-reverse-the-or-weights", "src/lnnrl/lnn.py",
           "return [(tuple(b[k:k + arity]), b[k + arity], b[k + arity + 1]) for k in self._blocks()]",
           "return [(tuple(b[k:k + arity]), b[k + arity], b[j + arity + 1])\n"
           "                for k, j in zip(self._blocks(), reversed(self._blocks()))]",
           ("tests/test_lnn.py::test_rules_keep_only_heavy_literals_and_sort_by_or_weight",
            "tests/test_lnn.py::test_rows_rebuild_the_buffer_and_a_checkpoint_reads_them_back")),
    Mutant("constructor-skips-check-alpha", "src/lnnrl/lnn.py",
           "        check_alpha(alpha)\n        if gate_cap < 1:",
           "        if gate_cap < 1:",
           ("tests/test_lnn.py::test_alpha_outside_its_range_is_refused",
            "tests/test_lnn.py::test_checkpoint_rejects_damaged_files[alpha_out_of_range]")),
    Mutant("constructor-skips-the-domain", "src/lnnrl/lnn.py",
           '        _check_domain(f"{category} network", buffer, buffer[arity + 2::arity + 2])\n',
           "",
           ("tests/test_lnn.py::test_nonnegativity_enforced_at_construction",
            "tests/test_lnn.py::test_the_constructor_refuses_what_a_checkpoint_refuses[nan_weight]",
            "tests/test_lnn.py::test_the_constructor_refuses_what_a_checkpoint_refuses[infinite_or_bias]",
            "tests/test_lnn.py::test_the_constructor_refuses_what_a_checkpoint_refuses[or_weight_above_one]",
            "tests/test_lnn.py::test_checkpoint_rejects_damaged_files[nan_bias]",
            "tests/test_lnn.py::test_checkpoint_rejects_damaged_files[or_weight_above_one]")),
    # --- scorers and the episode loop ----------------------------------------
    Mutant("lnn-step-keeps-the-memo", "src/lnnrl/agent.py",
           "            self.nets[category].project()\n        self.memo.clear()",
           "            self.nets[category].project()",
           ("tests/test_agent.py::test_memo_entries_equal_a_fresh_forward",
            "tests/test_agent.py::test_a_traced_exploring_episode_writes_fresh_greedy_scores[lnn]")),
    Mutant("induction-keeps-the-memo", "src/lnnrl/agent.py",
           "if self.nets[chosen.category].induce(self._forward(chosen)[1]) is not None:\n"
           "                self.memo.clear()",
           "if self.nets[chosen.category].induce(self._forward(chosen)[1]) is not None:\n"
           "                pass",
           ("tests/test_agent.py::test_memo_entries_equal_a_fresh_forward",)),
    Mutant("mlp-step-keeps-the-memo", "src/lnnrl/baseline.py",
           "    def after_step(self, stepped) -> None:\n        self.memo.clear()",
           "    def after_step(self, stepped) -> None:\n        pass",
           ("tests/test_baseline.py::test_mlp_memo_entries_equal_a_fresh_forward",
            "tests/test_baseline.py::test_regression_loss_decreases_on_fixed_transition",
            "tests/test_agent.py::test_a_traced_exploring_episode_writes_fresh_greedy_scores[mlp]")),
    Mutant("memo-deepcopy-copies-nothing", "src/lnnrl/agent.py",
           "        return Memo(self)",
           "        return Memo()",
           ("tests/test_agent.py::test_memo_keys_records_by_identity_and_a_deep_copy_shares_its_entries",
            "tests/test_baseline.py::test_a_deep_copy_points_into_its_own_buffer_and_shares_the_memo")),
    Mutant("back-out-bonus-reads-visited", "src/lnnrl/agent.py",
           "props_before.initial_dir[action.noun]",
           "props_before.visited_dir[action.noun]",
           ("tests/test_agent.py::test_shaping_from_the_facts_equals_shaping_from_the_map",)),
    Mutant("read-room-keeps-nothing", "src/lnnrl/agent.py",
           "parsed = graph.readings[room] = parse_observation(render_observation(graph, room))",
           "parsed = parse_observation(render_observation(graph, room))",
           ("tests/test_agent.py::test_each_observation_is_read_once_and_equals_a_fresh_reading",
            "tests/test_worldsim.py::test_a_game_renders_and_parses_each_room_once_across_episodes")),
    # an eval keeps its choice only while the records it chose on stand;
    # training asks on every step, since it explores and learns
    Mutant("eval-keeps-its-choice-in-a-new-state", "src/lnnrl/agent.py",
           'keep = mode == "eval" and next_props is props and next_candidates is candidates',
           'keep = mode == "eval"',
           ("tests/test_agent.py::test_an_evaluation_asks_its_player_once_per_state[oracle]",
            "tests/test_agent.py::test_each_observation_is_read_once_and_equals_a_fresh_reading",
            "tests/test_golden.py::test_training_artifacts_match_pins[lnn]",
            "tests/test_golden.py::test_oracle_eval_line_on_hard_maps_matches_pin")),
    Mutant("training-keeps-its-choice", "src/lnnrl/agent.py",
           'keep = mode == "eval" and next_props is props and next_candidates is candidates',
           "keep = next_props is props and next_candidates is candidates",
           ("tests/test_agent.py::test_each_observation_is_read_once_and_equals_a_fresh_reading",
            "tests/test_golden.py::test_training_artifacts_match_pins[lnn]",
            "tests/test_golden.py::test_training_artifacts_match_pins[nn]")),
    Mutant("eval-accepts-a-trace", "src/lnnrl/agent.py",
           '    if trace is not None and mode != "train":\n'
           '        raise ValueError("only a training episode writes a trace")\n',
           "",
           ("tests/test_agent.py::test_an_eval_episode_refuses_a_trace_before_its_first_step",)),
    # --- world, baseline, CLI ------------------------------------------------
    # the logic agent's candidate order follows the hash seed (the MLP scores
    # all ten actions, so `nn` runs do not move); criterion 10 misses this,
    # since its two runs share one process and so one hash seed
    Mutant("candidates-follow-a-frozenset", "src/lnnrl/lexicon.py",
           "            for noun in NOUNS\n",
           "            for noun in frozenset(NOUNS)\n",
           ("tests/test_acceptance.py::test_reruns_are_byte_identical_across_processes_and_hash_seeds[lnn]",)),
    Mutant("world-imports-dataclasses", "src/lnnrl/worldsim.py",
           "import itertools\n",
           "import itertools\nfrom dataclasses import dataclass\n",
           ("tests/test_cli.py::test_importing_the_cli_loads_neither_dataclasses_nor_inspect",)),
    Mutant("distractor-cells-in-offset-order", "src/lnnrl/worldsim.py",
           "for cell in [(x + dx, y + dy) for dx, dy in _DIRECTION_OFFSETS]",
           "for cell in [(x + dx, y + dy) for dx, dy in _OFFSET.values()]",
           ("tests/test_worldsim.py::test_generated_maps_and_texts_match_their_pin",)),
    Mutant("mlp-draws-w2-first", "src/lnnrl/baseline.py",
           '        w1 = [rng.normalvariate(0.0, math.sqrt(2.0 / N_INPUTS)) for _ in range(ROW_SIZES["w1"])]\n'
           '        w2 = [rng.normalvariate(0.0, math.sqrt(1.0 / N_HIDDEN)) for _ in range(ROW_SIZES["w2"])]\n',
           '        w2 = [rng.normalvariate(0.0, math.sqrt(1.0 / N_HIDDEN)) for _ in range(ROW_SIZES["w2"])]\n'
           '        w1 = [rng.normalvariate(0.0, math.sqrt(2.0 / N_INPUTS)) for _ in range(ROW_SIZES["w1"])]\n',
           ("tests/test_reference_trainer.py::test_the_trainer_writes_what_the_reference_loop_writes",)),
    Mutant("play-ignores-the-run-dir", "src/lnnrl/cli.py",
           "    if args.run_dir:\n        _, nets = _load_run(args.run_dir, args.seed_index)",
           "    if False:\n        _, nets = _load_run(args.run_dir, args.seed_index)",
           ("tests/test_cli.py::test_play_with_a_run_dir_scores_with_the_run_networks",)),
    # criterion 10 compares whole run directories, so an unlisted file fails it
    Mutant("a-run-writes-an-unlisted-file", "src/lnnrl/harness.py",
           '    (out / "config.txt").write_text(config.to_text(), encoding="utf-8")\n',
           '    (out / "config.txt").write_text(config.to_text(), encoding="utf-8")\n'
           '    (out / "timing.txt").write_text(repr(__import__("time").time()), encoding="utf-8")\n',
           ("tests/test_acceptance.py::test_criterion_10_byte_identical_reruns",)),
    # a second run into a run directory would leave the first run's files
    Mutant("train-into-a-run-directory", "src/lnnrl/harness.py",
           "    if held:\n        raise ConfigError(",
           "    if False:\n        raise ConfigError(",
           ("tests/test_cli.py::test_train_into_a_run_directory_exits_2_and_leaves_the_run_as_it_was",
            "tests/test_harness.py::test_a_directory_holding_a_run_file_is_refused_before_anything_is_written[config.txt]",
            "tests/test_harness.py::test_a_directory_holding_a_run_file_is_refused_before_anything_is_written[seed*/mlp.txt]")),
    # --- what a deletion leaves behind ----------------------------------------
    Mutant("an-unread-import", "src/lnnrl/lnn.py",
           "import contextlib\n",
           "import contextlib\nimport os\n",
           ("tests/test_source.py::test_every_top_level_import_is_read[lnn.py]",)),
    Mutant("an-unreferenced-private-name", "src/lnnrl/lnn.py",
           "DEFAULT_ALPHA = 0.75\n",
           "DEFAULT_ALPHA = 0.75\n_LEFT_BEHIND = 1\n",
           ("tests/test_source.py::test_every_private_module_level_name_is_referenced",)),
    Mutant("a-function-only-tests-call", "src/lnnrl/harness.py",
           "def moving_average(",
           "def mean_of(values):\n    return sum(values) / len(values)\n\n\ndef moving_average(",
           ("tests/test_source.py::test_every_definition_is_reached_by_the_package_the_bench_or_all",)),
)


def _copy_tree(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_runs", "*.egg-info"))


def _failed(tree: Path, tests: tuple[str, ...]) -> tuple[int, set[str]]:
    """pytest's exit status on `tests` in `tree`, and the ids that failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf", "--tb=no", *tests],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}
    return done.returncode, failed


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.snippet) != 1:
        raise SystemExit(f"{mutant.name}: the snippet occurs {text.count(mutant.snippet)} "
                         f"times in {mutant.path}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement), encoding="utf-8")


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    survivors = []
    with tempfile.TemporaryDirectory() as scratch:
        clean = Path(scratch) / "clean"
        _copy_tree(clean)
        status, failed = _failed(clean, tuple(t for m in chosen for t in m.tests))
        if status != 0:
            print(f"the unmutated tree fails: {sorted(failed) or f'pytest exit {status}'}")
            return 1
        for mutant in chosen:
            tree = Path(scratch) / mutant.name
            _copy_tree(tree)
            apply(tree, mutant)
            status, failed = _failed(tree, mutant.tests)
            missed = [t for t in mutant.tests if t not in failed]
            # 1 is "some tests failed"; anything else is an error, not a catch
            if status != 1 or missed:
                survivors.append(mutant.name)
                print(f"SURVIVED {mutant.name}: exit {status}, passed {missed}")
            else:
                print(f"caught   {mutant.name}: {len(failed)} failed")
            shutil.rmtree(tree)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
