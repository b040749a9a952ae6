"""Span tracing of lnnrl's public functions, installed from outside the package.

The benchmark's traced mode wraps each function in `HOOKS` with a recorder
that keeps one span per call (name, parent span, start, end) in flat arrays,
so the wrappers cost two clock reads and a few appends. Spans are written
out and summarised only after the timed region.

Wrappers are installed wherever the name is used, not only where it is
defined: `agent.py` and `harness.py` bind `step`, `parse_observation`,
`generate_game` and friends with `from ... import`, so every module of the
package that holds the original object gets the wrapper. Methods are patched
on the class that defines them. A hook whose target no longer exists is
reported as absent and the run goes on without it.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

PACKAGE = "lnnrl"

#: metric name -> targets as (module, qualified name). Every target that
#: resolves is wrapped under the metric name; none resolving means absent.
HOOKS: dict[str, tuple[tuple[str, str], ...]] = {
    "lnn.forward": (("lnnrl.lnn", "LnnNetwork.forward"),),
    "lnn.gradients": (("lnnrl.lnn", "LnnNetwork.gradients"),),
    "lnn.add_and_gate": (("lnnrl.lnn", "LnnNetwork.add_and_gate"),),
    "lnn.save_network": (("lnnrl.lnn", "save_network"),),
    "lnn.load_network": (("lnnrl.lnn", "load_network"),),
    "optim.step": (("lnnrl.optim", "AdamOptimizer.step"),),
    "agent.select_action": (("lnnrl.agent", "select_action"),),
    "agent.td_target": (("lnnrl.agent", "td_target"),),
    "agent.train_step": (("lnnrl.agent", "LnnAgent.train_step"),
                         ("lnnrl.baseline", "MlpAgent.train_step")),
    "agent.enumerate_candidates": (("lnnrl.agent", "enumerate_candidates"),),
    "worldsim.step": (("lnnrl.worldsim", "step"),),
    "worldsim.generate_game": (("lnnrl.worldsim", "generate_game"),),
    "factextract.parse_observation": (("lnnrl.factextract", "parse_observation"),),
    "factextract.extract_propositions": (("lnnrl.factextract", "extract_propositions"),),
    "baseline.forward": (("lnnrl.baseline", "MlpScorer.forward"),),
    "baseline.gradients": (("lnnrl.baseline", "MlpScorer.gradients"),),
    "harness.evaluate": (("lnnrl.harness", "evaluate"),),
}

#: hooks whose calls contain other hooked calls, so self time differs from total
HAS_TRACED_CHILDREN = (
    "agent.select_action",
    "agent.td_target",
    "agent.train_step",
    "lnn.gradients",
    "harness.evaluate",
)

#: hooks also reported as total seconds (phase and checkpoint I/O split)
REPORT_TOTAL = ("harness.evaluate", "lnn.save_network", "lnn.load_network")


def rebind(original, replacement) -> int:
    """Point every module-level name of the package bound to `original` at
    `replacement`; returns how many bindings changed."""
    changed = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed += 1
    return changed


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, original) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # patch the class that defines the method, so subclasses see it too
        for klass in owner.__mro__:
            if attr in vars(klass):
                return klass, attr, vars(klass)[attr]
        return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.absent: list[str] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        clock = time.perf_counter
        stack = self._stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def install(self, hooks: dict = HOOKS) -> None:
        """Wrap every resolvable hook target; record the names with none."""
        for name, targets in hooks.items():
            patched = set()
            for module_name, qualname in targets:
                found = _resolve(module_name, qualname)
                if found is None:
                    continue
                owner, attr, original = found
                if (id(owner), attr) in patched:
                    continue
                patched.add((id(owner), attr))
                wrapper = self.wrap(name, original)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                else:
                    rebind(original, wrapper)
            if not patched:
                self.absent.append(name)

    def write_spans(self, path) -> None:
        """One tab-separated row per span: index, name, parent index (-1 at
        the top), start and end in µs since the first span started."""
        origin = self.starts[0] if self.starts else 0.0
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tparent\tstart_us\tend_us\n")
            for i, (n, p, s, e) in enumerate(zip(self.name_ids, self.parents, self.starts, self.ends)):
                fh.write(f"{i}\t{names[n]}\t{p}\t{(s - origin) * 1e6:.3f}\t{(e - origin) * 1e6:.3f}\n")

    def summary(self) -> dict[str, dict[str, float]]:
        return summarize(self.names, self.name_ids, self.parents, self.starts, self.ends)


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children are clipped to the parent's interval and merged before their
    coverage is subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            lo, hi = max(starts[i], starts[p]), min(ends[i], ends[p])
            if hi > lo:
                children.setdefault(p, []).append((lo, hi))
    out = [e - s for s, e in zip(starts, ends)]
    for p, intervals in children.items():
        intervals.sort()
        covered = 0.0
        cur_lo, cur_hi = intervals[0]
        for lo, hi in intervals[1:]:
            if lo > cur_hi:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def summarize(names, name_ids, parents, starts, ends) -> dict[str, dict[str, float]]:
    """Per name: calls, total seconds and self seconds."""
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
    for i, own in enumerate(self_times(parents, starts, ends)):
        entry = stats[names[name_ids[i]]]
        entry["calls"] += 1
        entry["total_s"] += ends[i] - starts[i]
        entry["self_s"] += own
    return stats
