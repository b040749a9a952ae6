"""Small Adam over named float64 arrays, with a step count per element.

Each name is one array updated in place by whole-array numpy operations: a
logic network's whole parameter buffer, or one of the MLP's arrays. Adam's
bias corrections `1 - beta ** t` depend on how often an element was stepped,
and elements of one buffer can differ: a gate induced mid-run starts its own
count, while the OR weights keep theirs. So the count is an int while every
element of the array shares it, and an int array otherwise; the corrections
are read from tables of Python floats indexed by it, because `np.power`
rounds some `beta ** t` differently. Every other operation is numpy's, in
the order Adam writes it, so each element, a bias included, gets the IEEE
results it would get updated on its own.

When an array has grown since its last step (induction added a gate), the
`relayout` given to the optimizer lays its moments and counts out again.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np


# the usual decay rates and denominator guard; beta in [0, 1) and eps > 0 keep
# every bias correction and denominator nonzero
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

#: (name, m, v, t) -> (m, v, t) laid out for the name's grown array; t is an
#: int array, one count per element
Relayout = Callable[[str, np.ndarray, np.ndarray, np.ndarray],
                    tuple[np.ndarray, np.ndarray, np.ndarray]]


class AdamOptimizer:
    def __init__(self, learning_rate: float = 1e-3, relayout: Relayout | None = None):
        self.learning_rate = learning_rate
        self.relayout = relayout
        # name -> [m, v, t, top]: the moments, the step count (an int, or an
        # int array once the elements' counts differ) and the largest count
        self._state: dict[str, list] = {}
        # 1 - beta ** t for t = 0, 1, ..., grown as the counts grow
        self._c1 = self._c2 = np.empty(0)

    def _grow_tables(self, top: int) -> None:
        n = max(2 * len(self._c1), top + 1)
        self._c1 = np.array([1.0 - BETA1 ** t for t in range(n)])
        self._c2 = np.array([1.0 - BETA2 ** t for t in range(n)])

    def _relayout(self, name: str, state: list, shape) -> None:
        if self.relayout is None:
            raise ValueError(f"{name} changed shape from {state[0].shape} to {shape}, "
                             "and the optimizer has no relayout")
        m, v, t = state[:3]
        if not isinstance(t, np.ndarray):
            t = np.full(m.shape, t)
        state[:3] = self.relayout(name, m, v, t)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One update, in place, for every array that received a gradient."""
        lr = self.learning_rate
        for name, grad in grads.items():
            param = params[name]
            state = self._state.get(name)
            if state is None:
                state = self._state[name] = [np.zeros(param.shape), np.zeros(param.shape), 0, 0]
            elif state[0].shape != param.shape:
                self._relayout(name, state, param.shape)
            m, v, t, top = state
            t = state[2] = t + 1
            top = state[3] = top + 1
            if top >= len(self._c1):
                self._grow_tables(top)
            c1, c2 = self._c1[t], self._c2[t]
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            param -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)
