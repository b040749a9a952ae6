"""Small Adam over named parameter vectors, with one step count per vector.

Each name is one vector updated in place: a logic network's parameter buffer,
a list of Python floats stepped element by element, or the MLP's float64
buffer, stepped by whole-array numpy operations. Both forms run Adam's
operations in the same order, so each element, a bias included, gets the
same IEEE results in either. Every element of a vector is stepped whenever
the vector is, so one int count serves them all; `1 - beta ** t` is computed
on Python floats, as `np.power` rounds some powers differently. numpy is
imported only when an array is stepped, so a logic run never loads it.

A list may grow at its end (induction appends a gate to its network's
buffer): its elements keep their places and moments, and the new tail starts
with zero moments at the vector's count. The induced gate's gradient is an
exact zero, so any count gives it a zero update. An array keeps its shape
(the MLP's buffer never grows); one that changes fails in numpy's broadcast.
"""

from __future__ import annotations

import math

# the usual decay rates and denominator guard; beta in [0, 1) and eps > 0 keep
# every bias correction and denominator nonzero
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamOptimizer:
    """Adam over named vectors, one state `[m, v, t]` per name: the moments,
    of the vector's own type, and its int step count."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self._state: dict[str, list] = {}

    def step(self, params: dict, grads: dict) -> None:
        """One update, in place, for every vector that received a gradient."""
        for name, grad in grads.items():
            param = params[name]
            if isinstance(param, list):
                self._step_floats(name, param, grad)
            else:
                self._step_array(name, param, grad)

    def _count(self, state: list) -> tuple[float, float]:
        """Move the state's count on; the two bias corrections at the new count."""
        t = state[2] = state[2] + 1
        return 1.0 - BETA1 ** t, 1.0 - BETA2 ** t

    def _step_floats(self, name: str, param: list[float], grad: list[float]) -> None:
        state = self._state.get(name)
        if state is None:
            state = self._state[name] = [[0.0] * len(param), [0.0] * len(param), 0]
        grown = len(param) - len(state[0])
        if grown < 0:
            raise ValueError(f"{name} shrank from {len(state[0])} to {len(param)} elements; "
                             "a vector may grow only at its end")
        for moment in state[:2]:
            moment += [0.0] * grown
        m, v = state[0], state[1]
        c1, c2 = self._count(state)
        lr = self.learning_rate
        for i, g in enumerate(grad):
            m[i] = m_i = m[i] * BETA1 + (1.0 - BETA1) * g
            v[i] = v_i = v[i] * BETA2 + (1.0 - BETA2) * g * g
            param[i] -= lr * (m_i / c1) / (math.sqrt(v_i / c2) + EPS)

    def _step_array(self, name: str, param, grad) -> None:
        import numpy as np   # only the MLP's buffer is an array

        state = self._state.get(name)
        if state is None:
            state = self._state[name] = [np.zeros(param.shape), np.zeros(param.shape), 0]
        m, v = state[0], state[1]
        c1, c2 = self._count(state)
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        param -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + EPS)
