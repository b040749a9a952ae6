"""Small Adam over named float64 arrays, with one step count per array.

Each name is one array updated in place by whole-array numpy operations: a
logic network's whole parameter buffer, or one of the MLP's arrays. Every
element of an array is stepped whenever the array is, so one int count serves
them all; `1 - beta ** t` is computed on Python floats, as `np.power` rounds
some powers differently. Every other operation is numpy's, in Adam's order, so
each element, a bias included, gets the IEEE results it would get on its own.

When induction has grown an array, the `relayout` given to the optimizer lays
each moment out again, new elements 0. The induced gate joins at the array's
count: its gradient is an exact zero, so any count gives it a zero update.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np


# the usual decay rates and denominator guard; beta in [0, 1) and eps > 0 keep
# every bias correction and denominator nonzero
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

#: (name, moment) -> the moment laid out for the grown array, new elements 0
Relayout = Callable[[str, np.ndarray], np.ndarray]


class AdamOptimizer:
    """Adam over named arrays, one state `[m, v, t]` per name: the moments and
    the array's int step count."""

    def __init__(self, learning_rate: float = 1e-3, relayout: Relayout | None = None):
        self.learning_rate = learning_rate
        self.relayout = relayout
        self._state: dict[str, list] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One update, in place, for every array that received a gradient."""
        for name, grad in grads.items():
            param = params[name]
            state = self._state.get(name)
            if state is None:
                state = self._state[name] = [np.zeros(param.shape), np.zeros(param.shape), 0]
            elif state[0].shape != param.shape:
                if self.relayout is None:
                    raise ValueError(f"{name} changed shape from {state[0].shape} to "
                                     f"{param.shape}, and the optimizer has no relayout")
                state[:2] = [self.relayout(name, moment) for moment in state[:2]]
            m, v, t = state
            t = state[2] = t + 1
            c1, c2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            param -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + EPS)
