"""Small named-parameter Adam.

Parameters are numpy arrays addressed by name so networks can grow while
training: when a parameter shows up with a larger shape (the OR root after a
gate was added), its first and second moments are zero-padded to match, and
freshly added parameters start their own bias-correction clock.

A 0-d parameter (a bias) keeps its moments as Python floats and is updated on
Python floats: the same IEEE operations in the same order as numpy's, without
a numpy call per operation (`math.sqrt` is correctly rounded, like
`np.sqrt`). Vectors are updated in place on their own moment arrays.
"""

from __future__ import annotations

import math

import numpy as np


# the usual decay rates and denominator guard; beta in [0, 1) and eps > 0 keep
# every bias correction and denominator nonzero
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class AdamOptimizer:
    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate
        # name -> [m, v, t]; m and v are floats for a 0-d parameter
        self._state: dict[str, list] = {}

    def _moments(self, name: str, shape) -> list:
        state = self._state.get(name)
        if state is None:
            state = [np.zeros(shape), np.zeros(shape), 0] if shape else [0.0, 0.0, 0]
            self._state[name] = state
        elif shape and state[0].shape != shape:
            # parameter grew (only 1-D vectors do): zero-pad the moments
            for i in (0, 1):
                grown = np.zeros(shape)
                grown[: state[i].shape[0]] = state[i]
                state[i] = grown
        return state

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One update, in place, for every parameter that received a gradient."""
        beta1, beta2, lr, eps = BETA1, BETA2, self.learning_rate, EPS
        for name, grad in grads.items():
            param = params[name]
            state = self._moments(name, param.shape)
            m, v, t = state
            t += 1
            state[2] = t
            c1 = 1.0 - beta1 ** t
            c2 = 1.0 - beta2 ** t
            if param.ndim == 0:
                g = float(grad)
                m = state[0] = beta1 * m + (1.0 - beta1) * g
                v = state[1] = beta2 * v + (1.0 - beta2) * g * g
                param[...] = float(param) - lr * (m / c1) / (math.sqrt(v / c2) + eps)
            else:
                m *= beta1
                m += (1.0 - beta1) * grad
                v *= beta2
                v += (1.0 - beta2) * grad * grad
                param -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
