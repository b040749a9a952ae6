"""Small named-parameter Adam.

Parameters are numpy arrays addressed by name so networks can grow while
training: when a parameter shows up with a larger shape (the OR root after a
gate was added), its first and second moments are zero-padded to match, and
freshly added parameters start their own bias-correction clock.
"""

from __future__ import annotations

import numpy as np


class AdamOptimizer:
    def __init__(self, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        # name -> [m, v, t]
        self._state: dict[str, list] = {}

    def _moments(self, name: str, shape) -> list:
        state = self._state.get(name)
        if state is None:
            state = [np.zeros(shape), np.zeros(shape), 0]
            self._state[name] = state
        elif state[0].shape != shape:
            # parameter grew (only 1-D vectors do): zero-pad the moments
            for i in (0, 1):
                grown = np.zeros(shape)
                grown[: state[i].shape[0]] = state[i]
                state[i] = grown
        return state

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One update, in place, for every parameter that received a gradient."""
        for name, grad in grads.items():
            param = params[name]
            m, v, t = self._moments(name, param.shape)
            t += 1
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            self._state[name] = [m, v, t]
            m_hat = m / (1.0 - self.beta1 ** t)
            v_hat = v / (1.0 - self.beta2 ** t)
            param[...] = param - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)
