"""Uniform time grid on a finite horizon."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Nodes ``t_k = k * delta`` for ``k = 0..steps`` on ``[0, horizon]``."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError("horizon must be positive and finite")
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise ValueError("need at least 2 steps")

    @property
    def delta(self) -> float:
        return self.horizon / self.steps

    @property
    def n_nodes(self) -> int:
        return self.steps + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_nodes) * self.delta

