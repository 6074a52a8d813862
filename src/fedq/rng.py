"""Deterministic, path-derived random streams.

Every stochastic component of a run draws from a stream derived from
``(master_seed, path)`` where the path encodes who is drawing and when,
e.g. ``(agent, round, epoch)``.  Streams with distinct paths are
statistically independent, and the same ``(seed, path)`` always
reproduces the same sequence, so results cannot depend on the order in
which workers happen to execute.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParamOutOfRangeError


@dataclass(frozen=True)
class RngStream:
    """Handle for one derived random stream.

    The handle itself is stateless; :meth:`generator` materializes a fresh
    ``numpy.random.Generator`` positioned at the start of the stream.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ParamOutOfRangeError(f"seed must be non-negative, got {self.seed}")

    def child(self, *ids: int) -> "RngStream":
        """Derive a sub-stream by extending the path."""
        return RngStream(self.seed, self.path + tuple(int(i) for i in ids))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))

