"""Deterministic, path-derived random streams.

Every stochastic component of a run draws from a stream derived from
``(master_seed, path)`` where the path encodes who is drawing and when,
e.g. ``(agent, round, epoch)``.  Streams with distinct paths are
statistically independent, and the same ``(seed, path)`` always
reproduces the same sequence, so results cannot depend on the order in
which workers happen to execute.

A stream is the ``PCG64`` generator that numpy would seed from
``SeedSequence(seed, spawn_key=path)``, bit for bit.  :func:`seed_words`
computes that seed for many paths at once: SeedSequence's hash is fixed
uint32 arithmetic, so it runs on an (n, L) array of paths as a few
whole-array operations per pool column instead of one hash per stream.
:func:`generators` then builds each stream's generator from its row of
words.  ``numpy.random`` is imported on the first generator built, not
on ``import fedq``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, check_count, check_ids

ID_LIMIT = 2**32  # path ids are single uint32 words

# SeedSequence's hash constants (numpy/random/bit_generator.pyx), pool size 4
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MASK = 0xFFFFFFFF
# 0-d uint32 arrays, not Python ints or numpy scalars, which numpy converts
# on every operation: that conversion dominates on a short batch's arrays
_MIX_L, _MIX_R = np.array(0xCA01F9DD, np.uint32), np.array(0x4973F715, np.uint32)
_XSHIFT = np.array(16, np.uint32)
_OTHERS = [np.array([d for d in range(_POOL) if d != src]) for src in range(_POOL)]


@functools.cache
def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """``init * mult**j`` mod 2**32 for j = 0..n: the multiplier after each hash step."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK)
    consts = np.array(out, dtype=np.uint32)
    consts.flags.writeable = False  # shared by every caller
    return consts


def _hashmix(values: np.ndarray, consts: np.ndarray, j: int, n: int) -> np.ndarray:
    """Hash steps j..j+n-1 of SeedSequence's multiplier chain, step j + c on column c."""
    v = (values ^ consts[j:j + n]) * consts[j + 1:j + n + 1]
    return v ^ (v >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's merge of a hashed word y into pool word x."""
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _XSHIFT)


def seed_words(seed: int, paths) -> np.ndarray:
    """PCG64 seed words of the streams ``(seed, paths[j])``: shape (n, 4), uint64.

    Row j equals ``SeedSequence(seed, spawn_key=paths[j]).generate_state(4,
    np.uint64)``.  ``paths`` is an (n, L) array of ids in [0, 2**32); every
    path of one call has the same length L, which may be 0.  The master
    seed may span several uint32 words.
    """
    seed = check_count("seed", seed)
    paths = check_ids("path ids", paths, ID_LIMIT)
    if paths.ndim != 2:
        raise ShapeMismatchError(f"paths must be an (n, L) array, got shape {paths.shape}")
    # SeedSequence's entropy: the seed's little-endian uint32 words, zero
    # padded to the pool size, then one word per path id
    n_seed = max(_POOL, -(-seed.bit_length() // 32))
    seed_part = [(seed >> (32 * w)) & _MASK for w in range(n_seed)]
    entropy = np.empty((len(paths), n_seed + paths.shape[1]), dtype=np.uint32)
    entropy[:, :n_seed] = seed_part
    entropy[:, n_seed:] = paths

    a = _hash_constants(_INIT_A, _MULT_A, _POOL * entropy.shape[1])
    pool = _hashmix(entropy[:, :_POOL], a, 0, _POOL)
    j = _POOL
    for src, dst in enumerate(_OTHERS):  # every pool word into every other
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src:src + 1], a, j, _POOL - 1))
        j += _POOL - 1
    for col in range(_POOL, entropy.shape[1]):  # each further word into every pool word
        pool = _mix(pool, _hashmix(entropy[:, col:col + 1], a, j, _POOL))
        j += _POOL

    b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)
    state = _hashmix(np.concatenate([pool, pool], axis=1), b, 0, 2 * _POOL)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _words_seed_class() -> type:
    """An ``ISeedSequence`` that hands PCG64 one precomputed row of :func:`seed_words`.

    Built on first use so that ``import fedq`` does not load ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class _SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return _SeedWords


def generators(words: np.ndarray) -> list[np.random.Generator]:
    """One ``Generator(PCG64)`` per row of an (n, 4) :func:`seed_words` array."""
    seeded = _words_seed_class()
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return [generator(pcg64(seeded(row))) for row in words]


@dataclass(frozen=True)
class RngStream:
    """Handle for one derived random stream.

    The handle itself is stateless; :meth:`generator` materializes a fresh
    ``numpy.random.Generator`` positioned at the start of the stream.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", check_count("seed", self.seed))
        object.__setattr__(self, "path", tuple(check_count("path ids", i, 0, ID_LIMIT) for i in self.path))

    def child(self, *ids: int) -> "RngStream":
        """Derive a sub-stream by extending the path."""
        return RngStream(self.seed, self.path + ids)

    def generator(self) -> np.random.Generator:
        return generators(seed_words(self.seed, [self.path]))[0]
