"""Bulk stream seeding: seed_words reproduces numpy's SeedSequence bit for bit."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedq
from fedq.errors import ParamOutOfRangeError, ShapeMismatchError
from fedq.rng import ID_LIMIT, generators, seed_words

ROOT = Path(__file__).resolve().parent.parent

# one to five uint32 words, with the word boundaries
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 12345, 2**96 + 7, 2**128 + 3, 2**150 - 1]


def numpy_words(seed, path):
    return np.random.SeedSequence(seed, spawn_key=tuple(path)).generate_state(4, np.uint64)


def numpy_generator(seed, path):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=tuple(path))))


def random_seeds(rng, n):
    return [int(rng.integers(0, 2**62)) >> int(rng.integers(0, 62)) << int(rng.integers(0, 80))
            for _ in range(n)]


class TestSeedWords:
    def test_matches_seed_sequence(self):
        rng = np.random.default_rng(20240416)
        checked = 0
        for seed in SEEDS + random_seeds(rng, 10):
            for length in range(7):
                paths = rng.integers(0, ID_LIMIT, (15, length))
                if length:
                    paths[0] = 0
                    paths[1] = ID_LIMIT - 1
                words = seed_words(seed, paths)
                assert words.shape == (15, 4) and words.dtype == np.uint64
                for path, row in zip(paths.tolist(), words):
                    assert np.array_equal(row, numpy_words(seed, path)), (seed, path)
                    checked += 1
        assert checked >= 2000

    def test_empty_path_is_the_bare_seed(self):
        for seed in SEEDS:
            words = seed_words(seed, np.empty((1, 0), dtype=np.int64))
            assert np.array_equal(words[0], np.random.SeedSequence(seed).generate_state(4, np.uint64))

    def test_rows_do_not_depend_on_the_batch(self):
        paths = np.random.default_rng(5).integers(0, 1000, (300, 3))
        batch = seed_words(17, paths)
        assert np.array_equal(batch[123], seed_words(17, paths[123:124])[0])
        assert seed_words(17, paths[:0]).shape == (0, 4)

    @pytest.mark.parametrize("bad", [[(-1, 0)], [(0, ID_LIMIT)], [(2**70,)], [(2.5,)]])
    def test_ids_outside_uint32_rejected(self, bad):
        with pytest.raises(ParamOutOfRangeError):
            seed_words(3, bad)

    def test_path_array_must_be_two_dimensional(self):
        with pytest.raises(ShapeMismatchError):
            seed_words(3, [1, 2, 3])

    def test_negative_seed_rejected(self):
        with pytest.raises(ParamOutOfRangeError):
            seed_words(-1, [(0,)])


class TestGenerators:
    def test_draws_match_numpy_streams(self):
        rng = np.random.default_rng(11)
        for seed in (0, 2**32 + 1, 2**64 + 9):
            paths = rng.integers(0, ID_LIMIT, (100, 3))
            for path, gen in zip(paths.tolist(), generators(seed_words(seed, paths))):
                ref = numpy_generator(seed, path)
                assert gen.bit_generator.state == ref.bit_generator.state
                assert gen.random(100).tobytes() == ref.random(100).tobytes()
                assert gen.normal(0.0, 0.5, 100).tobytes() == ref.normal(0.0, 0.5, 100).tobytes()

    def test_stream_generator_is_the_batch_of_one(self):
        stream = fedq.RngStream(2**40 + 3, (4, 0, 7))
        (gen,) = generators(seed_words(stream.seed, [stream.path]))
        assert stream.generator().random(16).tobytes() == gen.random(16).tobytes()


class TestStreamIds:
    @pytest.mark.parametrize("path", [(-1,), (0, ID_LIMIT), (2**64,), (2.5,), (True,), ("3",)])
    def test_path_out_of_range_rejected_where_built(self, path):
        with pytest.raises(ParamOutOfRangeError, match="path ids"):
            fedq.RngStream(5, path)

    @pytest.mark.parametrize("ids", [(-2,), (1, ID_LIMIT), (2.5,), (True,)])
    def test_child_out_of_range_rejected(self, ids):
        with pytest.raises(ParamOutOfRangeError, match="path ids"):
            fedq.RngStream(5).child(*ids)

    @pytest.mark.parametrize("seed", [1.5, True, "3"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ParamOutOfRangeError, match="seed"):
            fedq.RngStream(seed)

    def test_numpy_integers_give_the_python_int_stream(self):
        stream = fedq.RngStream(np.int64(5), (np.uint32(1),)).child(np.int16(2))
        assert stream == fedq.RngStream(5, (1, 2))
        assert all(type(i) is int for i in (stream.seed, *stream.path))

    def test_largest_id_and_multi_word_seed_accepted(self):
        stream = fedq.RngStream(2**64 + 1).child(ID_LIMIT - 1)
        assert stream.generator().random() == numpy_generator(2**64 + 1, (ID_LIMIT - 1,)).random()


def test_import_leaves_numpy_random_unloaded():
    # building a generator imports numpy.random; importing fedq must not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import numpy, sys, fedq; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
