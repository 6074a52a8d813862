"""Bulk stream seeding: seed_words reproduces numpy's SeedSequence bit for bit."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedq
from fedq.errors import ParamOutOfRangeError, ShapeMismatchError
from fedq.rng import ID_LIMIT, generators, seed_words, skip_words

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

    @pytest.mark.parametrize("bad", [[("a", "b")], np.array([[True, False]]), np.array([[1.0]]),
                                     np.array([[1, None]], dtype=object)])
    def test_path_ids_of_a_non_integer_dtype_rejected(self, bad):
        with pytest.raises(ParamOutOfRangeError, match="integers"):
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

    def test_numpy_streams_are_pinned(self):
        # every pinned digest of the tests and the benchmark rests on numpy's SeedSequence, PCG64 and
        # standard_normal; a numpy release that changed one of them fails here, by name (numpy 2.4 values)
        words = seed_words(7, [[1, 2, 3]])
        assert [hex(w) for w in words[0].tolist()] == [
            "0x8f73affe3799c6d4", "0xa63870cb2516c8a5", "0x12f1643c8fc407a9", "0xb06d303efaaea33d"]
        assert [hex(x) for x in generators(words)[0].bit_generator.random_raw(3).tolist()] == [
            "0x8b8d39fc12699b99", "0x83b92b9abef5d853", "0xef49789f1f804bf3"]
        assert [z.hex() for z in generators(words)[0].standard_normal(3).tolist()] == [
            "-0x1.3c087f04b5064p-1", "0x1.2592ffcc48bb2p-3", "-0x1.5551843faf9f2p+0"]
        # and PCG64's seeding and multiplier, which skip_words folds into the words
        skipped = skip_words(words, 100)
        assert [hex(w) for w in skipped[0].tolist()] == [
            "0xa47ea792ba9a72b0", "0x10080ccec76ef5f9", "0x12f1643c8fc407a9", "0xb06d303efaaea33d"]
        assert [z.hex() for z in generators(skipped)[0].standard_normal(3).tolist()] == [
            "0x1.60fb83aac2029p-7", "-0x1.700b7ffad0d96p-1", "-0x1.b81033c2a5a00p-1"]

    def test_rows_that_are_not_c_ordered_give_the_same_streams(self):
        words = seed_words(3, np.arange(12).reshape(4, 3))
        for copy in (np.asfortranarray(words), np.repeat(words, 2, axis=0)[::2]):
            assert not copy.flags.c_contiguous
            for gen, ref in zip(generators(copy), generators(words)):
                assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("words", [
        seed_words(3, [[1]]).astype(np.float64),  # PCG64 would read the floats' bits as words
        seed_words(3, [[1], [2]]).reshape(4, 2),  # short rows: PCG64 would read past each row's end
        seed_words(3, [[1]])[0],  # a 1-D row: numpy's own TypeError
        seed_words(3, [[1]]).astype(">u8"),  # the words' bytes in another order
    ], ids=["float", "(n, 2)", "1-D", "big-endian"])
    def test_words_other_than_n_by_4_uint64_rejected(self, words):
        for build in (generators, lambda words: skip_words(words, 1)):
            with pytest.raises(ShapeMismatchError, match=r"seed words must be an \(n, 4\) uint64 array"):
                build(words)

    def test_stream_generator_is_the_batch_of_one(self):
        stream = fedq.RngStream(2**40 + 3, (4, 0, 7))
        (gen,) = generators(seed_words(stream.seed, [stream.path]))
        assert stream.generator().random(16).tobytes() == gen.random(16).tobytes()


# n draws: the empty skip, one draw, one uniform block of every bundled map (S·A), and skips that
# need every bit of the 128-bit state
SKIPS = [0, 1] + sorted({fedq.build_gridworld(fedq.load_map(name), gamma=0.8).table_size
                         for name in fedq.BUNDLED_MAPS}) + [2**64 + 1, 2**128 - 1]


class TestSkipWords:
    @pytest.mark.parametrize("n", SKIPS)
    @pytest.mark.parametrize("rows", ["seed_words", "zeros", "ones"])
    def test_matches_advance(self, n, rows):
        words = {"seed_words": seed_words(2**64 + 9, np.arange(24).reshape(8, 3)),
                 "zeros": np.zeros((3, 4), dtype=np.uint64),
                 "ones": np.full((3, 4), 2**64 - 1, dtype=np.uint64)}[rows]
        skipped = skip_words(words, n)
        assert skipped.shape == words.shape and skipped.dtype == np.uint64
        assert np.array_equal(skipped[:, 2:], words[:, 2:])  # the increment's words never change
        draws = [lambda g: g.bit_generator.random_raw(3), lambda g: g.random(3), lambda g: g.standard_normal(3)]
        for draw in draws:
            for gen, ref in zip(generators(skipped), generators(words)):
                ref.bit_generator.advance(n)
                assert gen.bit_generator.state == ref.bit_generator.state
                assert draw(gen).tobytes() == draw(ref).tobytes()

    def test_empty_words(self):
        skipped = skip_words(np.empty((0, 4), dtype=np.uint64), 5)
        assert skipped.shape == (0, 4) and skipped.dtype == np.uint64

    def test_returns_a_new_array(self):
        words = seed_words(1, [[2]])
        before = words.copy()
        assert not np.shares_memory(skip_words(words, 0), words)
        skip_words(words, 7)
        assert np.array_equal(words, before)

    @pytest.mark.parametrize("n", [-1, 2**128, 1.0, True])
    def test_skip_outside_the_state_period_rejected(self, n):
        with pytest.raises(ParamOutOfRangeError, match="skip n"):
            skip_words(seed_words(1, [[2]]), n)


class TestStreamIds:
    # False, 5 and a 0-d array are no path at all: iterating them raised a raw TypeError
    @pytest.mark.parametrize("path", [(-1,), (0, ID_LIMIT), (2**64,), (2.5,), (True,), ("3",), False, 5, np.array(5)])
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
