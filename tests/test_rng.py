"""Tests for repro.rng: deterministic substreams and random bits."""

import numpy as np
import pytest

from repro.rng import PSEUDONYM_BITS, RandomStreams, ScalarDraws, random_bits


class TestRandomStreams:
    def test_same_seed_same_substream(self):
        a = RandomStreams(7).substream("churn")
        b = RandomStreams(7).substream("churn")
        assert a.random() == b.random()

    def test_different_keys_differ(self):
        streams = RandomStreams(7)
        a = streams.substream("churn")
        b = streams.substream("node", 0)
        assert a.random() != b.random()

    def test_different_seeds_differ(self):
        a = RandomStreams(1).substream("x")
        b = RandomStreams(2).substream("x")
        assert a.random() != b.random()

    def test_substream_independent_of_creation_order(self):
        first = RandomStreams(3)
        _ = first.substream("a").random()
        value_after = first.substream("b").random()
        second = RandomStreams(3)
        value_direct = second.substream("b").random()
        assert value_after == value_direct

    def test_multipart_keys(self):
        streams = RandomStreams(5)
        a = streams.substream("node", 1)
        b = streams.substream("node", 2)
        assert a.random() != b.random()

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(1).substream()

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")  # type: ignore[arg-type]

    def test_spawn_derives_new_factory(self):
        parent = RandomStreams(9)
        child = parent.spawn("worker")
        assert isinstance(child, RandomStreams)
        assert child.seed != parent.seed
        # Deterministic derivation.
        assert parent.spawn("worker").seed == child.seed

    def test_seed_property(self):
        assert RandomStreams(42).seed == 42


class TestRandomBits:
    def test_range(self, rng):
        for _ in range(200):
            value = random_bits(rng)
            assert 0 <= value < (1 << PSEUDONYM_BITS)

    def test_small_widths(self, rng):
        for bits in (1, 8, 31, 32, 33, 64):
            value = random_bits(rng, bits)
            assert 0 <= value < (1 << bits)

    def test_invalid_bits(self, rng):
        with pytest.raises(ValueError):
            random_bits(rng, 0)

    def test_uniformity_rough(self):
        rng = np.random.default_rng(0)
        values = [random_bits(rng, 8) for _ in range(4000)]
        mean = np.mean(values)
        assert 110 < mean < 145  # expected 127.5

    def test_determinism(self):
        a = [random_bits(np.random.default_rng(4), 63)]
        b = [random_bits(np.random.default_rng(4), 63)]
        assert a == b


def _same_state(a, b):
    """Equality of two ``bit_generator.state`` dicts (MT19937 and
    Philox hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TestScalarDraws:
    """``ScalarDraws`` is its Generator, draw for draw."""

    EDGES = (1, 2, 3, 2**31, 2**31 + 1, 2**32 - 1, 2**32)

    @pytest.mark.parametrize(
        "bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox]
    )
    def test_mixed_sequence_matches_the_generator(self, bit_generator):
        mixed = np.random.Generator(bit_generator(20261018))
        direct = np.random.Generator(bit_generator(20261018))
        draws = ScalarDraws(mixed)
        script = np.random.default_rng(5)
        # Just above 2**31 about half of all words are rejected; near
        # 2**32 the products use all 64 bits.
        bounds = (
            list(self.EDGES)
            + script.integers(2**31 + 1, 2**31 + 2**20, size=24).tolist()
            + script.integers(2**32 - 2**20, 2**32, size=24).tolist()
        )
        for step in range(6000):
            n = bounds[step % len(bounds)]
            op = int(script.integers(0, 4))
            if op == 0:
                assert draws.below(n) == int(direct.integers(0, n)), (step, n)
            elif op == 1:
                assert draws.random() == direct.random(), step
            elif op == 2:
                assert int(mixed.integers(0, n)) == int(direct.integers(0, n)), step
            else:
                assert mixed.random() == direct.random(), step
        assert _same_state(mixed.bit_generator.state, direct.bit_generator.state)

    def test_below_one_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert ScalarDraws(rng).below(1) == 0
        assert rng.bit_generator.state == before

    def test_numpy_integer_bounds(self):
        mixed, direct = np.random.default_rng(8), np.random.default_rng(8)
        draws = ScalarDraws(mixed)
        for n in (np.int64(7), np.uint32(2**32 - 1), np.int64(2**32)):
            assert draws.below(n) == int(direct.integers(0, n))
        assert mixed.bit_generator.state == direct.bit_generator.state

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
    def test_out_of_range_bound_raises(self, n):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="1 <= n <= 2"):
            ScalarDraws(rng).below(n)
        assert rng.bit_generator.state == before
