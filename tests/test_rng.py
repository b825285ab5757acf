"""Tests for repro.rng."""

import numpy as np
import pytest

from repro.rng import derive_seed, ensure_rng, seed_sequence, split_seed_sequences


def _child_streams(seed, count, draws):
    """First ``draws`` uniforms of each child generator split from ``seed``."""
    return [
        np.random.default_rng(child).random(draws).tolist()
        for child in split_seed_sequences(seed, count)
    ]


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_reproducible(self):
        a = ensure_rng(42).random(5)
        b = ensure_rng(42).random(5)
        assert np.allclose(a, b)

    def test_generator_is_passed_through(self):
        rng = np.random.default_rng(1)
        assert ensure_rng(rng) is rng

    def test_different_seeds_differ(self):
        assert not np.allclose(ensure_rng(1).random(5), ensure_rng(2).random(5))


class TestChildStreamStability:
    """Pin the exact child streams so refactors cannot silently change them.

    The values encode NumPy's stable SeedSequence spawning semantics; a
    mismatch means the seed-splitting scheme changed and every sharded /
    parallel sampling result changed with it.
    """

    def test_int_seeded_spawn_streams_are_pinned(self):
        streams = _child_streams(7, 3, 2)
        expected = [
            [0.7978591868433563, 0.05309388325640407],
            [0.4805820057358118, 0.059541806671542186],
            [0.6320442355695731, 0.48677827296439047],
        ]
        assert np.allclose(streams, expected, rtol=0.0, atol=0.0)

    def test_generator_seeded_spawn_streams_are_pinned(self):
        streams = _child_streams(np.random.default_rng(3), 2, 2)
        expected = [
            [0.15980137092647473, 0.4507940445026689],
            [0.24403297425801407, 0.6209146161208873],
        ]
        assert np.allclose(streams, expected, rtol=0.0, atol=0.0)

    def test_generator_entropy_condensation_is_pinned(self):
        sequence = seed_sequence(np.random.default_rng(5))
        assert list(sequence.entropy) == [2881021352, 3457461230, 97294837, 3470079269]


class TestSeedSequence:
    def test_int_seed_round_trip(self):
        assert seed_sequence(42).entropy == 42

    def test_none_uses_os_entropy(self):
        a, b = seed_sequence(None), seed_sequence(None)
        assert a.entropy != b.entropy

    def test_split_reproducible_and_independent(self):
        first = split_seed_sequences(9, 4)
        second = split_seed_sequences(9, 4)
        assert [c.generate_state(2).tolist() for c in first] == [
            c.generate_state(2).tolist() for c in second
        ]
        states = {tuple(c.generate_state(2).tolist()) for c in first}
        assert len(states) == 4

    def test_split_negative_count_rejected(self):
        with pytest.raises(ValueError):
            split_seed_sequences(0, -1)

    def test_split_zero_is_empty(self):
        assert split_seed_sequences(0, 0) == []

    def test_split_from_generator_is_reproducible_per_state(self):
        first = _child_streams(np.random.default_rng(3), 2, 3)
        second = _child_streams(np.random.default_rng(3), 2, 3)
        assert first == second

    def test_split_from_generator_advances_parent(self):
        # condensing the generator into a SeedSequence draws entropy, so
        # two successive splits from one generator must differ
        gen = np.random.default_rng(3)
        assert _child_streams(gen, 2, 3) != _child_streams(gen, 2, 3)


class TestDeriveSeed:
    def test_none_stays_none(self):
        assert derive_seed(None, 5) is None

    def test_deterministic(self):
        assert derive_seed(3, 7) == derive_seed(3, 7)

    def test_salt_changes_result(self):
        assert derive_seed(3, 1) != derive_seed(3, 2)

    def test_generator_input_gives_int(self):
        assert isinstance(derive_seed(np.random.default_rng(0), 1), int)

