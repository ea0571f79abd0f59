"""Unit tests for the replay buffer."""

import numpy as np
import pytest

from repro.core.rollout import ReplayBuffer


def _batch(n, state_size=6, num_heads=4, offset=0.0):
    states = np.full((n, state_size), offset)
    actions = np.zeros((n, num_heads), dtype=np.int64)
    ones = np.ones(n)
    return states, actions, ones * 0.1, ones * 0.2, ones * 0.3, ones * 0.4


class TestReplayBuffer:
    def test_add_and_len(self):
        buf = ReplayBuffer(capacity=16, state_size=6, num_heads=4)
        buf.add(*_batch(5))
        assert len(buf) == 5

    def test_capacity_wraps_fifo(self):
        buf = ReplayBuffer(capacity=8, state_size=6, num_heads=4)
        buf.add(*_batch(6, offset=1.0))
        buf.add(*_batch(6, offset=2.0))
        assert len(buf) == 8
        sample = buf.sample(8)
        # The oldest 4 entries (offset 1.0) must have been overwritten for 4 slots.
        assert np.sum(sample["states"][:, 0] == 2.0) == 6

    def test_batch_larger_than_capacity_keeps_its_last_rows(self):
        buf = ReplayBuffer(capacity=4, state_size=2, num_heads=1)
        n = 6
        rows = np.arange(n, dtype=np.float64)
        buf.add(
            np.repeat(rows[:, None], 2, axis=1),
            np.arange(n)[:, None],
            rows,
            rows + 10,
            rows + 20,
            rows + 30,
        )
        # Rows 0..5 land in slots 0, 1, 2, 3, 0, 1: rows 4 and 5 overwrite 0 and 1.
        assert buf._old_log_probs.tolist() == [4.0, 5.0, 2.0, 3.0]
        assert buf._rewards.tolist() == [14.0, 15.0, 12.0, 13.0]
        assert buf._states[:, 0].tolist() == [4.0, 5.0, 2.0, 3.0]
        assert buf._actions[:, 0].tolist() == [4, 5, 2, 3]
        assert buf._next == 2
        assert len(buf) == 4

    def test_wrap_around_matches_one_row_at_a_time(self):
        capacity, state_size = 5, 3
        buf = ReplayBuffer(capacity=capacity, state_size=state_size, num_heads=2)
        slots_states = np.zeros((capacity, state_size))
        slots_log_probs = np.zeros(capacity)
        next_slot, value = 0, 0.0
        for n in (3, 4, 2, 7, 1):
            states = value + np.arange(n * state_size, dtype=np.float64).reshape(n, state_size)
            log_probs = value + np.arange(n, dtype=np.float64)
            buf.add(states, np.ones((n, 2)), log_probs, log_probs, log_probs, log_probs)
            for i in range(n):
                slots_states[next_slot] = states[i]
                slots_log_probs[next_slot] = log_probs[i]
                next_slot = (next_slot + 1) % capacity
            value += 100.0
            assert np.array_equal(buf._states, slots_states)
            assert np.array_equal(buf._old_log_probs, slots_log_probs)
            assert buf._next == next_slot
        assert len(buf) == capacity

    def test_sample_shapes(self):
        buf = ReplayBuffer(capacity=32, state_size=6, num_heads=4)
        buf.add(*_batch(10))
        sample = buf.sample(4)
        assert sample["states"].shape == (4, 6)
        assert sample["actions"].shape == (4, 4)
        assert sample["advantages"].shape == (4,)

    def test_sample_larger_than_size_is_clamped(self):
        buf = ReplayBuffer(capacity=32, state_size=6, num_heads=4)
        buf.add(*_batch(3))
        assert sample_size(buf.sample(10)) == 3

    def test_sample_empty_raises(self):
        buf = ReplayBuffer(capacity=4, state_size=2, num_heads=1)
        with pytest.raises(RuntimeError):
            buf.sample(1)

    def test_mismatched_batch_rejected(self):
        buf = ReplayBuffer(capacity=4, state_size=6, num_heads=4)
        states, actions, logp, rewards, td, adv = _batch(3)
        with pytest.raises(ValueError):
            buf.add(states, actions, logp[:-1], rewards, td, adv)

    def test_clear(self):
        buf = ReplayBuffer(capacity=4, state_size=6, num_heads=4)
        buf.add(*_batch(3))
        buf.clear()
        assert len(buf) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=0, state_size=2, num_heads=1)


def sample_size(sample):
    return sample["states"].shape[0]
