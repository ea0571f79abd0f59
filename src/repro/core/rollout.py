"""Replay buffer for the PPO agent.

Algorithm 1 records ``(S, M, S', R, Y)`` tuples — state, joint action, next
state, reward and advantage — into a replay buffer ``B``; every ``T_rl`` steps
a mini-batch is sampled from it to train the actor and critic networks.  The
buffer here additionally stores the behaviour policy's log-probability and
the TD target, which the clipped PPO objective and the critic regression need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = ["ReplayBuffer"]


@dataclass
class _Batch:
    states: np.ndarray
    actions: np.ndarray
    old_log_probs: np.ndarray
    rewards: np.ndarray
    td_targets: np.ndarray
    advantages: np.ndarray


class ReplayBuffer:
    """Fixed-capacity FIFO buffer of transitions.

    All arrays are pre-allocated; ``add`` writes a batch of transitions in
    one vectorised ring-index assignment and overwrites the oldest entries
    once the capacity is reached.
    """

    def __init__(self, capacity: int, state_size: int, num_heads: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.state_size = int(state_size)
        self.num_heads = int(num_heads)
        self._states = np.zeros((capacity, state_size), dtype=np.float64)
        self._actions = np.zeros((capacity, num_heads), dtype=np.int64)
        self._old_log_probs = np.zeros(capacity, dtype=np.float64)
        self._rewards = np.zeros(capacity, dtype=np.float64)
        self._td_targets = np.zeros(capacity, dtype=np.float64)
        self._advantages = np.zeros(capacity, dtype=np.float64)
        self._rng = np.random.default_rng(seed)
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    def add(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        old_log_probs: np.ndarray,
        rewards: np.ndarray,
        td_targets: np.ndarray,
        advantages: np.ndarray,
    ) -> None:
        """Append a batch of transitions (oldest entries are overwritten)."""
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        actions = np.atleast_2d(np.asarray(actions, dtype=np.int64))
        n = states.shape[0]
        if not (
            actions.shape[0] == n
            and len(old_log_probs) == n
            and len(rewards) == n
            and len(td_targets) == n
            and len(advantages) == n
        ):
            raise ValueError("all transition arrays must have the same leading dimension")
        # Row i lands in ring slot (next + i) % capacity.  When the batch is
        # larger than the buffer only its last ``capacity`` rows survive, so
        # only those are written: the slots are then distinct and the result
        # matches writing the rows one at a time.
        first = max(0, n - self.capacity)
        slots = (self._next + np.arange(first, n)) % self.capacity
        self._states[slots] = states[first:]
        self._actions[slots] = actions[first:]
        self._old_log_probs[slots] = np.asarray(old_log_probs, dtype=np.float64)[first:]
        self._rewards[slots] = np.asarray(rewards, dtype=np.float64)[first:]
        self._td_targets[slots] = np.asarray(td_targets, dtype=np.float64)[first:]
        self._advantages[slots] = np.asarray(advantages, dtype=np.float64)[first:]
        self._next = (self._next + n) % self.capacity
        self._size = min(self._size + n, self.capacity)

    def sample(self, batch_size: int) -> Dict[str, np.ndarray]:
        """Sample a mini-batch uniformly at random (without replacement)."""
        if self._size == 0:
            raise RuntimeError("cannot sample from an empty buffer")
        batch_size = min(int(batch_size), self._size)
        idx = self._rng.choice(self._size, size=batch_size, replace=False)
        return {
            "states": self._states[idx],
            "actions": self._actions[idx],
            "old_log_probs": self._old_log_probs[idx],
            "rewards": self._rewards[idx],
            "td_targets": self._td_targets[idx],
            "advantages": self._advantages[idx],
        }

    def clear(self) -> None:
        self._next = 0
        self._size = 0
