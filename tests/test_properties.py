"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.perf.oracles import schedule_features
from repro.core.adaptive_stopping import AdaptiveStopper
from repro.core.bandit import SlidingWindowUCB
from repro.costmodel.tree import RegressionTree
from repro.tensor.actions import ActionSpace, apply_action
from repro.tensor.factors import move_factor, prime_factors, product, random_factorization
from repro.tensor.features import FEATURE_SIZE
from repro.tensor.sampler import sample_schedule
from repro.tensor.sketch import generate_sketches
from repro.tensor.workloads import gemm

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

# A pool of sketches reused across examples (building them is comparatively slow).
_SKETCHES = {
    (m, k, n): generate_sketches(gemm(m, k, n))[0]
    for (m, k, n) in [(64, 64, 64), (128, 96, 32), (224, 48, 80)]
}
_SHAPES = sorted(_SKETCHES)


# --------------------------------------------------------------------------- #
# factorisation invariants
# --------------------------------------------------------------------------- #
@SETTINGS
@given(extent=st.integers(min_value=1, max_value=4096), levels=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_random_factorization_always_multiplies_to_extent(extent, levels, seed):
    sizes = random_factorization(extent, levels, np.random.default_rng(seed))
    assert len(sizes) == levels
    assert all(s >= 1 for s in sizes)
    assert product(sizes) == extent


@SETTINGS
@given(n=st.integers(min_value=2, max_value=100000))
def test_prime_factors_multiply_back_and_are_prime(n):
    factors = prime_factors(n)
    assert product(factors) == n
    for p in factors:
        assert p >= 2
        assert all(p % d for d in range(2, int(p ** 0.5) + 1))


@SETTINGS
@given(extent=st.integers(min_value=1, max_value=1024), levels=st.integers(min_value=2, max_value=5),
       seed=st.integers(min_value=0, max_value=1000),
       src=st.integers(min_value=0, max_value=4), dst=st.integers(min_value=0, max_value=4))
def test_move_factor_preserves_product(extent, levels, seed, src, dst):
    sizes = random_factorization(extent, levels, np.random.default_rng(seed))
    moved = move_factor(sizes, src % levels, dst % levels)
    assert product(moved) == extent
    assert all(s >= 1 for s in moved)


# --------------------------------------------------------------------------- #
# schedule / action invariants
# --------------------------------------------------------------------------- #
@SETTINGS
@given(shape=st.sampled_from(_SHAPES), seed=st.integers(min_value=0, max_value=10_000),
       n_actions=st.integers(min_value=1, max_value=8))
def test_random_action_chains_keep_schedules_valid(shape, seed, n_actions):
    """Applying any chain of sampled actions never breaks schedule invariants."""
    sketch = _SKETCHES[shape]
    rng = np.random.default_rng(seed)
    schedule = sample_schedule(sketch, rng)
    space = ActionSpace(sketch)
    for _ in range(n_actions):
        schedule = apply_action(schedule, space.sample(rng))
        for sizes, (_n, _k, extent, _l) in zip(schedule.tile_sizes, sketch.tiled_iters):
            assert product(sizes) == extent
        assert 0 <= schedule.num_parallel <= schedule.max_parallel
        assert 0 <= schedule.compute_at_index < len(schedule.dag.compute_at_candidates())
        assert 0 <= schedule.unroll_index < len(schedule.unroll_depths)


@SETTINGS
@given(shape=st.sampled_from(_SHAPES), seed=st.integers(min_value=0, max_value=10_000))
def test_schedule_copy_roundtrip_and_feature_stability(shape, seed):
    sketch = _SKETCHES[shape]
    schedule = sample_schedule(sketch, np.random.default_rng(seed))
    clone = schedule.copy()
    assert clone == schedule and hash(clone) == hash(schedule)
    feats = schedule_features(schedule)
    assert feats.shape == (FEATURE_SIZE,)
    assert np.array_equal(feats, schedule_features(clone))
    assert np.all(np.isfinite(feats))


@SETTINGS
@given(shape=st.sampled_from(_SHAPES), index=st.integers(min_value=0, max_value=10_000))
def test_action_encode_decode_roundtrip(shape, index):
    space = ActionSpace(_SKETCHES[shape])
    tile_idx = index % space.tiling_size
    indices = (tile_idx, index % 3, (index // 3) % 3, (index // 9) % 3)
    action = space.decode(indices)
    assert space.encode(action) == indices


# --------------------------------------------------------------------------- #
# bandit invariants
# --------------------------------------------------------------------------- #
@SETTINGS
@given(num_arms=st.integers(min_value=1, max_value=8),
       rewards=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60),
       window=st.integers(min_value=1, max_value=32))
def test_bandit_counts_never_exceed_window(num_arms, rewards, window):
    mab = SlidingWindowUCB(num_arms, window=window, rng=np.random.default_rng(0))
    for reward in rewards:
        arm = mab.select()
        assert 0 <= arm < num_arms
        mab.update(arm, reward)
    counts = mab.counts()
    assert counts.sum() <= window
    assert mab.total_plays().sum() == len(rewards)
    values = mab.values()
    assert np.all((values >= 0.0) & (values <= 1.0))


# --------------------------------------------------------------------------- #
# adaptive stopping invariants
# --------------------------------------------------------------------------- #
@SETTINGS
@given(advantages=st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=64),
       ratio=st.floats(min_value=0.1, max_value=0.9))
def test_adaptive_stopper_eliminates_exactly_floor_rho_n(advantages, ratio):
    stopper = AdaptiveStopper(window_size=5, elimination_ratio=ratio, min_tracks=1)
    survivors = stopper.select_survivors(advantages)
    expected_survivors = len(advantages) - int(np.floor(ratio * len(advantages)))
    assert len(survivors) == expected_survivors
    assert survivors == sorted(survivors)
    # Every eliminated track has an advantage <= every survivor's advantage.
    if survivors and expected_survivors < len(advantages):
        eliminated = [i for i in range(len(advantages)) if i not in set(survivors)]
        assert max(advantages[i] for i in eliminated) <= min(advantages[i] for i in survivors) + 1e-12


# --------------------------------------------------------------------------- #
# regression tree invariants
# --------------------------------------------------------------------------- #
@SETTINGS
@given(seed=st.integers(min_value=0, max_value=1000),
       n=st.integers(min_value=3, max_value=60),
       depth=st.integers(min_value=1, max_value=6))
def test_tree_predictions_stay_within_target_range(seed, n, depth):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    y = rng.normal(size=n)
    pred = RegressionTree(max_depth=depth, min_samples_leaf=1).fit(X, y).predict(X)
    assert np.all(pred >= y.min() - 1e-9)
    assert np.all(pred <= y.max() + 1e-9)
    assert np.all(np.isfinite(pred))
