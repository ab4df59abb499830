import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.rng import (
    _DRAW_SALT,
    RandomStream,
    _as_u64,
    _mix,
    _mix_int,
    derive_key,
    draw_u64,
    mix64,
    normal_at,
    slot_hash,
    slot_uniform,
    stream,
    uniform_at,
    uniform_from_u64,
)


def test_mix64_frozen_values():
    # pin the hash so serialized seeds stay meaningful across releases
    assert int(mix64(0)[0]) == 16294208416658607535
    assert int(mix64(1)[0]) == 10451216379200822465
    assert int(mix64(2**64 - 1)[0]) == 16490336266968443936


def test_mix64_vector_matches_scalar():
    xs = np.arange(100, dtype=np.uint64)
    vec = mix64(xs)
    for i in range(100):
        assert vec[i] == mix64(int(xs[i]))[0]


def test_same_seed_same_stream():
    a = stream(42).uniform(size=50)
    b = stream(42).uniform(size=50)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(stream(1).uniform(size=10), stream(2).uniform(size=10))


def test_sequential_matches_batch():
    s1 = stream(7)
    singles = [s1.uniform() for _ in range(20)]
    s2 = stream(7)
    batch = s2.uniform(size=20)
    assert np.allclose(singles, batch, rtol=0, atol=0)


def test_child_streams_are_independent_of_parent_consumption():
    parent = stream(3)
    child_before = parent.child(5).uniform(size=8)
    parent.uniform(size=100)
    child_after = parent.child(5).uniform(size=8)
    assert np.array_equal(child_before, child_after)


def test_uniform_open_interval():
    u = stream(11).uniform(size=100_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    ends = uniform_from_u64(np.array([0, 2**64 - 1], dtype=np.uint64))
    assert ends[0] > 0.0 and ends[1] < 1.0


def test_uniform_moments():
    u = stream(13).uniform(size=200_000)
    assert abs(u.mean() - 0.5) < 4 * 0.2887 / np.sqrt(u.size)
    assert abs(u.var() - 1 / 12) < 4 * 0.1 / np.sqrt(u.size)


def test_normal_moments():
    z = normal_at(stream(17).key, np.arange(200_000, dtype=np.uint64))
    assert abs(z.mean()) < 4 / np.sqrt(z.size)
    assert abs(z.var() - 1.0) < 4 * np.sqrt(2 / z.size)


def test_slot_uniform_matches_uniform_at():
    keys = mix64(np.arange(64, dtype=np.uint64))
    h = slot_hash(2)
    assert np.array_equal(slot_uniform(keys, h), uniform_from_u64(draw_u64(keys, 2)))


def test_hashing_leaves_inputs_unchanged():
    x = np.arange(1000, dtype=np.uint64)
    keys = mix64(x)
    before = keys.copy()
    mix64(keys)
    slot_uniform(keys, slot_hash(1))
    assert np.array_equal(x, np.arange(1000, dtype=np.uint64))
    assert np.array_equal(keys, before)


def test_draw_and_child_domains_are_separated():
    key = int(mix64(9)[0])
    assert int(derive_key(key, 4)[0]) != int(draw_u64(key, 4)[0])


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.integers(0, 2**32))
@settings(max_examples=50, deadline=None)
def test_derive_key_injective_in_practice(seed, i, j):
    k = mix64(seed)
    if i != j:
        assert int(derive_key(k, i)[0]) != int(derive_key(k, j)[0])


def test_stream_path_provenance():
    s = stream(5, 2, 3)
    assert s.path == (5, 2, 3)
    assert s.child(1).path == (5, 2, 3, 1)


def test_uniform_at_broadcasts_slots():
    key = np.uint64(stream(1).key)
    many = uniform_at(key, np.arange(10, dtype=np.uint64))
    for j in range(10):
        assert many[j] == uniform_at(key, j)[0]


# --- single keys on Python ints against the numpy array path -----------------

U64 = st.integers(0, 2**64 - 1)
INTS = st.one_of(U64, st.integers(-(2**64), -1))
TOKENS = st.one_of(
    INTS,
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    U64.map(np.uint64),
)


@given(U64)
@settings(max_examples=200, deadline=None)
def test_mix_int_matches_mix(x):
    assert _mix_int(x) == int(_mix(np.array([x], dtype=np.uint64))[0])


@given(INTS, TOKENS)
@settings(max_examples=200, deadline=None)
def test_scalar_child_matches_derive_key(key, token):
    child = RandomStream(key).child(token)
    assert type(child.key) is int
    assert child.key == int(derive_key(key, token)[0])


@given(INTS, st.integers(1, 40), st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_scalar_draws_match_array_draws(key, n, more):
    s = RandomStream(key)
    singles = [s.uniform() for _ in range(n)]
    assert all(type(u) is float for u in singles)
    assert singles == RandomStream(key).uniform(size=n).tolist()
    # scalar and array draws share one counter
    assert np.array_equal(s.uniform(size=more), RandomStream(key).uniform(size=n + more)[n:])


@given(INTS, st.lists(TOKENS, max_size=4))
@settings(max_examples=100, deadline=None)
def test_stream_matches_array_composition(seed, path):
    key = mix64(seed)
    for token in path:
        key = derive_key(key, token)
    assert stream(seed, *path).key == int(key[0])


@given(INTS)
@settings(max_examples=100, deadline=None)
def test_slot_hash_unchanged(slot):
    h = slot_hash(slot)
    assert isinstance(h, np.uint64)
    assert h == mix64(_as_u64(slot) ^ _DRAW_SALT)[0]
    keys = mix64(np.arange(8, dtype=np.uint64))
    assert np.array_equal(slot_uniform(keys, h), uniform_at(keys, slot))
