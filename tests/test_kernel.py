"""The C kernel against its numpy oracles, bit for bit, and how it is built."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab import _kernel, engine, rng
from branchlab.model import OffspringLaw

pytestmark = pytest.mark.skipif(_kernel.LIB is None, reason="the C kernel could not be built")

U64 = st.integers(0, 2**64 - 1)
# hashed bits whose top 53 bits are at least 2^52, where `(bits >> 11) + 0.5`
# is a tie that rounds to even
HIGH = st.integers(2**63, 2**64 - 1)
LAYOUTS = st.sampled_from(["flat", "2-D", "strided"])


def _unmix(y: int) -> int:
    """The inverse of the splitmix64 finalizer, so a test can choose the
    hashed bits a key produces."""

    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    y = unshift(y, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    y = unshift(y, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return (unshift(y, 30) - 0x9E3779B97F4A7C15) % 2**64


def _layout(values, layout):
    a = np.array(values, dtype=np.uint64)
    if layout == "2-D":
        return a[: a.size // 2 * 2].reshape(-1, 2)
    if layout == "strided":
        return np.repeat(a, 2)[::2]
    return a


def _check(got, want, inputs, before):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(inputs, before)  # inputs are never written


def test_unmix_inverts_mix():
    for y in (0, 1, 2**63, 2**64 - 1, 0x0123456789ABCDEF):
        assert rng._mix_int(_unmix(y)) == y


@given(st.lists(U64, max_size=40), U64, LAYOUTS)
@settings(max_examples=200, deadline=None)
def test_mix_matches_numpy(values, salt, layout):
    z = _layout(values, layout)
    before = z.copy()
    _check(rng._mix(z, salt), rng._mix_numpy(z ^ np.uint64(salt)), z, before)
    _check(rng._mix(z), rng._mix_numpy(z), z, before)


@given(st.lists(st.one_of(U64, HIGH), max_size=40), U64, LAYOUTS)
@settings(max_examples=200, deadline=None)
def test_slot_uniform_matches_numpy(bits, slot, layout):
    hashed = rng.slot_hash(slot)
    keys = _layout([_unmix(b) ^ int(hashed) for b in bits], layout)
    before = keys.copy()
    want = rng.uniform_from_u64(rng._mix_numpy(keys ^ hashed))
    _check(rng.slot_uniform(keys, hashed), want, keys, before)


def test_slot_uniform_extremes_match_numpy():
    hashed = rng.slot_hash(0)
    bits = [0, 2**11 - 1, 2**11, 2**63, 2**63 + 2**11, 2**64 - 2**11 - 1, 2**64 - 2**11, 2**64 - 1]
    keys = np.array([_unmix(b) ^ int(hashed) for b in bits], dtype=np.uint64)
    got = rng.slot_uniform(keys, hashed)
    assert np.array_equal(got, rng.uniform_from_u64(rng._mix_numpy(keys ^ hashed)))
    # a stream keyed so that its first draw hashes to the same bits
    scalar = np.array([rng.RandomStream(int(k))._next_uniform() for k in keys])
    assert np.array_equal(scalar, got)
    # the top 53 bits all ones would round to 1.0; they map to the largest double below
    assert np.all((got > 0.0) & (got < 1.0))
    assert got[-1] == got[-2] == 1.0 - 2.0**-53


def _replicates(groups):
    """Nondecreasing replicates from (gap to the previous replicate, rows of this one)."""
    rep, r = [], -1
    for gap, rows in groups:
        r += gap + 1
        rep += [r] * rows
    return np.array(rep, dtype=np.int64)


GROUPS = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 6)), min_size=1, max_size=12)


@given(GROUPS, st.integers(0, 5), st.integers(0, 50), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_wave_keys_matches_numpy(groups, spare, start_max, random):
    rep = _replicates(groups)
    m = int(rep[-1]) + 1 + spare
    start = np.array([random.randint(0, start_max) for _ in range(m)], dtype=np.int64)
    run_keys = np.array([random.getrandbits(64) for _ in range(m)], dtype=np.uint64)
    before = np.concatenate([rep.view(np.uint64), run_keys])
    got_next, want_next = start.copy(), start.copy()
    *got, got_top = engine._wave_keys(engine._Batch(run_keys, got_next), rep)
    *want, want_top = engine._wave_keys_numpy(rep, run_keys, want_next)
    for g, w in zip(got, want):
        _check(g, w, np.concatenate([rep.view(np.uint64), run_keys]), before)
    assert got_top == want_top and type(got_top) is int
    assert np.array_equal(got_next, want_next)
    # the keys are derive_key(run key, id), as the drivers document
    assert np.array_equal(got[1], rng.derive_key(run_keys[rep], got[0]))


@pytest.mark.parametrize("rep", [[0, 1, 3], [-1, 0]])
def test_wave_keys_rejects_a_replicate_out_of_range(rep):
    kernel = lambda rep, keys, next_id: engine._wave_keys(engine._Batch(keys, next_id), rep)
    for wave_keys in (kernel, engine._wave_keys_numpy):
        with pytest.raises(IndexError):
            wave_keys(np.array(rep, dtype=np.int64), np.zeros(3, np.uint64), np.zeros(3, np.int64))


# a first level that the offspring uniform of the key TIE equals exactly
TIE_LEVEL = (2**51 + 0.5) * 2.0**-53
TIE = _unmix(2**51 << 11) ^ int(engine._H_OFFSPRING)
LAWS = st.sampled_from([
    (TIE_LEVEL, 0.0, 1.0 - TIE_LEVEL),
    (0.5, 0.0, 0.5),
    (0.4, 0.4, 0.0, 0.2),
    (0.25, 0.75, 0.0, 0.0),  # reaches 1.0 before its last entry
    (1.0, 0.0),  # no dead row has a child
    (0.5,) + (0.0,) * 299 + (0.5,),  # 300 children, past any 8-bit count
    (1 / 301,) * 301,
])
# per row: alive, key, and the bits of its death and end position (NaNs,
# infinities and subnormals included: the kernel copies them)
ROW = st.tuples(st.booleans(), st.one_of(U64, HIGH, st.just(TIE)), U64, U64)


@given(GROUPS, st.data(), LAWS, st.booleans(), st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_branch_matches_numpy(groups, data, law, all_alive, arena, motion, strided):
    rep = _replicates(groups)
    rows = data.draw(st.lists(ROW, min_size=rep.size, max_size=rep.size))
    alive, keys, death, pos_end = (np.array(col, dtype=np.uint64) for col in zip(*rows))
    alive = (alive == 1) | all_alive  # all alive: a wave with no children
    death, pos_end = death.view(np.float64), pos_end.view(np.float64)
    ids = [np.arange(rep.size, dtype=np.int64) * 7 + 3] if arena else []
    inputs = [alive, keys, rep, death, pos_end, *ids]
    if strided:
        inputs = [np.repeat(a, 2)[::2] for a in inputs]
    before = [a.copy() for a in inputs]
    cum = OffspringLaw(law).cumulative()
    alive, keys, rep, death, pos_end, *local = inputs
    pos_end = pos_end if motion else None  # an arena wave draws no motion
    local = local[0] if arena else None
    batch = engine._Batch(np.zeros(1, np.uint64), np.zeros(1, np.int64), cum[cum < 1.0])
    got = engine._branch(batch, alive, keys, rep, death, pos_end, local)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "LIB", None)  # the oracle draws its uniforms in numpy too
        want = engine._branch_numpy(alive, keys, cum, rep, death, pos_end, local)
    assert (got[2] is None) == (want[2] is None) == (not motion)
    assert (got[3] is None) == (want[3] is None) == (not arena)
    for g, w in zip(got, want):
        if w is not None:
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()  # NaN payloads and signed zeros included
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()  # inputs are never written


def _runs(sizes, data):
    """Kept runs back to back: run r has sizes[r] rows, and a row's parent is
    -1 (a root) or an earlier row of its run."""
    parent = [data.draw(st.integers(-1, j - 1)) for n in sizes for j in range(n)]
    return np.array(parent, dtype=np.int64), np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(st.integers(1, 8), max_size=6), st.data(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_ancestry_sum_matches_numpy(sizes, data, strided):
    parent, bounds = _runs(sizes, data)
    disp = np.array(data.draw(st.lists(FINITE, min_size=parent.size, max_size=parent.size)))
    root = np.array(data.draw(st.lists(FINITE, min_size=len(sizes), max_size=len(sizes))))
    inputs = [parent, disp.reshape(-1), bounds, root.reshape(-1)]
    if strided:
        inputs = [np.repeat(a, 2)[::2] for a in inputs]
    before = [a.copy() for a in inputs]
    got = engine._ancestry_sum(*inputs)
    want = engine._ancestry_sum_numpy(*inputs)
    assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes()
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()
    # a row's position is its parent's (or its run's root) plus its displacement
    run = np.repeat(np.arange(len(sizes)), sizes)
    start = np.where(parent < 0, root[run], got[np.maximum(bounds[run] + parent, 0)])
    assert np.array_equal(got, start + disp)


@given(st.lists(st.integers(0, 7), max_size=60), st.integers(0, 3), st.data(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_gather_matches_numpy(rep, spare, data, strided):
    rep = np.array(rep, dtype=np.int64)
    sizes = np.bincount(rep, minlength=8 + spare)  # spare replicates have no rows
    rows = np.array(data.draw(st.permutations(range(sizes.size))), dtype=np.int64)
    rows = rows[: data.draw(st.integers(0, rows.size))]  # the kept set may be empty
    if strided:
        rep, rows = np.repeat(rep, 2)[::2], np.repeat(rows, 2)[::2]
    before = rep.copy()
    idx, bounds = engine._gather(rep, rows, sizes)
    want = engine._gather_numpy(rep, rows, sizes.size)
    assert idx.dtype == want.dtype and np.array_equal(idx, want)
    assert np.array_equal(rep, before)
    assert np.array_equal(bounds, np.concatenate(([0], np.cumsum(sizes[rows]))))
    # run after run, each run's rows in their wave order
    assert np.array_equal(rep[idx], np.repeat(rows, sizes[rows]))
    assert all(np.all(np.diff(idx[a:b]) > 0) for a, b in zip(bounds[:-1], bounds[1:]))


def test_build_writes_only_the_cached_library(monkeypatch, tmp_path, capfd, recwarn):
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / "_kernel-0123abcd.so").write_bytes(b"a build of another source")
    (cache / "notes.txt").write_text("not a kernel build")
    monkeypatch.setattr(_kernel, "_CACHE", cache)
    lib = _kernel._load()
    assert lib is not None and not recwarn.list
    # the stale build is removed, the unrelated file is not
    assert sorted(p.name for p in cache.iterdir()) == sorted([lib._name.rsplit("/", 1)[1], "notes.txt"])
    assert capfd.readouterr() == ("", "")
    z = np.arange(1000, dtype=np.uint64)
    monkeypatch.setattr(_kernel, "LIB", lib)
    assert np.array_equal(rng._mix(z), rng._mix_numpy(z))
