"""The C kernel against its numpy oracles, bit for bit, and how it is built."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab import _kernel, engine, rng
from branchlab.engine import CapExceeded, iter_runs, run_once
from branchlab.model import Brownian, Exponential, ModelSpec, OffspringLaw, UniformLifetime, validate_model
from branchlab.rng import stream

MODEL = validate_model(ModelSpec(Exponential(1.0), OffspringLaw((0.5, 0.0, 0.5)), Brownian(1.0)))

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


def _table(size, columns, lo=0, **cols):
    """A table of `size` rows, its bytes set to a fill pattern, holding
    `cols` (strided or not: they are copied in, as the engine copies its
    roots) from row lo."""
    t = engine._Table(size, columns)
    for c in t.cols.values():
        c.view(np.uint8)[...] = 0xA5
    for name, v in cols.items():
        t.col(name, lo, lo + len(v))[...] = v
    return t


def _bytes(t):
    return {name: c.tobytes() for name, c in t.cols.items()}


@given(GROUPS, st.integers(0, 5), st.integers(0, 50), st.randoms(use_true_random=False),
       st.integers(0, 3), st.integers(0, 3), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_wave_keys_matches_numpy(groups, spare, start_max, random, lo, extra, life, strided):
    rep = _replicates(groups)
    if strided:
        rep = np.repeat(rep, 2)[::2]
    n, m = rep.size, int(rep[-1]) + 1 + spare
    start = np.array([random.randint(0, start_max) for _ in range(m)], dtype=np.int64)
    run_keys = np.array([random.getrandbits(64) for _ in range(m)], dtype=np.uint64)
    t = _table(lo + n, {"rep": engine._I8}, lo, rep=rep)
    w = _table(n + extra, engine._SCRATCH if life else {"local": engine._I8, "keys": engine._U8})
    t_before, w_before = _bytes(t), _bytes(w)
    got_next, want_next = start.copy(), start.copy()
    got_top = engine._wave_keys(engine._Batch(run_keys, got_next), t, lo, lo + n, w)
    *want, want_top = engine._wave_keys_numpy(rep, run_keys, want_next)
    for name, v in zip(("local", "keys", "u_life")[: 2 + life], want):
        assert w.col(name, 0, n).tobytes() == v.tobytes()
        assert w.col(name, n).tobytes() == w_before[name][8 * n:]  # rows past the wave are not written
    assert got_top == want_top and type(got_top) is int
    assert np.array_equal(got_next, want_next)
    assert _bytes(t) == t_before  # the table is never written
    # the keys are derive_key(run key, id) and the uniforms their lifetime slot, as the drivers document
    local, keys = want[:2]
    assert np.array_equal(keys, rng.derive_key(run_keys[rep], local))
    assert np.array_equal(want[2], rng.slot_uniform(keys, rng.slot_hash(0)))


@pytest.mark.parametrize("rep", [[0, 1, 3], [-1, 0]])
def test_wave_keys_rejects_a_replicate_out_of_range(rep):
    rep = np.array(rep, dtype=np.int64)
    for lib in (_kernel.LIB, None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernel, "LIB", lib)
            t = _table(rep.size, {"rep": engine._I8}, rep=rep)
            w = _table(rep.size, engine._SCRATCH)
            with pytest.raises(IndexError):
                engine._wave_keys(engine._Batch(np.zeros(3, np.uint64), np.zeros(3, np.int64)), t, 0, rep.size, w)
    with pytest.raises(IndexError):
        engine._wave_keys_numpy(rep, np.zeros(3, np.uint64), np.zeros(3, np.int64))


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
# per row: key, and the bits of its birth and lifetime (NaNs, infinities and
# subnormals included: the kernel adds and compares them as numpy does)
ROW = st.tuples(st.one_of(U64, HIGH, st.just(TIE)), U64, U64)
HORIZONS = st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0]))


@given(st.lists(ROW, min_size=1, max_size=40), LAWS, HORIZONS, st.booleans(), st.booleans(),
       st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_offspring_matches_numpy(rows, law, horizon, all_alive, strided, lo, extra):
    keys, birth, lifetime = (np.array(col, dtype=np.uint64) for col in zip(*rows))
    birth, lifetime = birth.view(np.float64), lifetime.view(np.float64)
    if all_alive:  # a wave with no children: every row outlives the horizon
        birth, lifetime, horizon = np.abs(np.nan_to_num(birth)), np.abs(np.nan_to_num(lifetime)), -1.0
    if strided:
        keys, birth, lifetime = (np.repeat(a, 2)[::2] for a in (keys, birth, lifetime))
    n, cum = keys.size, OffspringLaw(law).cumulative()
    t = _table(lo + n, engine._TREE, lo, birth=birth, lifetime=lifetime)
    w = _table(n + extra, engine._SCRATCH)
    w.col("keys", 0, n)[...] = keys
    before = [a.copy() for a in (keys, birth, lifetime)]
    t_before, w_before = _bytes(t), _bytes(w)
    total = engine._offspring(engine._Batch(np.zeros(1, np.uint64), np.zeros(1, np.int64), cum[cum < 1.0]),
                              t, lo, lo + n, w, horizon)
    death, alive, kids = engine._offspring_numpy(birth, lifetime, horizon, keys, cum)
    assert type(total) is int and total == kids.sum()
    assert not all_alive or (alive.all() and total == 0)
    assert w.col("death", 0, n).tobytes() == death.tobytes()  # NaN payloads and signed zeros included
    assert w.col("kids", 0, n).tobytes() == kids.tobytes()
    assert t.col("alive", lo, lo + n).tobytes() == alive.tobytes()
    # nothing else is written: the other columns, the rows around the wave, the inputs
    a = t_before["alive"]
    t_before["alive"] = a[:lo] + alive.tobytes() + a[lo + n:]
    assert _bytes(t) == t_before
    for name in ("death", "kids"):
        w_before[name] = w.col(name, 0, n).tobytes() + w_before[name][8 * n:]
    assert _bytes(w) == w_before
    for a, b in zip((keys, birth, lifetime), before):
        assert a.tobytes() == b.tobytes()


@given(GROUPS, st.data(), st.booleans(), st.booleans(), st.booleans(), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_branch_matches_numpy(groups, data, arena, motion, in_place, lo, gap):
    rep = _replicates(groups)
    n = rep.size
    kids = np.array(data.draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 300]), min_size=n, max_size=n)),
                    dtype=np.int64)
    bits = [np.array(data.draw(st.lists(U64, min_size=n, max_size=n)), dtype=np.uint64) for _ in range(2)]
    death, pos_end = (b.view(np.float64) for b in bits)  # the kernel copies any bits
    local = np.arange(n, dtype=np.int64) * 7 + 3
    columns = {"rep": engine._I8, "birth": engine._F8, "lifetime": engine._F8, "alive": engine._B1}
    columns.update({"parent": engine._I8} if arena else {}, **({"pos": engine._F8} if motion else {}))
    total = int(kids.sum())
    t = _table(lo + n + gap + total, columns, lo, rep=rep, **({"pos": pos_end} if motion else {}))
    # children go after the wave in its own table (arena) or to a table of their own
    out, at = (t, lo + n + gap) if in_place else (_table(gap + total, columns), gap)
    w = _table(n, engine._SCRATCH, kids=kids, death=death, local=local)
    w_before = _bytes(w)
    engine._branch(t, lo, lo + n, w, out, at)
    want = engine._branch_numpy(kids, rep, death, pos_end if motion else None, local if arena else None)
    assert (want[2] is None) == (not motion) and (want[3] is None) == (not arena)
    for name, v in zip(("rep", "birth", "pos", "parent"), want):
        if v is not None:
            assert out.col(name, at, at + total).tobytes() == v.tobytes()
    assert _bytes(w) == w_before
    assert t.col("rep", lo, lo + n).tobytes() == rep.tobytes()
    if motion:
        assert t.col("pos", lo, lo + n).tobytes() == pos_end.tobytes()


AGED = validate_model(ModelSpec(UniformLifetime(0.5, 2.0), OffspringLaw((0.25, 0.5, 0.25)), Brownian(0.5),
                                initial_age=1.0))
TERNARY = validate_model(ModelSpec(Exponential(1.0), OffspringLaw((0.4, 0.4, 0.0, 0.2)), Brownian(1.0)))


def _outputs(out):
    """The byte strings of a batch's outputs, whatever the mode."""
    if isinstance(out, np.ndarray):
        return [out.tobytes()]
    flat = []
    for item in out:
        flat += [v.tobytes() for v in item.values()] if isinstance(item, dict) else [np.asarray(item).tobytes()]
    return flat


@given(GROUPS, st.sampled_from(["arena", "counts", "snapshot"]), st.sampled_from([AGED, TERNARY]),
       st.floats(0.0, 6.0), st.data(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_fused_wave_matches_numpy_path(groups, mode, model, horizon, data, strided):
    # whole batches through both paths: conditioned wave-0 uniforms (roots of
    # any age below the lifetime's support), all-alive waves (horizon 0 and
    # old roots) and strided roots
    rep = np.arange(len(groups), dtype=np.int64) if mode == "arena" else _replicates(groups)
    ages = st.floats(0.0, 1.9)
    birth = -np.array(data.draw(st.lists(ages, min_size=rep.size, max_size=rep.size)))
    pos = np.arange(rep.size, dtype=float) / 3
    keys = np.arange(1, int(rep[-1]) + 2, dtype=np.uint64) * 0x9E3779B97F4A7C15
    if strided:
        rep, birth, pos = (np.repeat(a, 2)[::2] for a in (rep, birth, pos))
    run = lambda: engine._batch_simulate(model, horizon, keys, rep, birth, pos, 10**6, mode)
    got = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernel, "LIB", None)
        want = run()
    assert _outputs(got) == _outputs(want)


def _arena_args(reps, seed):
    keys = np.array([stream(seed).child(r).key for r in range(reps)], dtype=np.uint64)
    return (keys, *engine._single_root_arrays(reps, MODEL))


def _track_growth(monkeypatch):
    """A list of the sizes each arena table grows to, cleared by each batch."""
    grown, fit, simulate = [], engine._Table.fit, engine._batch_simulate

    def tracked_fit(self, need, used=0):
        out = fit(self, need, used)
        if out is not self and "parent" in self.columns:
            grown.append(out.size)
        return out

    def tracked_simulate(*args, **kwargs):
        grown.clear()
        return simulate(*args, **kwargs)

    monkeypatch.setattr(engine._Table, "fit", tracked_fit)
    monkeypatch.setattr(engine, "_batch_simulate", tracked_simulate)
    return grown


def test_arena_table_grows_through_doublings(monkeypatch):
    batch = lambda: engine._batch_simulate(MODEL, 8.0, *_arena_args(24, 31), 10**6, "arena")
    start = batch()  # starts at the expected rows
    grown = _track_growth(monkeypatch)
    monkeypatch.setattr(engine, "_TREE_START_MAX", 1)  # starts at one row per root
    doubled = batch()
    assert len(grown) >= 3 and grown[0] >= 2 * 24 and all(b >= 2 * a for a, b in zip(grown, grown[1:]))
    monkeypatch.setattr(_kernel, "LIB", None)
    numpy_path = batch()
    assert len(grown) >= 3
    assert _outputs(doubled) == _outputs(start) == _outputs(numpy_path)
    assert doubled[0]["rep"].size == doubled[1].sum()


@pytest.mark.parametrize("kernel", [True, False])
def test_cap_exceeded_past_a_growth_names_the_replicate(monkeypatch, kernel):
    t, reps, block, rng = 6.0, 12, 4, stream(21)
    sizes = [len(run_once(MODEL, t, rng.child(r).child(0)).arena) for r in range(reps)]
    worst = int(np.argmax(sizes))
    cap = max(s for r, s in enumerate(sizes) if r != worst)
    assert worst >= block and sizes[worst] > cap  # the one offender sits in a later block
    if not kernel:
        monkeypatch.setattr(_kernel, "LIB", None)
    monkeypatch.setattr(engine, "_RUN_BLOCK", block)
    monkeypatch.setattr(engine, "_TREE_START_MAX", 1)
    grown = _track_growth(monkeypatch)
    with pytest.raises(CapExceeded) as exc:
        list(iter_runs(MODEL, t, rng, reps, particle_cap=cap))
    assert exc.value.replicates == [worst]
    assert len(grown) >= 2  # the batch that raised had grown its table more than once


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
