import gc
import hashlib
import heapq
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab import _kernel, engine
from branchlab.engine import (
    CapExceeded,
    MaxAttemptsExceeded,
    arena_to_csv,
    conditioned_counts,
    iter_runs,
    run_conditioned,
    run_once,
    run_to_jsonl,
    simulate_fields,
    survival_counts,
)
from branchlab.model import (
    Brownian,
    ConfigError,
    Deterministic,
    Exponential,
    ModelSpec,
    OffspringLaw,
    UniformLifetime,
    binary_exponential_model,
    validate_model,
)
from branchlab.rng import stream
from branchlab.stats import birth_death_conditioned_pmf, chi_square_gof
from branchlab.superprocess import ScalingFamily, scaled_fields

MODEL = binary_exponential_model()


def check_structure(run, model):
    a = run.arena
    n = len(a)
    assert a.parent[0] == -1
    child = np.flatnonzero(a.parent >= 0)
    assert np.all(a.parent[child] < child)  # topological order
    # children born exactly at the parent's death
    assert np.array_equal(a.birth[child], a.birth[a.parent[child]] + a.lifetime[a.parent[child]])
    assert np.array_equal(a.alive, (a.birth <= a.horizon) & (a.horizon < a.birth + a.lifetime))
    assert np.all(a.lifetime > 0)
    # snapshot consistent with the arena
    ids = np.flatnonzero(a.alive)
    assert np.array_equal(run.snapshot.ids, ids)
    assert np.array_equal(run.snapshot.ages, a.horizon - a.birth[ids])
    assert np.all(run.snapshot.ages >= 0)
    assert np.all(run.snapshot.ages <= a.horizon + model.initial_age)


# --- basics -----------------------------------------------------------------


def test_horizon_zero_single_entry():
    m = validate_model(
        ModelSpec(Exponential(1.0), OffspringLaw((0.5, 0.0, 0.5)), Brownian(1.0),
                  initial_age=0.7, initial_position=-2.0)
    )
    run = run_once(m, 0.0, stream(1, 0))
    assert run.snapshot.n_alive == 1
    assert run.snapshot.ages[0] == 0.7
    assert run.snapshot.positions[0] == -2.0


def test_negative_horizon_rejected_before_simulating(monkeypatch):
    def no_wave(*args):
        raise AssertionError("a wave was simulated")

    monkeypatch.setattr(engine, "slot_uniform", no_wave)
    monkeypatch.setattr(engine, "_wave_keys", no_wave)  # arena waves draw no motion
    one = np.zeros(1, dtype=np.int64)
    drivers = [
        lambda t: run_once(MODEL, t, stream(1)),
        lambda t: next(iter_runs(MODEL, t, stream(1), 2)),
        lambda t: next(iter_runs(MODEL, t / 2, stream(1), 2, conditioned=True)),
        lambda t: survival_counts(MODEL, t, stream(1), 10),
        lambda t: conditioned_counts(MODEL, t, stream(1), 10),
        lambda t: simulate_fields(MODEL, t, np.ones(1, dtype=np.uint64), one,
                                  np.zeros(1), np.zeros(1)),
    ]
    for t in (-1.0, math.nan, math.inf):
        for driver in drivers:
            with pytest.raises(ConfigError, match="nonnegative"):
                driver(t)


@pytest.mark.parametrize("reps", [0, -3])
def test_counts_drivers_reject_reps_below_one(monkeypatch, reps):
    for name in ("slot_uniform", "_wave_keys"):
        monkeypatch.setattr(engine, name, lambda *args: pytest.fail("a wave was simulated"))
    for driver in (survival_counts, conditioned_counts):
        with pytest.raises(ConfigError, match="must be positive"):
            driver(MODEL, 5.0, stream(1), reps)


@pytest.mark.parametrize("chunk_size", [0, -3])
def test_survival_counts_rejects_chunk_size_below_one(monkeypatch, chunk_size):
    monkeypatch.setattr(engine, "_wave_keys", lambda *args: pytest.fail("a wave was simulated"))
    with pytest.raises(ConfigError, match="chunk_size"):
        survival_counts(MODEL, 5.0, stream(1), 5, chunk_size=chunk_size)


def test_arena_draws_normals_for_kept_rows_only(monkeypatch):
    # the waves draw the tree only; motion is drawn once, for the runs kept
    draws = []
    ndtri = engine.ndtri
    monkeypatch.setattr(engine, "ndtri", lambda u: draws.append(u.size) or ndtri(u))
    runs = list(iter_runs(MODEL, 8.0, stream(4), 40, conditioned=True))
    assert sum(r.attempts for r in runs) > len(runs)  # rejected attempts were simulated
    assert sum(draws) == sum(len(r.arena) for r in runs)
    draws.clear()
    run = run_once(MODEL, 8.0, stream(4, 0))
    assert draws == [len(run.arena)]


def test_seed_7_0_identical_arenas():
    a = run_once(MODEL, 10.0, stream(7, 0))
    b = run_once(MODEL, 10.0, stream(7, 0))
    for field in ("parent", "birth", "lifetime", "displacement", "alive"):
        assert np.array_equal(getattr(a.arena, field), getattr(b.arena, field))
    assert run_to_jsonl(a) == run_to_jsonl(b)


def test_mean_population_is_conserved():
    counts = survival_counts(MODEL, 10.0, stream(3), 100_000)
    # E N_t = 1 for critical branching; Var N_t = sigma^2 t / mu = 10
    stderr = math.sqrt(counts.var() / counts.size)
    assert abs(counts.mean() - 1.0) < 4 * stderr


def test_conditioned_attempts_oracle():
    # mean attempts = 1 / P(A_t) = (2 + t)/2 = 11 at t=20
    _, attempts = conditioned_counts(MODEL, 20.0, stream(5), 10_000)
    assert abs(attempts.mean() - 11.0) < 0.5


def test_conditioned_population_exact_law():
    counts, _ = conditioned_counts(MODEL, 10.0, stream(11), 10_000)
    rep = chi_square_gof(counts, lambda k: birth_death_conditioned_pmf(1.0, 10.0, k))
    assert rep.passed, (rep.statistic, rep.threshold)


def test_cap_exceeded(monkeypatch):
    # cap of 3 records is passed by any surviving run
    monkeypatch.setattr(engine, "DEFAULT_PARTICLE_CAP", 3)
    with pytest.raises(CapExceeded):
        run_conditioned(MODEL, 10.0, stream(2))


def test_max_attempts_exceeded(monkeypatch):
    monkeypatch.setattr(engine, "DEFAULT_MAX_ATTEMPTS", 1)
    with pytest.raises(MaxAttemptsExceeded):
        run_conditioned(MODEL, 200.0, stream(4))


def test_batched_drivers_raise_max_attempts(monkeypatch):
    # P(N_200 > 0) = 1/101, so one attempt each cannot settle all 8 replicates
    monkeypatch.setattr(engine, "DEFAULT_MAX_ATTEMPTS", 1)
    with pytest.raises(MaxAttemptsExceeded):
        conditioned_counts(MODEL, 200.0, stream(4), 8)
    with pytest.raises(MaxAttemptsExceeded):
        list(iter_runs(MODEL, 200.0, stream(4), 8, conditioned=True))


def test_iter_runs_cap_names_the_global_replicate(monkeypatch):
    t, reps, block, rng = 6.0, 12, 4, stream(21)
    sizes = [len(run_once(MODEL, t, rng.child(r).child(0)).arena) for r in range(reps)]
    worst = int(np.argmax(sizes))
    cap = max(s for r, s in enumerate(sizes) if r != worst)
    assert worst >= block and sizes[worst] > cap  # the one offender sits in a later block
    monkeypatch.setattr(engine, "_RUN_BLOCK", block)
    with pytest.raises(CapExceeded) as exc:
        list(iter_runs(MODEL, t, rng, reps, particle_cap=cap))
    assert exc.value.replicates == [worst]


def test_conditioned_cap_names_each_replicate_once(monkeypatch):
    # with a cap of one row, several of each replicate's attempts pass it
    with pytest.raises(CapExceeded) as exc:
        list(iter_runs(MODEL, 1.0, stream(1), 3, conditioned=True, particle_cap=1))
    assert exc.value.replicates == [0, 1, 2]
    monkeypatch.setattr(engine, "DEFAULT_PARTICLE_CAP", 1)
    with pytest.raises(CapExceeded) as exc:
        conditioned_counts(MODEL, 1.0, stream(1), 3)
    assert exc.value.replicates == [0, 1, 2]


def test_cap_counts_every_row_of_one_replicate(monkeypatch):
    t, reps, rng = 6.0, 40, stream(22)
    # survival_counts keys replicate r by rng.child(r).child(0), simulate_fields
    # by the key it is given; run_once counts the same rows for either
    sizes = np.array([len(run_once(MODEL, t, rng.child(r).child(0)).arena) for r in range(reps)])
    keys = np.array([rng.child(r).child(0).key for r in range(reps)], dtype=np.uint64)
    roots = np.arange(reps, dtype=np.int64)
    worst = int(np.argmax(sizes))

    def fields():
        return simulate_fields(MODEL, t, keys, roots, np.zeros(reps), np.zeros(reps))

    counts, alive = survival_counts(MODEL, t, rng, reps), fields()[3]
    assert np.array_equal(counts, alive)
    monkeypatch.setattr(engine, "DEFAULT_PARTICLE_CAP", int(sizes.max()))
    assert sizes.sum() > engine.DEFAULT_PARTICLE_CAP  # the batch passes the cap, no replicate does
    assert np.array_equal(survival_counts(MODEL, t, rng, reps), counts)
    assert np.array_equal(fields()[3], counts)

    monkeypatch.setattr(engine, "DEFAULT_PARTICLE_CAP", int(sizes.max()) - 1)
    assert np.sum(sizes > engine.DEFAULT_PARTICLE_CAP) == 1
    with pytest.raises(CapExceeded) as exc:
        survival_counts(MODEL, t, rng, reps)
    assert exc.value.replicates == [worst]
    with pytest.raises(CapExceeded) as exc:
        fields()
    assert exc.value.replicates == [worst]


@pytest.mark.parametrize("kernel", [True, False])
def test_unsorted_roots_rejected(monkeypatch, kernel):
    # unsorted roots once numbered differently on the kernel and numpy paths
    if not kernel:
        monkeypatch.setattr(_kernel, "LIB", None)
    for name in ("slot_uniform", "_wave_keys"):
        monkeypatch.setattr(engine, name, lambda *args: pytest.fail("a wave was simulated"))
    keys = np.array([11, 12], dtype=np.uint64)
    with pytest.raises(ConfigError, match="sorted by replicate"):
        simulate_fields(MODEL, 3.0, keys, np.array([1, 0, 1]), np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("probabilities", [
    (0.5, 0.0, 0.5),
    (2 / 3, 0.0, 0.0, 1 / 3),
    (0.4, 0.4, 0.0, 0.2),
    (0.25, 0.75, 0.0, 0.0),  # reaches 1.0 before its last entry
    (0.1, 0.2, 0.3, 0.4),
])
def test_offspring_count_equals_searchsorted(probabilities):
    cum = OffspringLaw(probabilities).cumulative()
    levels = cum[cum < 1.0]
    on_and_around = np.concatenate([levels, np.nextafter(levels, 0.0), np.nextafter(levels, 1.0)])
    extremes = [0.5 * 2.0**-53, (2.0**53 - 0.5) * 2.0**-53]  # slot_uniform's range
    u = np.concatenate([on_and_around, extremes, np.random.default_rng(0).random(10_000)])
    u = u[(u > 0) & (u < 1)]
    assert np.array_equal(engine._offspring_count(u, cum), np.searchsorted(cum, u, side="right"))


def test_unconditioned_mean_survivor_position_zero():
    pos = []
    for run in iter_runs(MODEL, 10.0, stream(17), 4000):
        if run.snapshot.n_alive:
            pos.append(float(run.snapshot.positions.mean()))
    pos = np.asarray(pos)
    assert abs(pos.mean()) < 4 * pos.std() / math.sqrt(pos.size)


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _wave_core_digests():
    ternary = validate_model(
        ModelSpec(Exponential(1.0), OffspringLaw((0.4, 0.4, 0.0, 0.2)), Brownian(1.0))
    )
    aged = validate_model(
        ModelSpec(UniformLifetime(0.5, 2.0), OffspringLaw((0.25, 0.5, 0.25)), Brownian(0.5),
                  initial_age=1.0, initial_position=0.5)
    )
    arena_cols = []
    for run in iter_runs(aged, 6.0, stream(13), 40, conditioned=True):
        a = run.arena
        arena_cols += [a.parent, a.birth, a.lifetime, a.displacement, run.snapshot.positions,
                       a.alive, np.array([run.attempts])]
    batches = scaled_fields(ScalingFamily(n=20), 1.0, 70, stream(5))  # multi-root replicates
    fields = [col for batch in batches for col in batch]
    return {
        "survival_counts": _digest([survival_counts(MODEL, 20.0, stream(1), 20_000)]),
        "conditioned_counts": _digest(conditioned_counts(ternary, 10.0, stream(2), 2000)),
        "iter_runs_arena": _digest(arena_cols),
        "simulate_fields": _digest(fields),
    }


# sha256 of each output's dtypes and bytes: outputs are pinned for a given
# seed, so a change to the wave core must reproduce every digest
WAVE_CORE_DIGESTS = {
    "survival_counts": "89851cd8dab6fb1bd36530b90a2b2a37ff9d4ce2584506be5399a37e760d75b4",
    "conditioned_counts": "4e325165c785e85569ceef48d597147b4ced1a698a583a08d12d309221445933",
    "iter_runs_arena": "993117e4cec5d072b1b01ee54a5c48b9ece8b4049eb02d8c483e0e0ff50b6efb",
    "simulate_fields": "6dcb063389f5761302363a65c752fc17a07de037e32b3699f2f3c609ccfaec2b",
}


def test_wave_core_outputs_pinned():
    assert _wave_core_digests() == WAVE_CORE_DIGESTS


def test_wave_core_outputs_pinned_without_kernel(monkeypatch, tmp_path):
    # a compiler that is not there: the build warns once, and the numpy path
    # it leaves reproduces every digest
    monkeypatch.setattr(_kernel, "_CACHE", tmp_path)
    monkeypatch.setattr(_kernel, "_compiler", lambda: [str(tmp_path / "no-such-cc")])
    with pytest.warns(RuntimeWarning, match="no-such-cc") as record:
        lib = _kernel._load()
    assert lib is None and len(record) == 1
    assert not any(tmp_path.iterdir())
    monkeypatch.setattr(_kernel, "LIB", lib)
    assert _wave_core_digests() == WAVE_CORE_DIGESTS


# --- determinism across drivers ---------------------------------------------


def test_batch_equals_single_run_conditioned():
    runs = list(iter_runs(MODEL, 10.0, stream(3), 6, conditioned=True))
    for r in range(6):
        single = run_conditioned(MODEL, 10.0, stream(3).child(r))
        assert single.attempts == runs[r].attempts
        assert np.array_equal(single.arena.displacement, runs[r].arena.displacement)
        assert np.array_equal(single.arena.birth, runs[r].arena.birth)


def test_thread_and_chunk_invariance():
    base = survival_counts(MODEL, 15.0, stream(8), 6000)
    assert np.array_equal(base, survival_counts(MODEL, 15.0, stream(8), 6000, chunk_size=2000))
    assert np.array_equal(base, survival_counts(MODEL, 15.0, stream(8), 6000, chunk_size=501))


def test_block_size_invariance(monkeypatch):
    def runs(block):
        monkeypatch.setattr(engine, "_RUN_BLOCK", block)
        return [run_to_jsonl(r) for r in iter_runs(MODEL, 8.0, stream(9), 20, conditioned=True)]

    assert runs(3) == runs(256)


def test_attempt_block_invariance(monkeypatch):
    def attempts(block):
        monkeypatch.setattr(engine, "_ATTEMPT_BLOCK", block)
        runs = [r.attempts for r in iter_runs(MODEL, 12.0, stream(10), 30, conditioned=True)]
        return runs, conditioned_counts(MODEL, 12.0, stream(10), 30)[1].tolist()

    assert attempts(2) == attempts(64)


def test_kept_runs_own_their_rows():
    # a kept run must not hold a view into its round's batch, most of whose
    # rows are rejected attempts of other replicates; runs kept from one
    # round may share the arrays their rows were gathered into
    tracemalloc.start()
    try:
        runs = list(iter_runs(binary_exponential_model(), 50.0, stream(3), 64, conditioned=True))
        gc.collect()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    owned, bases = 0, {}
    for run in runs:
        a, s = run.arena, run.snapshot
        for c in (a.parent, a.birth, a.lifetime, a.displacement, a.alive,
                  s.ages, s.positions, s.ids):
            owned += c.nbytes
            base = c if c.base is None else c.base
            bases[id(base)] = base
    assert sum(b.nbytes for b in bases.values()) == owned
    assert traced <= 1.2 * owned, (traced, owned)


@given(st.integers(0, 2**32), st.sampled_from([2.0, 5.0, 9.0]))
@settings(max_examples=25, deadline=None)
def test_structural_invariants_random_runs(seed, horizon):
    run = run_once(MODEL, horizon, stream(seed, 0))
    if len(run.arena):
        check_structure(run, MODEL)


@given(st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_structure_deterministic_lifetimes(seed):
    m = validate_model(ModelSpec(Deterministic(1.0), OffspringLaw((0.5, 0.0, 0.5)), Brownian(1.0)))
    run = run_once(m, 5.5, stream(seed, 0))
    check_structure(run, m)
    # all alive particles were born at integer times
    assert np.all(run.snapshot.ages == 0.5)


@given(st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_structure_uniform_lifetimes_initial_age(seed):
    m = validate_model(
        ModelSpec(UniformLifetime(0.5, 2.0), OffspringLaw((0.25, 0.5, 0.25)), Brownian(0.5),
                  initial_age=1.0)
    )
    run = run_once(m, 6.0, stream(seed, 0))
    check_structure(run, m)
    # the root's total lifetime must exceed its initial age
    assert run.arena.lifetime[0] > 1.0


# --- serialization -----------------------------------------------------------


def test_run_jsonl_schema():
    import json

    run = run_conditioned(MODEL, 5.0, stream(30))
    payload = json.loads(run_to_jsonl(run))
    assert payload["n_t"] == run.snapshot.n_alive
    assert payload["attempts"] == run.attempts
    assert payload["seed_path"] == list(run.seed_path)
    assert len(payload["snapshot"]) == payload["n_t"]


def test_arena_csv_roundtrip():
    run = run_once(MODEL, 5.0, stream(31, 0))
    text = arena_to_csv(run.arena)
    lines = text.strip().split("\n")
    assert lines[0] == "id,parent,birth,lifetime,displacement,alive"
    assert len(lines) == len(run.arena) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "-1"


# --- independent cross-validation ---------------------------------------------


def _brute_force_conditioned(seed, t, want):
    """Heap-based event-driven simulator with numpy's own Generator: a fully
    independent implementation of the same binary-exponential process."""
    picker = np.random.default_rng(seed)
    ages, gens, ns = [], [], []
    trial = 0
    while len(ages) < want:
        trial += 1
        rng = np.random.default_rng((seed, trial))
        birth, parent = [0.0], [-1]
        heap = [(rng.exponential(), 0)]
        alive = []
        while heap:
            death, pid = heapq.heappop(heap)
            if death > t:
                alive.append(pid)
                continue
            if rng.uniform() < 0.5:
                for _ in range(2):
                    cid = len(birth)
                    birth.append(death)
                    parent.append(pid)
                    heapq.heappush(heap, (death + rng.exponential(), cid))
        if not alive:
            continue
        pid = alive[picker.integers(len(alive))]
        ages.append(t - birth[pid])
        g = 0
        node = pid
        while parent[node] >= 0:
            node = parent[node]
            g += 1
        gens.append(g)
        ns.append(len(alive))
    return np.asarray(ages), np.asarray(gens, dtype=float), np.asarray(ns, dtype=float)


def test_engine_matches_brute_force_simulator():
    from scipy.stats import ks_2samp

    t, n = 8.0, 6000
    b_ages, b_gens, b_ns = _brute_force_conditioned(12345, t, n)
    ages, gens, ns = [], [], []
    samp = stream(4242, 77)
    for i, run in enumerate(iter_runs(MODEL, t, stream(555), n, conditioned=True)):
        alive = run.snapshot.ids
        pick = alive[int(samp.child(i).uniform() * alive.size)]
        ages.append(run.arena.horizon - run.arena.birth[pick])
        node = int(pick)
        g = 0
        while run.arena.parent[node] >= 0:
            node = int(run.arena.parent[node])
            g += 1
        gens.append(g)
        ns.append(run.snapshot.n_alive)
    assert ks_2samp(ages, b_ages).pvalue > 1e-3
    assert ks_2samp(gens, b_gens).pvalue > 1e-3
    assert ks_2samp(ns, b_ns).pvalue > 1e-3
