import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchlab.engine import GenealogyArena, RunRecord, Snapshot, iter_runs, run_conditioned
from branchlab.genealogy import (
    AncestralLine,
    CoalescentSample,
    DuplicateIds,
    NotAlive,
    NotEnoughSurvivors,
    ancestral_line,
    coalescence_times,
    coalescent_csv_rows,
    sample_survivors,
)
from branchlab.model import binary_exponential_model, parse_model_config, validate_model
from branchlab.rng import stream

MODEL = binary_exponential_model()
# critical (mean 0.4 + 3 * 0.2 = 1) with triple births, so one split node can
# carry three sampled branches
TERNARY = validate_model(parse_model_config(
    "lifetime = exp:1.0\noffspring = 0.4,0.4,0,0.2\nmotion = bm:1.0\n"
))


def manual_run(parent, birth, lifetime, horizon, displacement=None):
    parent = np.asarray(parent, dtype=np.int64)
    birth = np.asarray(birth, dtype=float)
    lifetime = np.asarray(lifetime, dtype=float)
    disp = np.zeros_like(birth) if displacement is None else np.asarray(displacement, dtype=float)
    alive = (birth <= horizon) & (horizon < birth + lifetime)
    pos = np.zeros_like(birth)
    for i in range(len(parent)):
        base = 0.0 if parent[i] < 0 else pos[parent[i]]
        pos[i] = base + disp[i]
    arena = GenealogyArena(
        parent=parent, birth=birth, lifetime=lifetime, displacement=disp, alive=alive, horizon=horizon,
    )
    ids = np.flatnonzero(alive)
    snap = Snapshot(ages=horizon - birth[ids], positions=pos[ids], ids=ids, horizon=horizon)
    return RunRecord(arena=arena, snapshot=snap, attempts=1, seed_path=(0,))


# --- sampling ----------------------------------------------------------------


def test_sample_full_alive_set():
    run = run_conditioned(MODEL, 8.0, stream(1))
    k = run.snapshot.n_alive
    ids = sample_survivors(run, k, stream(2))
    assert sorted(ids.tolist()) == np.flatnonzero(run.arena.alive).tolist()


def test_sample_too_many():
    run = run_conditioned(MODEL, 8.0, stream(1))
    with pytest.raises(NotEnoughSurvivors):
        sample_survivors(run, run.snapshot.n_alive + 1, stream(2))


def test_sampling_uniformity():
    # fixed five-survivor run; k=1 frequencies ~ 0.2 each
    run = manual_run(
        parent=[-1, 0, 0, 1, 1, 2, 2, 3, 3],
        birth=[0.0, 1.0, 1.0, 2.0, 2.0, 2.5, 2.5, 2.8, 2.8],
        lifetime=[1.0, 1.0, 1.5, 0.8, 9.0, 9.0, 9.0, 9.0, 9.0],
        horizon=3.0,
    )
    assert run.snapshot.n_alive == 5
    picks = np.array([int(sample_survivors(run, 1, stream(1000).child(i))[0]) for i in range(20_000)])
    freqs = np.bincount(picks, minlength=9)[run.snapshot.ids] / picks.size
    assert np.all(np.abs(freqs - 0.2) < 0.012)  # ~4 sigma binomial band


def test_sampling_deterministic():
    run = run_conditioned(MODEL, 8.0, stream(1))
    a = sample_survivors(run, 2, stream(5))
    b = sample_survivors(run, 2, stream(5))
    assert np.array_equal(a, b)


# --- ancestral lines ----------------------------------------------------------


def test_root_survivor_line():
    run = manual_run(parent=[-1], birth=[0.0], lifetime=[10.0], horizon=4.0)
    line = ancestral_line(run, 0)
    assert line.generation_count == 0
    assert line.residual_age == 4.0
    assert line.lifetimes.size == 0


def test_line_bookkeeping_identity():
    for i, run in enumerate(iter_runs(MODEL, 12.0, stream(7), 50, conditioned=True)):
        pid = int(sample_survivors(run, 1, stream(8).child(i))[0])
        line = ancestral_line(run, pid)
        slack = abs(line.lifetimes.sum() + line.residual_age - (12.0 + 0.0))
        assert slack < 1e-9 * 12.0
        pos = run.snapshot.positions[np.searchsorted(run.snapshot.ids, pid)]
        recon = line.displacements.sum() + line.residual_displacement
        assert abs(recon - pos) < 1e-9


def test_line_not_alive():
    run = run_conditioned(MODEL, 8.0, stream(1))
    dead = int(np.flatnonzero(~run.arena.alive)[0])
    with pytest.raises(NotAlive):
        ancestral_line(run, dead)


def test_ancestral_mean_lifetime_unbiased():
    # LLN along the line of descent: mean ancestral lifetime near mu = 1,
    # clearly away from the size-biased mean 2
    vals = []
    for i, run in enumerate(iter_runs(MODEL, 50.0, stream(9), 800, conditioned=True)):
        pid = int(sample_survivors(run, 1, stream(10).child(i))[0])
        line = ancestral_line(run, pid)
        if line.generation_count:
            vals.append(line.lifetimes.mean())
    mean = float(np.mean(vals))
    assert abs(mean - 1.0) < 0.1
    assert abs(mean - 2.0) > 0.5


# --- coalescence -------------------------------------------------------------


def test_sibling_pair():
    run = manual_run(
        parent=[-1, 0, 0],
        birth=[0.0, 3.0, 3.0],
        lifetime=[3.0, 9.0, 9.0],
        horizon=5.0,
    )
    cs = coalescence_times(run, [1, 2])
    # split time is the parent's birth, not its death
    assert cs.tau.tolist() == [0.0]


def test_star_topology():
    # root dies at 1 leaving four surviving children: every split is the root's
    run = manual_run(
        parent=[-1, 0, 0, 0, 0],
        birth=[0.0, 1.0, 1.0, 1.0, 1.0],
        lifetime=[1.0, 9.0, 9.0, 9.0, 9.0],
        horizon=2.0,
    )
    cs = coalescence_times(run, [1, 2, 3, 4])
    assert cs.tau.tolist() == [0.0, 0.0, 0.0]
    for pair in ([1, 2], [1, 4], [3, 2]):
        assert coalescence_times(run, pair).tau.tolist() == [0.0]


def test_two_level_tree():
    # root -> (1, 2); 1 -> (3, 4); survivors 2, 3, 4
    run = manual_run(
        parent=[-1, 0, 0, 1, 1],
        birth=[0.0, 1.0, 1.0, 2.5, 2.5],
        lifetime=[1.0, 1.5, 9.0, 9.0, 9.0],
        horizon=3.0,
    )
    cs = coalescence_times(run, [2, 3, 4])
    assert cs.tau.tolist() == [0.0, 1.0]
    assert coalescence_times(run, [3, 4]).tau.tolist() == [1.0]  # MRCA is particle 1, born at 1.0
    assert coalescence_times(run, [2, 3]).tau.tolist() == [0.0]


def test_three_branch_root_repeats_its_birth():
    # the root, born at 0.25, leaves three children alive at the horizon
    run = manual_run(
        parent=[-1, 0, 0, 0],
        birth=[0.25, 1.0, 1.0, 1.0],
        lifetime=[0.75, 9.0, 9.0, 9.0],
        horizon=2.0,
    )
    cs = coalescence_times(run, [3, 1, 2])
    assert cs.tau.tolist() == [0.25, 0.25]


def branch_count_tau(run, ids):
    """Split times by their definition, and the widest split: every node
    through which c >= 2 distinct sampled lineages pass contributes its birth
    time c - 1 times."""
    parent, birth = run.arena.parent, run.arena.birth
    branches = {}
    for pid in ids:
        child, node = int(pid), int(parent[pid])
        while node >= 0:
            branches.setdefault(node, set()).add(child)
            child, node = node, int(parent[node])
    tau = []
    for node, children in branches.items():
        tau.extend([float(birth[node])] * (len(children) - 1))
    return sorted(tau), max(len(c) for c in branches.values())


def test_split_times_match_branch_count_definition():
    samples = three_branch = 0
    samp = stream(22, 99)
    for i, run in enumerate(iter_runs(TERNARY, 6.0, stream(21), 400, conditioned=True)):
        for k in range(2, min(5, run.snapshot.n_alive) + 1):
            ids = sample_survivors(run, k, samp.child(i).child(k))
            tau, widest = branch_count_tau(run, ids)
            assert coalescence_times(run, ids).tau.tolist() == tau
            samples += 1
            three_branch += widest >= 3
    assert samples > 300
    assert three_branch > 0


def test_duplicate_ids_rejected():
    run = run_conditioned(MODEL, 8.0, stream(1))
    alive = run.snapshot.ids
    with pytest.raises(DuplicateIds):
        coalescence_times(run, [alive[0], alive[0]])


def test_dead_id_rejected():
    run = run_conditioned(MODEL, 8.0, stream(1))
    dead = int(np.flatnonzero(~run.arena.alive)[0])
    alive = int(run.snapshot.ids[0])
    with pytest.raises(NotAlive):
        coalescence_times(run, [alive, dead])


@given(st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_tau_consistency_random_runs(seed):
    # tau vector length and ordering; its last entry is the deepest split of
    # any sampled pair, and every pair's split is among the entries
    run = run_conditioned(MODEL, 10.0, stream(seed))
    alive = run.snapshot.ids
    k = min(4, alive.size)
    if k < 2:
        return
    ids = sample_survivors(run, k, stream(seed + 1))
    cs = coalescence_times(run, ids)
    assert cs.tau.size == k - 1
    assert np.all(np.diff(cs.tau) >= 0)
    assert 0 <= cs.tau[0] and cs.tau[-1] <= run.arena.horizon
    pair_tau = [float(coalescence_times(run, ids[[i, j]]).tau[0])
                for i in range(k) for j in range(k) if i != j]
    assert cs.tau[-1] == max(pair_tau)
    assert np.all(np.isin(pair_tau, cs.tau))


def test_no_ties_k3_binary_model():
    # with 0-or-2 offspring, two split nodes of three sampled lines are always
    # comparable, so the two split times differ after any positive lifetime;
    # k >= 4 can legitimately tie via sibling split nodes
    ties = 0
    total = 0
    samp = stream(12, 99)
    for i, run in enumerate(iter_runs(MODEL, 15.0, stream(13), 600, conditioned=True)):
        if run.snapshot.n_alive < 3:
            continue
        ids = sample_survivors(run, 3, samp.child(i))
        cs = coalescence_times(run, ids)
        total += 1
        if cs.tau[0] == cs.tau[1]:
            ties += 1
    assert total > 300
    assert ties == 0


def test_pair_exchangeability():
    # tau distribution must not depend on sampling order of the two ids
    from scipy.stats import ks_2samp

    first, second = [], []
    samp = stream(14, 99)
    for i, run in enumerate(iter_runs(MODEL, 20.0, stream(15), 2500, conditioned=True)):
        if run.snapshot.n_alive < 2:
            continue
        ids = sample_survivors(run, 2, samp.child(i))
        tau = float(coalescence_times(run, ids).tau[0])
        (first if ids[0] < ids[1] else second).append(tau)
    assert ks_2samp(first, second).pvalue > 1e-3


def test_csv_rows():
    run = manual_run(
        parent=[-1, 0, 0],
        birth=[0.0, 3.0, 3.0],
        lifetime=[3.0, 9.0, 9.0],
        horizon=5.0,
    )
    cs = coalescence_times(run, [1, 2])
    text = coalescent_csv_rows([(cs, run.snapshot.n_alive)], 5.0)
    assert text == "5.0,2,0.0,2\n"
