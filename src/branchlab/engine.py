"""Exact forward simulation of the branching population with full genealogy.

Simulation proceeds generation-wave by generation-wave over a batch of
replicates at once.  Each particle's lifetime, offspring count and per-life
displacement come from slots of a key hashed from (run key, particle id), so
a replicate's realization is invariant to batching and wave layout;
`run_once` on a single replicate reproduces byte-for-byte what the
batched drivers produce for the same key.  Particle ids are assigned in
generation order (parents always precede children).  Roots must come
sorted by replicate: a wave's rows then are too, and are numbered per run of
equal replicates, so a wave costs O(its own rows) however big the batch.
A wave's ids, keys, uniform draws and offspring branching (children's counts
and copied columns) run in the C kernel `_kernel` (numpy without it); the
lifetime quantiles, normal quantiles and motion variances stay in numpy, and
the C only adds, compares and copies doubles.

Only the tree (lifetimes and offspring) decides whether an attempt survives,
and a row's displacement is a pure function of its key and life span.  So an
arena batch's waves draw the tree only; once the round is settled,
`_extract_runs` draws the motion of the kept runs' rows in one pass, from the
keys and slot a wave would use, and sums positions down each tree in id
order, bit for bit as a wave would.  Counts and snapshot waves draw motion in
the loop.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from scipy.special import ndtri

from . import _kernel
from .model import ConfigError, ValidatedModel
from .rng import _CHILD_SALT, _CHILD_SALT_INT, RandomStream, _mix_numpy, derive_key, slot_hash, slot_uniform

DEFAULT_PARTICLE_CAP = 10_000_000
DEFAULT_MAX_ATTEMPTS = 100_000
_ATTEMPT_BLOCK = 16  # conditioned attempts per replicate and round
_RUN_BLOCK = 512  # replicates per iter_runs block
_CONDITIONED_CHUNK = 4096  # replicates per conditioned_counts chunk

_H_LIFETIME = slot_hash(0)
_H_OFFSPRING = slot_hash(1)
_H_DISPLACEMENT = slot_hash(2)
_H_OFFSPRING_INT = int(_H_OFFSPRING)


class CapExceeded(RuntimeError):
    """A replicate's cumulative row count (every particle simulated, alive or
    dead) passed the particle cap; the run is aborted loudly."""

    def __init__(self, replicates):
        self.replicates = [int(r) for r in np.atleast_1d(replicates)]
        super().__init__(f"particle cap exceeded in replicate(s) {self.replicates}")


class MaxAttemptsExceeded(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenealogyArena:
    """Append-only particle table for one run, in id order.  Its columns
    may be slices of arrays shared with the other runs kept from the same
    batch, but those arrays hold no other row of that batch.

    `lifetime` stores the full drawn lifetime even when the particle outlives
    the horizon; `displacement` covers motion from max(birth, 0) to
    min(death, horizon).  Displacements are drawn after the batch's waves,
    for kept runs only, with the same keys and values a wave would draw.
    """

    parent: np.ndarray
    birth: np.ndarray
    lifetime: np.ndarray
    displacement: np.ndarray
    alive: np.ndarray
    horizon: float

    def __len__(self) -> int:
        return self.parent.size


@dataclass(frozen=True)
class Snapshot:
    """Alive configuration at a horizon: (age, position, id) per particle."""

    ages: np.ndarray
    positions: np.ndarray
    ids: np.ndarray
    horizon: float

    @property
    def n_alive(self) -> int:
        return self.ages.size


@dataclass(frozen=True)
class RunRecord:
    arena: GenealogyArena
    snapshot: Snapshot
    attempts: int
    seed_path: tuple


# ---------------------------------------------------------------------------
# the wave core
# ---------------------------------------------------------------------------


def _offspring_count(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """np.searchsorted(cum, u, side="right") for uniforms u < 1: the number
    of cumulative levels at or below u.  Levels of 1.0 or more never count,
    so only those below 1 are compared, one pass each."""
    n = np.zeros(u.size, dtype=np.int64)
    for level in cum[cum < 1.0]:
        n += u >= level
    return n


class _Batch:
    """A batch's constant wave arguments, resolved once: the run keys, the
    per-replicate id counters `next_id` (advanced in place by every wave) and
    the offspring levels below 1, with their addresses for the kernel."""

    def __init__(self, run_keys: np.ndarray, next_id: np.ndarray, levels=np.empty(0)):
        if next_id.dtype != np.int64 or not next_id.flags.carray:
            raise TypeError("next_id must be a writable C-contiguous int64 array")
        self.run_keys = np.ascontiguousarray(run_keys, np.uint64)
        self.next_id = next_id
        self.levels = np.ascontiguousarray(levels, float)
        if _kernel.LIB is not None:
            self.at = [_kernel.address(a) for a in (self.run_keys, next_id, self.levels)]


def _wave_keys(b: _Batch, rep: np.ndarray):
    """Ids and keys for a nonempty wave's rows from their nondecreasing
    replicates, continuing each replicate's count in `b.next_id`.  Returns the
    ids, the keys derive_key(b.run_keys[rep], id) and one past the largest id."""
    if _kernel.LIB is None:
        return _wave_keys_numpy(rep, b.run_keys, b.next_id)
    rep = np.ascontiguousarray(rep, np.int64)
    block = np.empty((2, rep.size), np.int64)  # ids and keys, one allocation
    at = _kernel.address(block)
    top = _kernel.LIB.wave_keys(_kernel.address(rep), b.at[0], _CHILD_SALT_INT, b.at[1], at,
                                at + 8 * rep.size, rep.size, b.next_id.size)
    if top < 0:
        raise IndexError(f"a replicate lies outside [0, {b.next_id.size})")
    return block[0], block[1].view(np.uint64), top


def _wave_keys_numpy(rep: np.ndarray, run_keys: np.ndarray, next_id: np.ndarray):
    """_wave_keys in numpy: its oracle and its path without the kernel."""
    if rep[0] < 0:
        raise IndexError(f"a replicate lies outside [0, {next_id.size})")
    bounds = np.concatenate(([0], np.flatnonzero(rep[1:] != rep[:-1]) + 1, [rep.size]))
    first, sizes = bounds[:-1], np.diff(bounds)
    grp = rep[first]
    base = next_id[grp]
    local = np.repeat(base - first, sizes)
    local += np.arange(rep.size)
    base += sizes
    next_id[grp] = base
    keys = _mix_numpy(run_keys[rep] ^ _mix_numpy(local.astype(np.uint64) ^ _CHILD_SALT))
    return local, keys, int(base.max())


def _branch(b: _Batch, alive, keys, rep, death, pos_end=None, local=None):
    """The children of a wave's dead rows, in row order: their replicates,
    births (the parent's death), start positions (the parent's end) if
    `pos_end` is given and parent ids if `local` (the rows' ids) is; else None."""
    if _kernel.LIB is None:
        return _branch_numpy(alive, keys, b.levels, rep, death, pos_end, local)
    addr = _kernel.address
    alive, keys = np.ascontiguousarray(alive, np.bool_), np.ascontiguousarray(keys, np.uint64)
    kids = np.empty(alive.size, np.int64)
    total = _kernel.LIB.offspring(addr(alive), addr(keys), _H_OFFSPRING_INT, b.at[2], b.levels.size,
                                  addr(kids), kids.size)
    types = (np.int64, float, float, np.int64)
    cols = [None if c is None else np.ascontiguousarray(c, t)
            for c, t in zip((rep, death, pos_end, local), types)]
    block = np.empty((sum(c is not None for c in cols), total), np.int64)  # one allocation
    at, k, children, out = addr(block), 0, [], []
    for c, t in zip(cols, types):  # each given column's children take the next row of the block
        children.append(None if c is None else block[k].view(t))
        out.append(None if c is None else at + 8 * total * k)
        k += c is not None
    _kernel.LIB.branch(addr(kids), *[None if c is None else addr(c) for c in cols], *out, kids.size)
    return tuple(children)


def _branch_numpy(alive, keys, cum, rep, death, pos_end=None, local=None):
    """_branch in numpy: its oracle and its path without the kernel."""
    src = np.flatnonzero(~alive)
    kids = _offspring_count(slot_uniform(keys[src], _H_OFFSPRING), cum)
    has = kids > 0
    src, kids = src[has], kids[has]
    copy = lambda col: None if col is None else np.repeat(col[src], kids)
    return copy(rep), copy(death), copy(pos_end), copy(local)


def _gather(rep: np.ndarray, rows: np.ndarray, sizes: np.ndarray):
    """Where the rows of replicates `rows` lie in the wave-ordered replicate
    column `rep`, run after run and in id order, and the runs' bounds in that
    list; replicate r has sizes[r] rows."""
    bounds = np.zeros(rows.size + 1, np.int64)
    np.cumsum(sizes[rows], out=bounds[1:])
    if _kernel.LIB is None:
        return _gather_numpy(rep, rows, sizes.size), bounds
    rep = np.ascontiguousarray(rep, np.int64)
    slot = np.full(sizes.size, -1, np.int64)
    slot[rows] = np.arange(rows.size)
    cursor, idx = bounds[:-1].copy(), np.empty(bounds[-1], np.int64)
    _kernel.LIB.gather(*map(_kernel.address, (rep, slot, cursor, idx)), rep.size)
    return idx, bounds


def _gather_numpy(rep: np.ndarray, rows: np.ndarray, n_rep: int) -> np.ndarray:
    """_gather's row list by a stable sort: its oracle and its path without the kernel."""
    order = np.argsort(rep, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(rep, minlength=n_rep))))
    lo, hi = bounds[rows], bounds[rows + 1]
    return np.concatenate([order[:0]] + [order[a:b] for a, b in zip(lo.tolist(), hi.tolist())])


def _ancestry_sum(parent, disp, bounds, root) -> np.ndarray:
    """Positions of runs laid out back to back (run r is rows bounds[r] to
    bounds[r + 1], parents before children, `parent` local to the run): a root
    adds its displacement to root[r], any other row to its parent's position."""
    if _kernel.LIB is None:
        return _ancestry_sum_numpy(parent, disp, bounds, root)
    parent, disp = np.ascontiguousarray(parent, np.int64), np.ascontiguousarray(disp, float)
    bounds, root = np.ascontiguousarray(bounds, np.int64), np.ascontiguousarray(root, float)
    pos = np.empty(disp.size)
    _kernel.LIB.ancestry(*map(_kernel.address, (parent, disp, bounds, root)), root.size,
                         _kernel.address(pos))
    return pos


def _ancestry_sum_numpy(parent, disp, bounds, root) -> np.ndarray:
    """_ancestry_sum in numpy, depth by depth so that every row adds its
    displacement to the same value as in the kernel: its oracle and its path
    without the kernel."""
    run = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
    up = np.where(parent < 0, -1, bounds[run] + parent)  # the parent's row
    depth, jump = (up >= 0).astype(np.int64), up.copy()
    while True:  # pointer jumping: depth[j] is the number of steps from j to its root
        has = np.flatnonzero(jump >= 0)
        if not has.size:
            break
        to = jump[has]
        depth[has] += depth[to]
        jump[has] = jump[to]
    order = np.argsort(depth, kind="stable")
    ends = np.cumsum(np.bincount(depth, minlength=1))
    pos = np.empty(disp.size)
    roots = order[: ends[0]]
    pos[roots] = root[run[roots]] + disp[roots]
    for lo, hi in zip(ends[:-1].tolist(), ends[1:].tolist()):
        rows = order[lo:hi]
        pos[rows] = pos[up[rows]] + disp[rows]
    return pos


def _batch_simulate(
    model: ValidatedModel,
    horizon: float,
    run_keys: np.ndarray,
    root_rep: np.ndarray,
    root_birth: np.ndarray,
    root_position: np.ndarray,
    particle_cap: int,
    mode: str,
    rep_labels: Optional[np.ndarray] = None,
):
    """Simulate every replicate in the batch to `horizon`.

    run_keys: one uint64 key per replicate.  Roots must be sorted by rep, so
    that every wave's rows are and a wave costs O(its rows), not O(n_rep).
    mode: "arena" takes one root per replicate and returns the tree's
    columns (rep, parent, birth, lifetime, alive) in wave order, the rows per
    replicate, the run keys and the root positions, and draws no motion:
    `_extract_runs` draws it for the kept runs.  "snapshot" returns alive
    rows only; "counts" returns N_t per replicate.  The last item of every
    tuple returned is N_t per replicate.
    """
    n_rep = run_keys.size
    law = model.lifetime
    motion = model.motion
    cum = model.offspring.cumulative()
    horizon = float(horizon)
    if not 0 <= horizon < math.inf:
        raise ConfigError(f"horizon {horizon} must be finite and nonnegative")
    if particle_cap < 1:
        raise ConfigError(f"particle cap {particle_cap} must be at least 1")

    rep = np.asarray(root_rep, dtype=np.int64)
    birth = np.asarray(root_birth, dtype=float)
    pos_start = np.asarray(root_position, dtype=float)
    arena = mode == "arena"
    if arena and not np.array_equal(rep, np.arange(n_rep)):
        raise ValueError("an arena batch takes one root per replicate")
    parent = np.full(rep.size, -1, dtype=np.int64) if arena else None
    b = _Batch(run_keys, np.zeros(n_rep, dtype=np.int64), cum[cum < 1.0])
    acc = {k: [] for k in ("rep", "parent", "birth", "lifetime", "alive")}
    alive_rep = [np.empty(0, np.int64)]
    snap_birth, snap_pos = [np.empty(0)], [np.empty(0)]

    wave = 0
    pos_end = None
    while rep.size:
        local, keys, top = _wave_keys(b, rep)

        u_life = slot_uniform(keys, _H_LIFETIME)
        if wave == 0:
            init_age = -birth
            conditioned = init_age > 0
            if np.any(conditioned):
                g0 = np.asarray(law.cdf(init_age[conditioned]), dtype=float)
                if np.any(g0 >= 1.0):
                    raise ValueError("initial age beyond lifetime support")
                u_life = u_life.copy()
                u_life[conditioned] = g0 + u_life[conditioned] * (1.0 - g0)
        lifetime = np.asarray(law.ppf(u_life), dtype=float)
        death = birth + lifetime
        alive = death > horizon

        # arena motion is drawn after the loop, for kept runs only (_extract_runs);
        # counts draws it unread until the benchmark stops requiring it (ROADMAP item 3)
        if not arena:
            duration = np.minimum(death, horizon) - np.maximum(birth, 0.0)
            z = ndtri(slot_uniform(keys, _H_DISPLACEMENT))
            pos_end = pos_start + np.sqrt(np.asarray(motion.variance(duration), dtype=float)) * z

        if top > particle_cap:  # only this wave's replicates have grown since the last check
            bad = np.flatnonzero(b.next_id > particle_cap)
            raise CapExceeded(np.unique(rep_labels[bad]) if rep_labels is not None else bad)

        if arena:
            for col, v in zip(acc.values(), (rep, parent, birth, lifetime, alive)):
                col.append(v)
        elif mode == "snapshot":
            snap_birth.append(birth[alive])
            snap_pos.append(pos_end[alive])
        alive_rep.append(rep[alive])

        rep, birth, pos_start, parent = _branch(b, alive, keys, rep, death, pos_end,
                                                local if arena else None)
        wave += 1

    alive_rep = np.concatenate(alive_rep)
    counts_alive = np.bincount(alive_rep, minlength=n_rep)
    if mode == "counts":
        return counts_alive
    if mode == "snapshot":
        ages = horizon - np.concatenate(snap_birth)
        return alive_rep, ages, np.concatenate(snap_pos), counts_alive
    cols = {k: np.concatenate(v) for k, v in acc.items()}
    return cols, b.next_id, b.run_keys, np.asarray(root_position, dtype=float), counts_alive


def _single_root_arrays(n_rep: int, model: ValidatedModel):
    rep = np.arange(n_rep, dtype=np.int64)
    birth = np.full(n_rep, -model.initial_age, dtype=float)
    pos = np.full(n_rep, model.initial_position, dtype=float)
    return rep, birth, pos


def _extract_runs(model, horizon, batch, rows, attempts, seed_paths) -> list[RunRecord]:
    """RunRecords for the replicates `rows` of an arena batch.

    One counting pass (`_gather`) lists exactly these runs' rows, run after
    run in id order, and one take per column gathers them, so the records
    keep none of the batch's other rows (rejected attempts included) alive;
    each record's arrays are slices of those gathers.  The batch holds the
    tree only: the kept rows' motion is drawn here, in one pass, from the
    same keys derive_key(run key, id) and slot as a wave would draw it, and
    `_ancestry_sum` adds the displacements down each tree, so positions match
    a wave's bit for bit.  Positions are kept for the alive rows only, which
    the snapshots hold.
    """
    cols, sizes, run_keys, root, _ = batch
    if not rows.size:
        return []
    horizon = float(horizon)
    idx, bounds = _gather(cols["rep"], rows, sizes)
    parent, birth, lifetime, alive = (cols[k].take(idx) for k in ("parent", "birth", "lifetime", "alive"))
    lengths = np.diff(bounds)
    ids, keys, _ = _wave_keys(_Batch(run_keys[rows], np.zeros(rows.size, np.int64)),
                              np.repeat(np.arange(rows.size), lengths))
    z = ndtri(slot_uniform(keys, _H_DISPLACEMENT))
    duration = np.minimum(birth + lifetime, horizon) - np.maximum(birth, 0.0)
    disp = np.sqrt(np.asarray(model.motion.variance(duration), dtype=float)) * z
    alive_at = np.flatnonzero(alive)
    positions = _ancestry_sum(parent, disp, bounds, root[rows])[alive_at]
    alive_bounds = np.searchsorted(alive_at, bounds)
    ages = horizon - birth[alive_at]
    ids = ids[alive_at]

    runs = []
    for i, (s, e, a, b) in enumerate(
        zip(bounds[:-1].tolist(), bounds[1:].tolist(), alive_bounds[:-1].tolist(), alive_bounds[1:].tolist())
    ):
        arena = GenealogyArena(
            parent=parent[s:e],
            birth=birth[s:e],
            lifetime=lifetime[s:e],
            displacement=disp[s:e],
            alive=alive[s:e],
            horizon=horizon,
        )
        snapshot = Snapshot(ages=ages[a:b], positions=positions[a:b], ids=ids[a:b], horizon=horizon)
        runs.append(RunRecord(arena=arena, snapshot=snapshot, attempts=attempts[i], seed_path=seed_paths[i]))
    return runs


# ---------------------------------------------------------------------------
# public drivers
# ---------------------------------------------------------------------------


def run_once(model: ValidatedModel, horizon: float, rng: RandomStream) -> RunRecord:
    """One unconditioned run from a single root; deterministic in rng.key.
    Its particle cap is `DEFAULT_PARTICLE_CAP`, read at call time."""
    rep, birth, pos = _single_root_arrays(1, model)
    keys = np.array([rng.key], dtype=np.uint64)
    batch = _batch_simulate(model, horizon, keys, rep, birth, pos, DEFAULT_PARTICLE_CAP, "arena")
    return _extract_runs(model, horizon, batch, np.zeros(1, np.int64), [1], [rng.path])[0]


def run_conditioned(model: ValidatedModel, horizon: float, rng: RandomStream) -> RunRecord:
    """Rejection-sample until the population survives the horizon.

    Attempt a uses the substream rng.child(a); the returned attempt count is
    an unbiased geometric sample with success probability P(N_t > 0).  At
    most `DEFAULT_MAX_ATTEMPTS` attempts are made, read at call time.  This
    sequential loop is the oracle the batched drivers are tested against.
    """
    for attempt in range(DEFAULT_MAX_ATTEMPTS):
        record = run_once(model, horizon, rng.child(attempt))
        if record.snapshot.n_alive > 0:
            return RunRecord(
                arena=record.arena,
                snapshot=record.snapshot,
                attempts=attempt + 1,
                seed_path=rng.path,
            )
    raise MaxAttemptsExceeded(f"no survival in {DEFAULT_MAX_ATTEMPTS} attempts at t={horizon}")


def _replicate_keys(rng: RandomStream, start: int, stop: int) -> np.ndarray:
    return derive_key(np.uint64(rng.key), np.arange(start, stop, dtype=np.uint64))


def _attempt_keys(rep_keys: np.ndarray, base: int, width: int) -> np.ndarray:
    """Keys for attempts base..base+width-1 of each replicate, rep-major."""
    attempts = np.tile(np.arange(base, base + width, dtype=np.uint64), rep_keys.size)
    return derive_key(np.repeat(rep_keys, width), attempts)


def _settle(model, horizon, rng, start, stop, particle_cap, conditioned, mode):
    """Rejection loop over replicates start..stop-1 of `rng`, in `mode`.

    Attempt a of replicate r is keyed rng.child(r).child(a).  Each round
    simulates `_ATTEMPT_BLOCK` attempts of every pending replicate and yields
    (replicates settled, their winning batch row, their attempt counts, the
    batch output).  The first surviving attempt wins, which reproduces
    sequential rejection exactly because attempts are keyed independently.
    An unconditioned replicate settles on attempt 0.  Conditioned replicates
    get `DEFAULT_MAX_ATTEMPTS` attempts each.
    """
    rep_keys = _replicate_keys(rng, start, stop)
    pending = np.arange(start, stop, dtype=np.int64)
    base = 0
    while pending.size:
        if base >= DEFAULT_MAX_ATTEMPTS:
            raise MaxAttemptsExceeded(
                f"replicates {pending[:5]}... exceeded {DEFAULT_MAX_ATTEMPTS} attempts"
            )
        width = min(_ATTEMPT_BLOCK, DEFAULT_MAX_ATTEMPTS - base) if conditioned else 1
        keys = _attempt_keys(rep_keys[pending - start], base, width)
        rep, birth, pos = _single_root_arrays(pending.size * width, model)
        out = _batch_simulate(
            model, horizon, keys, rep, birth, pos, particle_cap, mode,
            rep_labels=np.repeat(pending, width),
        )
        counts = (out if mode == "counts" else out[-1]).reshape(pending.size, width)
        hit = counts > 0 if conditioned else np.ones_like(counts, dtype=bool)
        any_hit = hit.any(axis=1)
        first = np.argmax(hit, axis=1)[any_hit]
        yield pending[any_hit], np.flatnonzero(any_hit) * width + first, base + first + 1, out
        del out  # so a caller done with the batch frees it before the next round
        pending = pending[~any_hit]
        base += width


def _counts(model, horizon, rng, reps, chunk_size, conditioned):
    if reps < 1:
        raise ConfigError(f"reps {reps} must be positive")
    n_out = np.empty(reps, dtype=np.int64)
    att_out = np.empty(reps, dtype=np.int64) if conditioned else None
    for start in range(0, reps, chunk_size):
        stop = min(start + chunk_size, reps)
        for done, rows, attempts, counts in _settle(
            model, horizon, rng, start, stop, DEFAULT_PARTICLE_CAP, conditioned, "counts"
        ):
            n_out[done] = counts[rows]
            if conditioned:
                att_out[done] = attempts
    return n_out, att_out


def survival_counts(
    model: ValidatedModel,
    horizon: float,
    rng: RandomStream,
    reps: int,
    chunk_size: int = 8192,
) -> np.ndarray:
    """N_t for `reps` unconditioned replicates (counts only, no genealogy).

    Replicate r's randomness is rng.child(r).child(0), matching the first
    attempt of the conditioned driver, so output does not depend on
    chunk_size.
    """
    return _counts(model, horizon, rng, reps, chunk_size, False)[0]


def conditioned_counts(model: ValidatedModel, horizon: float, rng: RandomStream, reps: int):
    """(N_t, attempts) for `reps` conditioned replicates, counts only."""
    return _counts(model, horizon, rng, reps, _CONDITIONED_CHUNK, True)


def iter_runs(
    model: ValidatedModel,
    horizon: float,
    rng: RandomStream,
    reps: int,
    conditioned: bool = False,
    particle_cap: int = DEFAULT_PARTICLE_CAP,
) -> Iterator[RunRecord]:
    """Yield full RunRecords for replicates 0..reps-1 in replicate order.

    Simulates `_RUN_BLOCK` replicates at once.  The runs kept from a round
    share one gather of exactly their rows, and the round's batch (rejected
    attempts included) is freed before the next round is simulated: memory
    is bounded by one block's kept arenas plus one round's batch.  An
    unconditioned run is the attempt-0 realization of the conditioned
    driver, so the two agree run for run, and a conditioned run matches
    `run_conditioned` exactly.
    """
    if reps < 1:
        raise ConfigError(f"reps {reps} must be positive")
    for start in range(0, reps, _RUN_BLOCK):
        stop = min(start + _RUN_BLOCK, reps)
        results: dict[int, RunRecord] = {}
        for done, rows, attempts, batch in _settle(
            model, horizon, rng, start, stop, particle_cap, conditioned, "arena"
        ):
            done = done.tolist()
            paths = [rng.path + (r,) for r in done]
            runs = _extract_runs(model, horizon, batch, rows, attempts.tolist(), paths)
            results.update(zip(done, runs))
            del batch
        for r in range(start, stop):
            yield results[r]


def simulate_fields(
    model: ValidatedModel,
    horizon: float,
    run_keys: np.ndarray,
    root_rep: np.ndarray,
    root_birth: np.ndarray,
    root_position: np.ndarray,
):
    """Multi-root batch simulation keeping the alive rows only.

    Roots must be grouped by replicate in ascending order; a decreasing
    `root_rep` raises ConfigError.  Returns (rep, ages, positions, counts):
    one row per particle alive at the horizon, plus the alive count per
    replicate.
    """
    keys = np.asarray(run_keys, dtype=np.uint64)
    rep = np.asarray(root_rep, dtype=np.int64)
    if np.any(rep[1:] < rep[:-1]):
        raise ConfigError("roots must be sorted by replicate")
    return _batch_simulate(model, horizon, keys, rep, root_birth, root_position,
                           DEFAULT_PARTICLE_CAP, "snapshot")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def run_to_jsonl(run: RunRecord) -> str:
    """One-run JSON line: seed path, attempts, N_t and snapshot entries."""
    payload = {
        "seed_path": list(run.seed_path),
        "attempts": run.attempts,
        "n_t": int(run.snapshot.n_alive),
        "horizon": run.snapshot.horizon,
        "snapshot": [
            [float(a), float(x), int(i)]
            for a, x, i in zip(run.snapshot.ages, run.snapshot.positions, run.snapshot.ids)
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def arena_to_csv(arena: GenealogyArena) -> str:
    """Columnar CSV dump: id, parent, birth, lifetime, displacement, alive."""
    lines = ["id,parent,birth,lifetime,displacement,alive"]
    for i in range(len(arena)):
        lines.append(
            f"{i},{int(arena.parent[i])},{float(arena.birth[i])!r},{float(arena.lifetime[i])!r},"
            f"{float(arena.displacement[i])!r},{int(arena.alive[i])}"
        )
    return "\n".join(lines) + "\n"
