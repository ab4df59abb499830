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
lifetime quantiles, normal quantiles and motion variances stay in numpy.
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
from .rng import _CHILD_SALT, RandomStream, _mix_numpy, derive_key, slot_hash, slot_uniform

DEFAULT_PARTICLE_CAP = 10_000_000
DEFAULT_MAX_ATTEMPTS = 100_000
_ATTEMPT_BLOCK = 16  # conditioned attempts per replicate and round
_RUN_BLOCK = 512  # replicates per iter_runs block
_CONDITIONED_CHUNK = 4096  # replicates per conditioned_counts chunk

_H_LIFETIME = slot_hash(0)
_H_OFFSPRING = slot_hash(1)
_H_DISPLACEMENT = slot_hash(2)


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
    min(death, horizon).
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


def _wave_keys(rep: np.ndarray, run_keys: np.ndarray, next_id: np.ndarray):
    """Ids and keys for a nonempty wave's rows from their nondecreasing
    replicates, continuing each replicate's count in `next_id`, which is
    advanced in place.  Returns the ids, the keys derive_key(run_keys[rep], id)
    and one past the largest id in the wave."""
    if _kernel.LIB is None:
        return _wave_keys_numpy(rep, run_keys, next_id)
    if next_id.dtype != np.int64 or not next_id.flags.carray:
        raise TypeError("next_id must be a writable C-contiguous int64 array")
    rep = np.ascontiguousarray(rep, np.int64)
    run_keys = np.ascontiguousarray(run_keys, np.uint64)
    local, keys = np.empty(rep.size, np.int64), np.empty(rep.size, np.uint64)
    top = _kernel.LIB.wave_keys(*map(_kernel.address, (rep, run_keys)), int(_CHILD_SALT),
                                *map(_kernel.address, (next_id, local, keys)), rep.size, next_id.size)
    if top < 0:
        raise IndexError(f"a replicate lies outside [0, {next_id.size})")
    return local, keys, top


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


def _branch(alive, keys, cum, rep, death, pos_end, local=None):
    """The children of a wave's dead rows, in row order: their replicates,
    births (the parent's death), start positions (the parent's end) and, if
    `local` (the rows' ids) is given, parent ids; else None."""
    if _kernel.LIB is None:
        return _branch_numpy(alive, keys, cum, rep, death, pos_end, local)
    addr = lambda a: None if a is None else _kernel.address(a)
    alive, keys = np.ascontiguousarray(alive, np.bool_), np.ascontiguousarray(keys, np.uint64)
    levels = np.ascontiguousarray(cum[cum < 1.0])
    kids = np.empty(alive.size, np.int64)
    total = _kernel.LIB.offspring(addr(alive), addr(keys), int(_H_OFFSPRING), addr(levels), levels.size,
                                  addr(kids), kids.size)
    rep = np.ascontiguousarray(rep, np.int64)
    death, pos_end = np.ascontiguousarray(death, float), np.ascontiguousarray(pos_end, float)
    parent = None
    if local is not None:
        local, parent = np.ascontiguousarray(local, np.int64), np.empty(total, np.int64)
    children = np.empty(total, np.int64), np.empty(total), np.empty(total)
    _kernel.LIB.branch(*map(addr, (kids, rep, death, pos_end, local, *children, parent)), kids.size)
    return (*children, parent)


def _branch_numpy(alive, keys, cum, rep, death, pos_end, local=None):
    """_branch in numpy: its oracle and its path without the kernel."""
    src = np.flatnonzero(~alive)
    kids = _offspring_count(slot_uniform(keys[src], _H_OFFSPRING), cum)
    has = kids > 0
    src, kids = src[has], kids[has]
    parent = None if local is None else np.repeat(local[src], kids)
    return np.repeat(rep[src], kids), np.repeat(death[src], kids), np.repeat(pos_end[src], kids), parent


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
    mode: "arena" returns the per-particle columns in wave order, their
    stable order by rep and per-rep bounds into that order; "snapshot"
    returns alive rows only; "counts" returns N_t per replicate.  The last
    item of every tuple returned is N_t per replicate.
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
    parent = np.full(rep.size, -1, dtype=np.int64) if mode == "arena" else None
    next_id = np.zeros(n_rep, dtype=np.int64)
    acc = {k: [] for k in ("rep", "parent", "birth", "lifetime", "disp", "pos", "alive")}
    alive_rep = [np.empty(0, np.int64)]
    snap_birth, snap_pos = [np.empty(0)], [np.empty(0)]

    wave = 0
    while rep.size:
        local, keys, top = _wave_keys(rep, run_keys, next_id)

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

        duration = np.minimum(death, horizon) - np.maximum(birth, 0.0)
        z = ndtri(slot_uniform(keys, _H_DISPLACEMENT))
        disp = np.sqrt(np.asarray(motion.variance(duration), dtype=float)) * z
        pos_end = pos_start + disp

        if top > particle_cap:  # only this wave's replicates have grown since the last check
            bad = np.flatnonzero(next_id > particle_cap)
            raise CapExceeded(np.unique(rep_labels[bad]) if rep_labels is not None else bad)

        if mode == "arena":
            for col, v in zip(acc.values(), (rep, parent, birth, lifetime, disp, pos_end, alive)):
                col.append(v)
        elif mode == "snapshot":
            snap_birth.append(birth[alive])
            snap_pos.append(pos_end[alive])
        alive_rep.append(rep[alive])

        rep, birth, pos_start, parent = _branch(alive, keys, cum, rep, death, pos_end,
                                                local if mode == "arena" else None)
        wave += 1

    alive_rep = np.concatenate(alive_rep)
    counts_alive = np.bincount(alive_rep, minlength=n_rep)
    if mode == "counts":
        return counts_alive
    if mode == "snapshot":
        ages = horizon - np.concatenate(snap_birth)
        return alive_rep, ages, np.concatenate(snap_pos), counts_alive

    # replicate r's rows, in id order, are order[bounds[r]:bounds[r + 1]]
    rep = np.concatenate(acc.pop("rep"))
    order = np.argsort(rep, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(rep, minlength=n_rep))))
    return {k: np.concatenate(v) for k, v in acc.items()}, order, bounds, counts_alive


def _single_root_arrays(n_rep: int, model: ValidatedModel):
    rep = np.arange(n_rep, dtype=np.int64)
    birth = np.full(n_rep, -model.initial_age, dtype=float)
    pos = np.full(n_rep, model.initial_position, dtype=float)
    return rep, birth, pos


def _extract_runs(horizon, batch, rows, attempts, seed_paths) -> list[RunRecord]:
    """RunRecords for the replicates `rows` of an arena batch.

    One gather per column takes exactly these runs' rows, run after run, so
    the records keep none of the batch's other rows (rejected attempts
    included) alive; each record's arrays are slices of those gathers.
    Positions are only gathered for the alive rows, which the snapshots hold.
    """
    cols, order, bounds, _ = batch
    horizon = float(horizon)
    lo, hi = bounds[rows], bounds[rows + 1]
    ends = np.cumsum(hi - lo)
    starts = ends - (hi - lo)
    idx = np.concatenate([order[:0]] + [order[a:b] for a, b in zip(lo.tolist(), hi.tolist())])
    kept = {k: cols[k].take(idx) for k in ("parent", "birth", "lifetime", "disp", "alive")}
    alive_at = np.flatnonzero(kept["alive"])
    alive_bounds = np.searchsorted(alive_at, np.append(starts, idx.size))
    ids = alive_at - np.repeat(starts, np.diff(alive_bounds))
    ages = horizon - kept["birth"][alive_at]
    positions = cols["pos"].take(idx[alive_at])

    runs = []
    for i, (s, e, a, b) in enumerate(
        zip(starts.tolist(), ends.tolist(), alive_bounds[:-1].tolist(), alive_bounds[1:].tolist())
    ):
        arena = GenealogyArena(
            parent=kept["parent"][s:e],
            birth=kept["birth"][s:e],
            lifetime=kept["lifetime"][s:e],
            displacement=kept["disp"][s:e],
            alive=kept["alive"][s:e],
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
    return _extract_runs(horizon, batch, np.zeros(1, np.int64), [1], [rng.path])[0]


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
            runs = _extract_runs(horizon, batch, rows, attempts.tolist(), paths)
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
