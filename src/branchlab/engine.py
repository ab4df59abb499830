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
A wave is two calls of the C kernel `_kernel` (numpy without it) around the
lifetime law's `ppf`: `_wave_keys` numbers the rows and draws their keys and
lifetime uniforms, `_offspring` their deaths, whether they outlive the
horizon and their children counts; `_branch` then copies the parents'
columns into the children's rows.  The lifetime quantiles, normal quantiles
and motion variances stay in numpy, and the C only hashes, adds, compares
and copies.  A wave's rows and its children live in `_Table`s of named
columns: an arena batch keeps all its rows in one table, each wave's
children written straight after it, which doubles when they do not fit; a
counts or snapshot wave writes its children into a table made for them.

Only the tree (lifetimes and offspring) decides whether an attempt survives,
and a row's displacement is a pure function of its key and life span.  So
arena and snapshot waves draw the tree only.  Once an arena round is settled,
`_extract_runs` draws the motion of the kept runs' rows in one pass.  A
snapshot batch appends each wave's rows that have children or are alive to a
record (`_record`), compacts it to the rows with an alive or front row below
them whenever it is full (`_prune`), and after the last wave draws the motion
of the rows left, those alive at the horizon and their ancestors, in one
pass.  Both draw from the keys and slot a wave would use and sum positions
down the tree in id order, bit for bit as a wave would.  Counts waves still
draw every row's motion and discard it.
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
from .rng import (_CHILD_SALT, _CHILD_SALT_INT, RandomStream, _mix_numpy, derive_key, slot_hash, slot_uniform,
                  uniform_from_u64)

DEFAULT_PARTICLE_CAP = 10_000_000
DEFAULT_MAX_ATTEMPTS = 100_000
_ATTEMPT_BLOCK = 16  # conditioned attempts per replicate and round
_RUN_BLOCK = 512  # replicates per iter_runs block
_CONDITIONED_CHUNK = 4096  # replicates per conditioned_counts chunk

_H_LIFETIME = slot_hash(0)
_H_OFFSPRING = slot_hash(1)
_H_DISPLACEMENT = slot_hash(2)
_H_LIFETIME_INT, _H_OFFSPRING_INT = int(_H_LIFETIME), int(_H_OFFSPRING)


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


_I8, _U8, _F8, _B1 = map(np.dtype, (np.int64, np.uint64, np.float64, np.bool_))
_TREE = {"rep": _I8, "parent": _I8, "birth": _F8, "lifetime": _F8, "alive": _B1}  # an arena batch, a snapshot wave
_FRONT = {"rep": _I8, "birth": _F8, "lifetime": _F8, "alive": _B1}  # one counts wave
_SCRATCH = {"local": _I8, "keys": _U8, "u_life": _F8, "death": _F8, "kids": _I8}  # one wave's work
_RECORD = {"parent": _I8, "key": _U8, "birth": _F8, "death": _F8}  # a snapshot batch's rows with children or alive
_TREE_START_MAX = 1 << 22  # rows an arena table starts with at most
_RECORD_START = 1 << 16  # rows a record starts with


class _Table:
    """`size` rows of named columns: `col` gives rows lo:hi of a column, and
    `at[name]` is the kernel address of its row 0.  Each column is its own
    allocation: cut from one buffer, a wave's columns sat a fixed distance
    apart, which made the offspring pass up to 3x slower, and an arena
    batch's buffer, once freed, raised glibc's mmap threshold so far that the
    heap it kept raised many-survivors' peak RSS by 13%."""

    def __init__(self, size: int, columns: dict):
        self.size, self.columns = size, columns
        self.cols = {name: np.empty(size, dtype) for name, dtype in columns.items()}
        self.at = {name: _kernel.address(c) for name, c in self.cols.items()} if _kernel.LIB is not None else {}

    def col(self, name: str, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        return self.cols[name][lo:hi]

    def fit(self, need: int, used: int = 0) -> "_Table":
        """This table if it holds `need` rows, else a table of max(2 * size,
        need) rows holding a copy of this one's first `used` rows."""
        if need <= self.size:
            return self
        out = _Table(max(2 * self.size, need), self.columns)
        for name, c in self.cols.items():
            out.cols[name][:used] = c[:used]
        return out


def _wave_keys(b: _Batch, t: _Table, lo: int, hi: int, w: _Table) -> int:
    """Ids, keys derive_key(b.run_keys[rep], id) and, if `w` has the column,
    lifetime uniforms of the rows lo:hi of `t` (nonempty, replicates
    nondecreasing) into the first rows of `w`, continuing each replicate's
    count in `b.next_id`.  Returns one past the largest id."""
    n, life = hi - lo, "u_life" in w.columns
    if _kernel.LIB is None:
        *cols, top = _wave_keys_numpy(t.col("rep", lo, hi), b.run_keys, b.next_id)
        for name, v in zip(("local", "keys", "u_life")[: 2 + life], cols):
            w.col(name, 0, n)[...] = v
        return top
    top = _kernel.LIB.wave_keys(t.at["rep"] + 8 * lo, b.at[0], _CHILD_SALT_INT, _H_LIFETIME_INT, b.at[1],
                                w.at["local"], w.at["keys"], w.at["u_life"] if life else None,
                                n, b.next_id.size)
    if top < 0:
        raise IndexError(f"a replicate lies outside [0, {b.next_id.size})")
    return top


def _wave_keys_numpy(rep: np.ndarray, run_keys: np.ndarray, next_id: np.ndarray):
    """_wave_keys in numpy, returning (ids, keys, lifetime uniforms, one past
    the largest id): its oracle and its path without the kernel."""
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
    return local, keys, uniform_from_u64(_mix_numpy(keys ^ _H_LIFETIME)), int(base.max())


def _offspring(b: _Batch, t: _Table, lo: int, hi: int, w: _Table, horizon: float) -> int:
    """For the rows lo:hi of `t`, whose lifetimes are set: their deaths and
    children counts into the first rows of `w`, whether each outlives
    `horizon` into `t`'s `alive`, and the total number of children."""
    n = hi - lo
    if _kernel.LIB is None:
        death, alive, kids = _offspring_numpy(t.col("birth", lo, hi), t.col("lifetime", lo, hi), horizon,
                                              w.col("keys", 0, n), b.levels)
        w.col("death", 0, n)[...], t.col("alive", lo, hi)[...], w.col("kids", 0, n)[...] = death, alive, kids
        return int(kids.sum())
    return _kernel.LIB.offspring(t.at["birth"] + 8 * lo, t.at["lifetime"] + 8 * lo, horizon, w.at["keys"],
                                 _H_OFFSPRING_INT, b.at[2], b.levels.size, w.at["death"],
                                 t.at["alive"] + lo, w.at["kids"], n)


def _offspring_numpy(birth, lifetime, horizon, keys, cum):
    """_offspring in numpy, returning (deaths, alive, children counts): its
    oracle and its path without the kernel.  A child count is the number of
    cumulative levels at or below the uniform; levels of 1.0 or more never
    count, and leaving them out keeps the levels sorted where a cumulative
    sum rounds above 1 before its last entry."""
    death = birth + lifetime
    alive = death > horizon
    kids = np.zeros(death.size, np.int64)
    dead = np.flatnonzero(~alive)
    u = uniform_from_u64(_mix_numpy(keys[dead] ^ _H_OFFSPRING))
    kids[dead] = np.searchsorted(cum[cum < 1.0], u, side="right")
    return death, alive, kids


def _branch(t: _Table, lo: int, hi: int, w: _Table, out: _Table, at: int) -> None:
    """The children of the rows lo:hi of `t` (counts, deaths and `local` in
    `w`), in row order, into the rows of `out` from `at`: their replicates,
    births (the parent's death) and, if `out` has parents, the parent's
    `local`."""
    n, tree = hi - lo, "parent" in out.columns
    if _kernel.LIB is None:
        children = _branch_numpy(w.col("kids", 0, n), t.col("rep", lo, hi), w.col("death", 0, n),
                                 w.col("local", 0, n) if tree else None)
        for name, v in zip(("rep", "birth", "parent"), children):
            if v is not None:
                out.col(name, at, at + v.size)[...] = v
        return
    _kernel.LIB.branch(w.at["kids"], t.at["rep"] + 8 * lo, w.at["death"], w.at["local"] if tree else None,
                       out.at["rep"] + 8 * at, out.at["birth"] + 8 * at,
                       out.at["parent"] + 8 * at if tree else None, n)


def _branch_numpy(kids, rep, death, local=None):
    """_branch in numpy, returning the children's replicates, births and
    parents if `local` is given (else None): its oracle and its path without
    the kernel."""
    copy = lambda col: None if col is None else np.repeat(col, kids)
    return copy(rep), copy(death), copy(local)


def _record(t: _Table, lo: int, hi: int, w: _Table, rec: _Table, used: int) -> int:
    """Append the rows lo:hi of `t` that have children or are alive (counts,
    keys and deaths in `w`) to the record `rec` from its row `used`, which
    must hold them all: their parents, keys, births and deaths.  Each row's
    record row (-1 if not appended) goes to `w`'s `local`; returns the record
    rows now used."""
    n = hi - lo
    if _kernel.LIB is None:
        local, *cols = _record_numpy(w.col("kids", 0, n), t.col("alive", lo, hi), t.col("parent", lo, hi),
                                     w.col("keys", 0, n), t.col("birth", lo, hi), w.col("death", 0, n), used)
        w.col("local", 0, n)[...] = local
        for name, v in zip(_RECORD, cols):
            rec.col(name, used, used + v.size)[...] = v
        return used + cols[0].size
    return _kernel.LIB.record(w.at["kids"], t.at["alive"] + lo, t.at["parent"] + 8 * lo, w.at["keys"],
                              t.at["birth"] + 8 * lo, w.at["death"], w.at["local"],
                              *(rec.at[k] for k in _RECORD), used, n)


def _record_numpy(kids, alive, parent, keys, birth, death, used):
    """_record in numpy, returning the rows' record rows (-1 if not
    appended) and the appended parents, keys, births and deaths: its oracle
    and its path without the kernel."""
    rows = np.flatnonzero((kids > 0) | alive)
    local = np.full(kids.size, -1, np.int64)
    local[rows] = used + np.arange(rows.size)
    return local, parent[rows], keys[rows], birth[rows], death[rows]


def _prune(rec: _Table, used: int, front: np.ndarray, horizon: float) -> int:
    """Compact the first `used` rows of the record `rec`, in order, to those
    that die after `horizon` or have such a row or a front row below them,
    remapping the record's parents and the front's, `front` (C-contiguous,
    in place); returns the rows kept."""
    if _kernel.LIB is None:
        *cols, front[...] = _prune_numpy(*(rec.col(k, 0, used) for k in _RECORD), horizon, front)
        for name, v in zip(_RECORD, cols):
            rec.col(name, 0, v.size)[...] = v
        return cols[0].size
    at = np.empty(used, np.int64)
    return _kernel.LIB.prune(*(rec.at[k] for k in _RECORD), used, horizon, _kernel.address(front), front.size,
                             _kernel.address(at))


def _prune_numpy(parent, key, birth, death, horizon, front):
    """_prune in numpy, returning the kept parents, keys, births and deaths
    and the remapped front parents: its oracle and its path without the
    kernel.  A negative parent is a root's and is kept as it is."""
    keep = death > horizon
    keep[front[front >= 0]] = True
    rows = np.flatnonzero(keep)
    while rows.size:  # one generation up per pass
        up = np.unique(parent[rows])
        rows = up[up >= 0]
        rows = rows[~keep[rows]]
        keep[rows] = True
    at = np.cumsum(keep) - 1

    def remap(p):
        out, up = p.copy(), p >= 0
        out[up] = at[p[up]]
        return out

    return remap(parent[keep]), key[keep], birth[keep], death[keep], remap(front)


def _displacement(motion, keys, birth, death, horizon) -> np.ndarray:
    """Each row's normal from its key's displacement slot, scaled by the motion
    over its life clipped to [0, horizon]; the scale comes first, as holding the
    span while drawing the normals raised deep-trees' peak RSS by about 6 MB."""
    sd = np.sqrt(np.asarray(motion.variance(np.minimum(death, horizon) - np.maximum(birth, 0.0)), dtype=float))
    sd *= ndtri(slot_uniform(keys, _H_DISPLACEMENT))
    return sd


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
    adds its displacement to root[r - 1 - parent] (root[r] for a parent of
    -1), any other row to its parent's position."""
    if _kernel.LIB is None:
        return _ancestry_sum_numpy(parent, disp, bounds, root)
    parent, disp = np.ascontiguousarray(parent, np.int64), np.ascontiguousarray(disp, float)
    bounds, root = np.ascontiguousarray(bounds, np.int64), np.ascontiguousarray(root, float)
    pos = np.empty(disp.size)
    _kernel.LIB.ancestry(*map(_kernel.address, (parent, disp, bounds, root)), bounds.size - 1,
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
    pos[roots] = root[run[roots] - 1 - parent[roots]] + disp[roots]
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
    cum = model.offspring.cumulative()
    horizon = float(horizon)
    if not 0 <= horizon < math.inf:
        raise ConfigError(f"horizon {horizon} must be finite and nonnegative")
    if particle_cap < 1:
        raise ConfigError(f"particle cap {particle_cap} must be at least 1")

    rep = np.asarray(root_rep, dtype=np.int64)
    arena, snapshot = mode == "arena", mode == "snapshot"
    if arena and not np.array_equal(rep, np.arange(n_rep)):
        raise ValueError("an arena batch takes one root per replicate")
    b = _Batch(run_keys, np.zeros(n_rep, dtype=np.int64), cum[cum < 1.0])
    # an arena batch's rows stay in one table, each wave's children after it,
    # which starts at the batch's expected rows (a critical tree from one root
    # has 1 + horizon / mean lifetime); a counts or snapshot wave writes its
    # children to a table made for them
    start = max(int(min(rep.size * (1.0 + horizon / law.mean()), _TREE_START_MAX)), rep.size)
    t = _Table(start, _TREE) if arena else _Table(rep.size, _TREE if snapshot else _FRONT)
    lo, hi = 0, rep.size
    t.col("rep", lo, hi)[...] = rep
    t.col("birth", lo, hi)[...] = root_birth
    if arena or snapshot:  # a snapshot root's parent -1 - i names its position root_position[i]
        t.col("parent", lo, hi)[...] = -1 if arena else -1 - np.arange(hi)
    alive_rep = [np.empty(0, np.int64)]
    # a snapshot batch records the rows that have children or are alive, and
    # prunes the record to those with an alive or front row below them
    rec, used = _Table(_RECORD_START, _RECORD) if snapshot else None, 0

    w = _Table(0, _SCRATCH)  # the wave's work rows, reused while they suffice
    wave = 0
    while hi > lo:
        w = w.fit(hi - lo)
        if _wave_keys(b, t, lo, hi, w) > particle_cap:  # only this wave's replicates have grown
            raise CapExceeded(np.flatnonzero(b.next_id > particle_cap))
        u_life = w.col("u_life", 0, hi - lo)
        if wave == 0:  # the roots: condition each on its initial age
            init_age = -t.col("birth", lo, hi)
            conditioned = init_age > 0
            if np.any(conditioned):
                g0 = np.asarray(law.cdf(init_age[conditioned]), dtype=float)
                if np.any(g0 >= 1.0):
                    raise ValueError("initial age beyond lifetime support")
                u_life[conditioned] = g0 + u_life[conditioned] * (1.0 - g0)
        t.col("lifetime", lo, hi)[...] = law.ppf(u_life)
        total = _offspring(b, t, lo, hi, w, horizon)

        if arena:  # motion is drawn after the loop, for kept runs only (_extract_runs)
            t = t.fit(hi + total, hi)
            _branch(t, lo, hi, w, t, hi)
            lo, hi = hi, hi + total
        else:
            n = hi - lo
            if snapshot:  # motion is drawn after the loop, for the pruned record only
                if used + n > rec.size:  # full: prune, and grow unless a quarter of the record is then free
                    used = _prune(rec, used, t.col("parent", lo, hi), horizon)
                    rec = rec.fit(used + n + rec.size // 4, used)
                used = _record(t, lo, hi, w, rec, used)
            else:  # counts draws motion unread until the benchmark stops requiring it (ROADMAP item 8)
                _displacement(model.motion, w.col("keys", 0, n), t.col("birth", lo, hi), w.col("death", 0, n),
                              horizon)
            alive_rep.append(t.col("rep", lo, hi)[t.col("alive", lo, hi)])
            out = _Table(total, t.columns)
            _branch(t, lo, hi, w, out, 0)
            t, lo, hi = out, 0, total
        wave += 1

    if arena:
        for c in t.cols.values():  # hand back the unused rows; nothing else views the columns
            c.resize(hi, refcheck=False)
        cols = t.cols
        counts_alive = np.bincount(cols["rep"][cols["alive"]], minlength=n_rep)
        return cols, b.next_id, b.run_keys, np.asarray(root_position, dtype=float), counts_alive
    counts_alive = np.bincount(np.concatenate(alive_rep), minlength=n_rep)
    if mode == "counts":
        return counts_alive
    # the record's alive rows are the waves' alive rows in wave order; their
    # positions sum the displacements down the tree, bit for bit as a wave would
    used = _prune(rec, used, np.empty(0, np.int64), horizon)
    parent, keys, birth, death = (rec.col(k, 0, used) for k in _RECORD)
    disp = _displacement(model.motion, keys, birth, death, horizon)
    alive = np.flatnonzero(death > horizon)
    positions = _ancestry_sum(parent, disp, np.array([0, used]), np.asarray(root_position, float))[alive]
    return np.concatenate(alive_rep), horizon - birth[alive], positions, counts_alive


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
    t, w = _Table(idx.size, {"rep": _I8}), _Table(idx.size, {"local": _I8, "keys": _U8})
    t.col("rep")[...] = np.repeat(np.arange(rows.size), np.diff(bounds))
    _wave_keys(_Batch(run_keys[rows], np.zeros(rows.size, np.int64)), t, 0, idx.size, w)
    ids = w.col("local")
    disp = _displacement(model.motion, w.col("keys"), birth, birth + lifetime, horizon)
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
        try:
            out = _batch_simulate(model, horizon, keys, rep, birth, pos, particle_cap, mode)
        except CapExceeded as exc:  # name replicates, not batch rows
            raise CapExceeded(np.unique(pending[np.asarray(exc.replicates) // width])) from None
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
    if chunk_size < 1:
        raise ConfigError(f"chunk_size {chunk_size} must be positive")
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
    one row per particle alive at the horizon, in wave order, plus the alive
    count per replicate.  Motion is drawn once, after the last wave, for the
    alive rows and their ancestors only; a single-root replicate's ages and
    positions are those of `run_once`'s snapshot for its key, byte for byte.
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
