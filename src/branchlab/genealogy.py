"""Survivor sampling and ancestral queries over a completed run.

All queries are read-only walks over the arena's parent links: ancestral
lifetime/displacement sequences for a sampled survivor, and coalescence
times (birth times of most recent common ancestors) for k sampled survivors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import RunRecord
from .model import ConfigError
from .rng import RandomStream


class NotEnoughSurvivors(ValueError):
    pass


class NotAlive(ValueError):
    pass


class DuplicateIds(ValueError):
    pass


@dataclass(frozen=True)
class AncestralLine:
    """Root-first ancestor data for one survivor.

    lifetimes/displacements cover the M_t completed ancestor lives;
    residual_age and residual_displacement belong to the survivor itself.
    Identities: sum(lifetimes) + residual_age == horizon + initial_age, and
    initial_position + sum(displacements) + residual_displacement equals the
    survivor's snapshot position.
    """

    generation_count: int
    lifetimes: np.ndarray
    displacements: np.ndarray
    residual_age: float
    residual_displacement: float


@dataclass(frozen=True)
class CoalescentSample:
    """k sampled survivors with their ancestral split times.

    tau holds the k-1 split birth times in ascending order (a split node
    with c sampled child branches appears c-1 times).
    """

    ids: np.ndarray
    tau: np.ndarray


def sample_survivors(run: RunRecord, k: int, rng: RandomStream) -> np.ndarray:
    """Uniform k-subset of the alive set via a partial Fisher-Yates pass."""
    alive = run.snapshot.ids
    n = alive.size
    if k < 0:
        raise ConfigError(f"cannot sample {k} survivors")
    if k > n:
        raise NotEnoughSurvivors(f"asked for {k} of {n} survivors")
    pool = alive.copy()
    for j in range(k):
        pick = j + int(rng.uniform() * (n - j))
        pool[j], pool[pick] = pool[pick], pool[j]
    return pool[:k]


def _path_to_root(run: RunRecord, pid: int) -> list[int]:
    """Node ids from the root down to pid (root first)."""
    parent = run.arena.parent
    path = [pid]
    node = parent.item(pid)
    while node >= 0:
        path.append(node)
        node = parent.item(node)
    path.reverse()
    return path


def _mrca(a: list[int], b: list[int]) -> int:
    """Deepest node shared by two root-first paths."""
    shared = next((d for d, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return a[shared - 1]


def ancestral_line(run: RunRecord, pid: int) -> AncestralLine:
    arena = run.arena
    if pid < 0 or pid >= len(arena) or not arena.alive[pid]:
        raise NotAlive(f"particle {pid} is not alive at the horizon")
    path = _path_to_root(run, int(pid))
    ancestors = path[:-1]
    return AncestralLine(
        generation_count=len(ancestors),
        lifetimes=arena.lifetime[ancestors].copy(),
        displacements=arena.displacement[ancestors].copy(),
        residual_age=float(arena.horizon - arena.birth[pid]),
        residual_displacement=float(arena.displacement[pid]),
    )


def coalescence_times(run: RunRecord, ids) -> CoalescentSample:
    """Split-time vector for sampled survivors.

    The tau vector is read off the induced ancestral subtree: every node
    through which at least two distinct sampled lineages pass contributes its
    birth time once per extra branch, giving exactly k-1 entries.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if np.unique(ids).size != ids.size:
        raise DuplicateIds(f"sampled ids contain duplicates: {ids.tolist()}")
    arena = run.arena
    for pid in ids:
        if pid < 0 or pid >= len(arena) or not arena.alive[pid]:
            raise NotAlive(f"particle {int(pid)} is not alive at the horizon")

    # sorted root-first paths are in depth-first order, so the MRCAs of
    # neighbours visit each split node once per extra sampled branch
    paths = sorted(_path_to_root(run, int(pid)) for pid in ids)
    tau = sorted(float(arena.birth[_mrca(a, b)]) for a, b in zip(paths, paths[1:]))
    return CoalescentSample(ids=ids.copy(), tau=np.asarray(tau))


def coalescent_csv_rows(samples, horizon: float) -> str:
    """CSV rows (t, k, tau_1/t, ..., tau_{k-1}/t, n_t) for CoalescentSamples
    paired with their run's population size: samples is a sequence of
    (CoalescentSample, n_t)."""
    out = []
    for cs, n_t in samples:
        scaled = ",".join(repr(float(v) / horizon) for v in cs.tau)
        out.append(f"{float(horizon)!r},{cs.ids.size},{scaled},{int(n_t)}")
    return "\n".join(out) + ("\n" if out else "")
