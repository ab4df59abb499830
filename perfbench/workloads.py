"""The benchmark's workloads: fixed sets of `branchlab verify` criteria.

Each workload runs its criteria through the entry users run,
`branchlab.cli.dispatch(["verify", *criteria, "--seed", S, "--report", F])`,
with no `--reps` or `--threads`, so a change to a default is measured rather
than bypassed.  Together they cover every engine mode (`counts`, `arena` with
many small and with a few huge trees, `snapshot`), the genealogy queries, the
superprocess fields and the log-Laplace solver.  Why each was chosen, and
which other `verify all` criteria share its code path, is recorded in
BENCHMARK.json.

`verify all` is not a workload: it takes 150-190 s on a 2-core machine, so
the 22 runs a check makes of each workload do not fit the time budget, and
each of its heavy criteria shares its code path with one of these.
"""

from __future__ import annotations

from dataclasses import dataclass

_HOT = ("engine.ndtri", "rng.slot_uniform", "model.lifetime_ppf", "model.motion_variance",
        "verify.run_criteria", "cli.dispatch")


@dataclass(frozen=True)
class Workload:
    criteria: tuple
    fires: tuple  # wrapped names a traced run must see called


WORKLOADS = {
    "counts-only": Workload(
        ("survival-decay", "population-law"),
        _HOT + ("engine.survival_counts", "engine.conditioned_counts"),
    ),
    "many-survivors": Workload(
        ("age-law",),
        _HOT + ("engine.iter_runs", "genealogy.sample_survivors",
                "genealogy.ancestral_line", "genealogy.coalescence_times"),
    ),
    "deep-trees": Workload(
        ("moment-structure",),
        _HOT + ("engine.iter_runs", "genealogy.sample_survivors", "genealogy.coalescence_times"),
    ),
    "scaling-limit": Workload(
        ("total-mass-law", "solver-suite"),
        _HOT + ("engine.simulate_fields", "superprocess.sample_poisson_field",
                "loglaplace.solve_u", "loglaplace.semigroup_apply"),
    ),
}
