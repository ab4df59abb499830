"""Command-line interface: simulate / verify / coalescent / superprocess /
loglaplace.

All randomness descends from the mandatory --seed; rerunning a command with
identical arguments produces byte-identical machine output.  Exit codes:
0 all selected checks passed, 1 a statistical check failed, 2 usage or
configuration error; any other error keeps its traceback.
"""

from __future__ import annotations

import argparse
import json

import sys
from pathlib import Path

from . import __version__
from .engine import DEFAULT_PARTICLE_CAP, arena_to_csv, iter_runs, run_to_jsonl
from .genealogy import coalescence_times, coalescent_csv_rows, sample_survivors
from .loglaplace import default_grid, integrate_against, parse_test_function, solution_csv, solve_u
from .model import ConfigError, ModelError, binary_exponential_model, parse_model_config, validate_model
from .rng import stream
from .superprocess import Intensity, ScalingFamily, laplace_mc
from .verify import CRITERIA, Harness, run_criteria

USAGE_ERROR = 2


def _load_model(path):
    if path is None:
        return binary_exponential_model()
    text = Path(path).read_text()
    return validate_model(parse_model_config(text))


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _cmd_simulate(args) -> int:
    model = _load_model(args.model)
    lines = []
    arena_csv = None
    for run in iter_runs(
        model,
        args.t,
        stream(args.seed),
        args.reps,
        conditioned=args.conditioned,
        particle_cap=args.cap,
    ):
        lines.append(run_to_jsonl(run))
        if args.arena_csv and arena_csv is None:
            arena_csv = arena_to_csv(run.arena)
    _write(args.out, "\n".join(lines) + "\n")
    if args.arena_csv:
        if args.reps != 1:
            print("--arena-csv dumps the first run's arena", file=sys.stderr)
        Path(args.arena_csv).write_text(arena_csv)
    return 0


def _cmd_verify(args) -> int:
    if args.report and (Path(args.report).is_dir() or not Path(args.report).parent.is_dir()):
        print(f"error: --report {args.report}: not a file path in an existing directory", file=sys.stderr)
        return USAGE_ERROR  # before any criterion runs, not after all of them
    names = None if "all" in args.checks else args.checks
    h = Harness(args.seed)
    results = run_criteria(h, names)
    model_digest = h.model.digest()
    json_lines = []
    all_pass = True
    for res in results:
        for row in res.rows:
            json_lines.append(row.to_json(res.key, args.seed, model_digest))
            status = "PASS" if row.passed else "FAIL"
            print(f"{status} {res.key}: {row.name} (value={row.value:.6g}, "
                  f"stat={row.statistic:.6g}, thr={row.threshold:.6g})")
        verdict = "PASS" if res.passed else "FAIL"
        print(f"== {verdict} {res.key}: {res.title}")
        all_pass = all_pass and res.passed
    if args.report:
        Path(args.report).write_text("\n".join(json_lines) + "\n")
    return 0 if all_pass else 1


def _cmd_coalescent(args) -> int:
    if args.k < 2:
        raise ConfigError(f"--k {args.k}: a coalescence time needs at least 2 survivors")
    model = _load_model(args.model)
    samp = stream(args.seed, 999)
    rows = []
    produced = 0
    for i, run in enumerate(
        iter_runs(model, args.t, stream(args.seed), args.reps, conditioned=True)
    ):
        if run.snapshot.n_alive < args.k:
            continue
        ids = sample_survivors(run, args.k, samp.child(i))
        rows.append((coalescence_times(run, ids), run.snapshot.n_alive))
        produced += 1
    header = "t,k," + ",".join(f"tau{j}_over_t" for j in range(1, args.k)) + ",n_t\n"
    _write(args.out, header + coalescent_csv_rows(rows, args.t))
    if produced < args.reps:
        print(f"{args.reps - produced} runs had fewer than k={args.k} survivors", file=sys.stderr)
    return 0


def _cmd_superprocess(args) -> int:
    f = parse_test_function(args.f)
    nu = Intensity(total_mass=args.nu_mass)
    fam = ScalingFamily(n=args.n, lam=args.lam, nu=nu)
    est = laplace_mc(fam, f, args.t, args.reps, stream(args.seed))
    grid = default_grid(args.lam, fam.psi_unscaled(), args.t)
    sol = solve_u(f, args.lam, fam.psi_unscaled(), grid)
    target = integrate_against(sol.final(), grid, nu)
    payload = {
        "n": args.n,
        "t": args.t,
        "f": args.f,
        "lambda": args.lam,
        "nu_mass": args.nu_mass,
        "estimate": est.value,
        "stderr": est.stderr,
        "reps": args.reps,
        "solver_target": target,
        "seed": args.seed,
        "version": f"branchlab-{__version__}",
    }
    _write(args.out, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def _cmd_loglaplace(args) -> int:
    if args.csv_times < 2:
        raise ConfigError(f"--csv-times {args.csv_times}: the CSV needs at least 2 slices, t = 0 and T")
    f = parse_test_function(args.f)
    grid = default_grid(args.lam, args.psi, args.t, nx=args.nx, dt=args.dt)
    sol = solve_u(f, args.lam, args.psi, grid)
    nu = Intensity(total_mass=args.nu_mass)
    summary = {
        "f": args.f,
        "lambda": args.lam,
        "psi": args.psi,
        "t": args.t,
        "dt": args.dt,
        "nx": args.nx,
        "functional": integrate_against(sol.final(), grid, nu),
        "nu_mass": args.nu_mass,
        "version": f"branchlab-{__version__}",
    }
    if args.out:
        Path(args.out).write_text(solution_csv(sol, args.csv_times))
    _write(args.summary, json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="branchlab",
                                description="Monte Carlo laboratory for critical branching Markov processes")
    p.add_argument("--version", action="version", version=f"branchlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="forward-simulate runs, one JSONL record per run")
    sim.add_argument("--t", type=float, required=True, help="horizon")
    sim.add_argument("--reps", type=int, default=1)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--conditioned", action="store_true", help="condition on survival by rejection")
    sim.add_argument("--model", help="model config file (key = value grammar)")
    sim.add_argument("--cap", type=int, default=DEFAULT_PARTICLE_CAP, help="particle cap per run")
    sim.add_argument("--out", help="output path (default stdout)")
    sim.add_argument("--arena-csv", help="also dump the first run's arena as CSV")
    sim.set_defaults(fn=_cmd_simulate)

    ver = sub.add_parser("verify", help="run acceptance checks headless")
    ver.add_argument("checks", nargs="*", default="all", choices=["all", *CRITERIA],
                     help="check names or 'all' (the default)")
    ver.add_argument("--seed", type=int, required=True)
    ver.add_argument("--report", help="write JSONL report rows to this path")
    ver.set_defaults(fn=_cmd_verify)

    coa = sub.add_parser("coalescent", help="sample coalescence times from conditioned runs")
    coa.add_argument("--t", type=float, required=True)
    coa.add_argument("--k", type=int, default=2)
    coa.add_argument("--reps", type=int, default=1000)
    coa.add_argument("--seed", type=int, required=True)
    coa.add_argument("--model", help="model config file")
    coa.add_argument("--out", help="CSV output path (default stdout)")
    coa.set_defaults(fn=_cmd_coalescent)

    sup = sub.add_parser("superprocess", help="scaled-system log-Laplace functionals vs solver")
    sup.add_argument("--n", type=int, required=True, help="scaling level")
    sup.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sup.add_argument("--t", type=float, required=True, help="macroscopic horizon")
    sup.add_argument("--reps", type=int, default=500, help="independent fields")
    sup.add_argument("--f", default="const:1.0", help="test function: const:<c>, gauss, age-exp, indicator")
    sup.add_argument("--nu-mass", type=float, default=1.0)
    sup.add_argument("--seed", type=int, required=True)
    sup.add_argument("--out", help="JSONL output path (default stdout)")
    sup.set_defaults(fn=_cmd_superprocess)

    log = sub.add_parser("loglaplace", help="deterministic log-Laplace equation solver")
    log.add_argument("--f", default="const:1.0")
    log.add_argument("--lambda", dest="lam", type=float, default=1.0)
    log.add_argument("--psi", type=float, default=1.0)
    log.add_argument("--t", type=float, required=True)
    log.add_argument("--dt", type=float, default=1e-3)
    log.add_argument("--nx", type=int, default=1024)
    log.add_argument("--nu-mass", type=float, default=1.0)
    log.add_argument("--out", help="CSV path for the (t, x, u) trajectory")
    log.add_argument("--csv-times", type=int, default=21, help="time slices in the CSV, t = 0 and T among them")
    log.add_argument("--summary", help="summary JSON path (default stdout)")
    log.set_defaults(fn=_cmd_loglaplace)
    return p


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.fn is _cmd_verify:
        return _cmd_verify(args)  # a criterion's own errors keep their traceback
    try:
        return args.fn(args)
    except (ConfigError, ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
