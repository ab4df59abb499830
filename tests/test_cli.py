import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import branchlab
from branchlab import cli, verify
from branchlab.cli import dispatch
from branchlab.genealogy import DuplicateIds
from branchlab.stats import TooFewSamples


def test_simulate_deterministic_output(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    args = ["simulate", "--t", "10", "--reps", "10", "--seed", "7"]
    assert dispatch(args + ["--out", str(out1)]) == 0
    assert dispatch(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text().splitlines()[0])
    assert {"seed_path", "attempts", "n_t", "snapshot", "horizon"} <= set(payload)


def test_simulate_conditioned_has_survivors(tmp_path):
    out = tmp_path / "c.jsonl"
    assert dispatch(["simulate", "--t", "15", "--reps", "5", "--seed", "3",
                     "--conditioned", "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        assert json.loads(line)["n_t"] >= 1


def test_simulate_arena_csv(tmp_path):
    out = tmp_path / "r.jsonl"
    csv = tmp_path / "arena.csv"
    assert dispatch(["simulate", "--t", "5", "--reps", "1", "--seed", "11",
                     "--conditioned", "--out", str(out), "--arena-csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "id,parent,birth,lifetime,displacement,alive"
    assert len(lines) > 1


def test_unknown_flag_exits_2(capsys):
    assert dispatch(["simulate", "--t", "5", "--seed", "1", "--bogus"]) == 2


def test_unknown_command_exits_2():
    assert dispatch(["frobnicate"]) == 2


def test_missing_seed_exits_2():
    assert dispatch(["simulate", "--t", "5"]) == 2


def test_bad_model_config_exits_2(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("lifetime = exp:1.0\noffspring = 0.5,0.4,0.1\nmotion = bm:1.0\n")
    assert dispatch(["simulate", "--t", "5", "--seed", "1", "--model", str(cfg)]) == 2


def test_non_finite_initial_position_exits_2(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("lifetime = exp:1.0\noffspring = 0.5,0,0.5\nmotion = bm:1.0\ninitial_position = nan\n")
    out = tmp_path / "runs.jsonl"
    assert dispatch(["simulate", "--t", "1", "--seed", "1", "--conditioned", "--model", str(cfg),
                     "--out", str(out)]) == 2
    assert not out.exists()


def test_model_config_accepted(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text("lifetime = exp:2.0\noffspring = 0.5,0,0.5\nmotion = bm:1.0\n")
    out = tmp_path / "runs.jsonl"
    assert dispatch(["simulate", "--t", "5", "--seed", "1", "--model", str(cfg),
                     "--out", str(out)]) == 0


def test_verify_unknown_check_exits_2():
    assert dispatch(["verify", "nonsense", "--seed", "1"]) == 2


def _must_not_run(h):
    raise AssertionError("a criterion ran")


def test_verify_rejects_reps_without_simulating(monkeypatch, capsys):
    # each criterion runs at its pinned sizes; --reps is not an option
    monkeypatch.setitem(verify.CRITERIA, "survival-decay", _must_not_run)
    assert dispatch(["verify", "survival-decay", "--seed", "1", "--reps", "5"]) == 2
    assert "unrecognized arguments: --reps 5" in capsys.readouterr().err


def test_run_criteria_looks_up_every_name_before_running(monkeypatch):
    monkeypatch.setitem(verify.CRITERIA, "survival-decay", _must_not_run)
    with pytest.raises(KeyError, match="nonsense"):
        verify.run_criteria(verify.Harness(1), ["survival-decay", "nonsense"])


def test_verify_report_into_missing_directory_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_criteria", lambda h, names: pytest.fail("a criterion ran"))
    report = tmp_path / "no" / "such" / "rows.jsonl"
    assert dispatch(["verify", "solver-suite", "--seed", "1", "--report", str(report)]) == 2
    assert capsys.readouterr().err.startswith("error: --report ")


def test_verify_report_into_a_directory_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_criteria", lambda h, names: pytest.fail("a criterion ran"))
    assert dispatch(["verify", "solver-suite", "--seed", "1", "--report", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: --report ")


def test_verify_criterion_error_keeps_its_traceback(monkeypatch):
    def too_few(h):
        raise TooFewSamples("need >= 1000 pairs, got 3")

    monkeypatch.setitem(verify.CRITERIA, "age-law", too_few)
    with pytest.raises(TooFewSamples):
        dispatch(["verify", "age-law", "--seed", "1"])


def test_verify_single_check_passes(tmp_path, capsys):
    report = tmp_path / "rows.jsonl"
    rc = dispatch(["verify", "solver-suite", "--seed", "1", "--report", str(report)])
    assert rc == 0
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    assert all(r["passed"] for r in rows)
    assert all(r["version"].startswith("branchlab-") for r in rows)
    # README's report fields, exactly; every row gates
    fields = {"criterion", "check", "passed", "value", "target", "statistic", "threshold",
              "stderr", "n", "gating", "note", "seed", "model", "version"}
    assert all(set(r) == fields and r["gating"] is True for r in rows)
    out = capsys.readouterr().out
    assert "== PASS solver-suite" in out


def test_verify_report_deterministic(tmp_path):
    r1 = tmp_path / "a.jsonl"
    r2 = tmp_path / "b.jsonl"
    dispatch(["verify", "solver-suite", "--seed", "5", "--report", str(r1)])
    dispatch(["verify", "solver-suite", "--seed", "5", "--report", str(r2)])
    assert r1.read_bytes() == r2.read_bytes()


def test_coalescent_csv(tmp_path):
    out = tmp_path / "tau.csv"
    rc = dispatch(["coalescent", "--t", "10", "--k", "2", "--reps", "20",
                   "--seed", "9", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,k,tau1_over_t,n_t"
    for line in lines[1:]:
        t, k, tau, n_t = line.split(",")
        assert float(t) == 10.0
        assert 0.0 <= float(tau) <= 1.0


def test_loglaplace_summary(tmp_path):
    summary = tmp_path / "s.json"
    rc = dispatch(["loglaplace", "--f", "const:1.0", "--t", "1.0", "--summary", str(summary)])
    assert rc == 0
    payload = json.loads(summary.read_text())
    assert payload["functional"] == pytest.approx(0.5, abs=1e-4)


def test_loglaplace_csv(tmp_path):
    summary = tmp_path / "s.json"
    csv = tmp_path / "u.csv"
    rc = dispatch(["loglaplace", "--f", "gauss", "--t", "0.5", "--nx", "256", "--dt", "0.01",
                   "--summary", str(summary), "--out", str(csv), "--csv-times", "3"])
    assert rc == 0
    text = csv.read_text()
    assert text.startswith("t,x,u")
    times = sorted({float(line.split(",")[0]) for line in text.splitlines()[1:]})
    assert times == pytest.approx([0.0, 0.25, 0.5], abs=1e-12)


def test_loglaplace_csv_default_slices_end_at_t(tmp_path):
    csv = tmp_path / "u.csv"
    rc = dispatch(["loglaplace", "--f", "gauss", "--t", "0.5", "--summary", str(tmp_path / "s.json"),
                   "--out", str(csv)])
    assert rc == 0
    times = sorted({float(line.split(",")[0]) for line in csv.read_text().splitlines()[1:]})
    assert len(times) == 21
    assert times[0] == 0.0 and times[-1] == 0.5


def test_superprocess_row(tmp_path):
    out = tmp_path / "sp.jsonl"
    rc = dispatch(["superprocess", "--n", "20", "--t", "1.0", "--reps", "50",
                   "--f", "const:1.0", "--seed", "13", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 20
    assert payload["solver_target"] == pytest.approx(0.5, abs=1e-3)
    assert payload["estimate"] == pytest.approx(0.5, abs=5 * payload["stderr"] + 0.05)


def test_superprocess_bad_f_exits_2():
    assert dispatch(["superprocess", "--n", "20", "--t", "1.0", "--f", "nope", "--seed", "1"]) == 2


def test_superprocess_all_fields_underflow_exits_2(capsys):
    # exp(-<2000, Y>) is 0 in double precision for every field holding a particle
    argv = ["superprocess", "--n", "2", "--t", "0.5", "--reps", "3", "--f", "const:2000", "--seed", "1"]
    assert dispatch(argv) == 2
    assert "underflowed to 0 in every one of the 3 fields" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "superprocess --n 1 --t 1 --seed 1",
    "superprocess --n 10 --t 0.001 --seed 1",
    "superprocess --n 10 --t 1 --nu-mass -1 --seed 1",
    "superprocess --n 10 --t 1 --reps 0 --seed 1",
    "superprocess --n 10 --t 1 --lambda 0 --seed 1",
    "superprocess --n 10 --t 1 --f const:abc --seed 1",
    "superprocess --n 10 --t inf --seed 1",
    "superprocess --n 10 --t 0.5 --reps 5 --f const:nan --seed 1",
    "superprocess --n 10 --t 0.5 --reps 5 --f const:inf --seed 1",
    "loglaplace --t 1 --dt 0.3",
    "loglaplace --t 1 --nx 8",
    "loglaplace --t 1 --nx 16",
    "loglaplace --t 1 --f nope",
    "loglaplace --t 1 --dt 0.5 --f const:5",
    "loglaplace --t 1 --dt 0.5 --lambda -1",
    "loglaplace --t 1 --lambda 0",
    "loglaplace --t inf",
    "loglaplace --t 1 --dt nan",
    "loglaplace --t 1 --lambda nan",
    "loglaplace --t 1 --lambda inf",
    "loglaplace --t 1 --psi nan",
    "loglaplace --t 1 --psi inf",
    "loglaplace --f const:nan --t 0.5",
    "simulate --t 1 --seed 1 --model /nonexistent",
    "simulate --t -1 --seed 1",
    "simulate --t nan --seed 1",
    "simulate --t inf --seed 1",
    "simulate --t 1 --reps -2 --seed 1",
    "simulate --t 1 --seed 1 --cap 0",
    "simulate --t 1 --seed 1 --cap -5",
    "coalescent --t 5 --reps 0 --seed 1",
    "coalescent --t inf --seed 1",
    "coalescent --t 5 --reps 3 --seed 1 --k 1",
    "coalescent --t 5 --reps 3 --seed 1 --k 0",
    "coalescent --t 5 --reps 3 --seed 1 --k -1",
    "simulate --t 1 --seed 1 --model .",  # a directory where a file belongs
    "simulate --t 1 --seed 1 --out .",
    "coalescent --t 5 --reps 3 --seed 1 --out .",
    "loglaplace --t 0.1 --summary .",
    "loglaplace --t 0.5 --csv-times 1",
    "loglaplace --t 0.5 --csv-times 0",
])
def test_bad_arguments_exit_2(argv, capsys):
    assert dispatch(argv.split()) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_program_errors_keep_their_traceback(monkeypatch):
    def duplicate(run, ids):
        raise DuplicateIds("survivor ids repeat")

    monkeypatch.setattr(cli, "coalescence_times", duplicate)
    with pytest.raises(DuplicateIds):
        dispatch(["coalescent", "--t", "5", "--reps", "3", "--seed", "1"])


def _fresh_python(*args):
    """Run a new interpreter with this package's source first on its path."""
    src = str(Path(branchlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point_runs():
    proc = _fresh_python("-m", "branchlab.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"branchlab {branchlab.__version__}"


def test_import_loads_no_scipy_stats_integrate_or_optimize():
    proc = _fresh_python("-c", "import sys, branchlab.cli; print([m for m in "
                               "('scipy.stats', 'scipy.integrate', 'scipy.optimize') if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cvm_and_gamma_age_quantiles_load_no_scipy_optimize():
    script = (
        "import sys, numpy as np\n"
        "from branchlab.model import Brownian, Gamma, ModelSpec, OffspringLaw, limit_age_ppf, validate_model\n"
        "from branchlab.stats import cvm_two_sample\n"
        "cvm_two_sample(np.arange(5.0), np.arange(7.0) + 0.5)\n"
        "law = ModelSpec(Gamma(2.0, 2.0), OffspringLaw((0.5, 0.0, 0.5)), Brownian(1.0))\n"
        "limit_age_ppf(validate_model(law), np.linspace(0.1, 0.9, 9))\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    proc = _fresh_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
