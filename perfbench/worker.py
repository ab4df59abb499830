"""One benchmark repetition in a fresh interpreter.

Times the import of `branchlab.cli` (set-up), then one call of
`branchlab.cli.dispatch(["verify", <criteria>, "--seed", S, "--report", F])`,
and writes the measurements as JSON to `--result`.  With `--trace` the
layer wrappers from `tracing.py` are installed between the two, so the
import time is never traced.  With `--import-only` only the set-up is
measured.

Nothing from numpy or branchlab is imported before the set-up clock starts.

    python3 perfbench/worker.py --result out.json --seed 1 \
        --report report.jsonl survival-decay population-law
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("criteria", nargs="*")
    p.add_argument("--seed", type=int)
    p.add_argument("--report")
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--import-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import branchlab.cli as cli

    out = {"setup_s": time.perf_counter() - t0}
    if not args.import_only:
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.install()
        argv = ["verify", *args.criteria, "--seed", str(args.seed), "--report", args.report]
        cpu0 = _cpu_seconds()
        w0 = time.perf_counter()
        try:
            out["exit_code"] = cli.dispatch(argv)
        except Exception:  # a criterion raised: its rows go missing and count as failed
            traceback.print_exc()
            out["exit_code"] = None
        out["wall_s"] = time.perf_counter() - w0
        out["cpu_s"] = _cpu_seconds() - cpu0
        if tracer is not None:
            out["trace"] = tracer.summary()
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
