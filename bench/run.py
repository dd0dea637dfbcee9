"""fracprice benchmark: one workload per run.

    python3 bench/run.py --workload fit|sweep|wings|smile \
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from
``src/``.  Set-up is repeated SETUP_REPEATS times and reported as the median;
it covers a fresh interpreter importing the package and building the
workload's inputs.  Then whole rounds of the workload run until
``--seconds`` have passed (at least MIN_ROUNDS rounds), with tracing off.
The first round is a warm-up (lazy imports, first calls): it is checked and
counted as attempted, but the rate is taken over the other rounds.  Set-up
and operations are timed as paced time (``pace.py``), which takes out the
shared machine's drift in speed.  With ``--trace 1`` the run is, after the
warm-up round, one untraced round and one traced round of the same
operations, unpaced; it reports the per-layer metrics and the tracing
overhead, and writes the spans to ``.bench_out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
workload's own figures (per-kind fit times, routes, failures).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One thread per run: BLAS would otherwise spread the density batch's
# matrix products over both cores of a shared machine and add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_ROUNDS = 2


class Context:
    """Paths and the environment that child interpreters get."""

    def __init__(self, root):
        self.root = str(root)
        self.src = str(root / "src")
        self.out_dir = str(root / ".bench_out")
        os.makedirs(self.out_dir, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-", dir=self.out_dir)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=self.src + (
            os.pathsep + path if path else ""))

    def python_s(self, code):
        """Wall time of a fresh interpreter running `code`."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=self.env,
                       cwd=self.root, check=True, timeout=120)
        return time.perf_counter() - t0


def _timed_round(wl, inputs, pacer):
    t0 = time.perf_counter()
    rnd = wl.run(inputs, pacer)
    return rnd, time.perf_counter() - t0


def measure(args, wl, ctx):
    import pace
    import tracing

    # the probe would add to the self time of whatever layer it interrupts
    pacer = pace.Pacer(paced=not args.trace)
    setups = []
    # a traced run reports no set-up time, so it sets up once
    for _ in range(1 if args.trace else SETUP_REPEATS):
        # while the child interpreter runs, the probe runs here, beside it
        with pacer.span() as span:
            ctx.python_s("import fracprice")
            inputs = wl.setup(args.seed, ctx)
        setups.append(span)
    # a warm-up round lets lazy imports and first-call set-up finish
    t_start = time.perf_counter()
    rounds = [wl.run(inputs, pacer)]
    tracer = None
    if args.trace:
        first, untraced_s = _timed_round(wl, inputs, pacer)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            second, traced_s = _timed_round(wl, inputs, pacer)
        finally:
            tracer.uninstall()
        rounds += [first, second]
        timed = [first]
    else:
        while (len(rounds) < MIN_ROUNDS
               or time.perf_counter() - t_start < args.seconds):
            rounds.append(wl.run(inputs, pacer))
        timed = rounds[1:]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = wl.check(inputs, rounds[0].outputs)
    first_print = rounds[0].fingerprint()
    if any(r.fingerprint() != first_print for r in rounds[1:]):
        verdict.problems.append("a later round's outputs differ from the first")
    main_ops = rounds[0].main_ops * len(timed)
    ops_per_s = main_ops / sum(r.paced_s for r in timed)
    setup_s = statistics.median(s.paced_s for s in setups)

    if tracer:
        metrics = tracer.metrics()
        metrics["cli.import_s"] = (statistics.median(
            ctx.python_s("import fracprice.cli")
            for _ in range(IMPORT_REPEATS)), "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        tracer.write(os.path.join(
            ctx.out_dir, f"trace-{args.workload}-{args.seed}.npz"))
    else:
        metrics = {"setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"),
                   "ops_per_s": (ops_per_s, "1/s")}

    detail = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB"),
              wl.rate_name: (ops_per_s, "1/s"),
              wl.rate_name + "_wall": (main_ops / sum(r.raw_s for r in timed),
                                       "1/s"),
              "setup_s_wall": (statistics.median(s.raw_s for s in setups),
                               "s")}
    if pacer.probe_s:
        detail["probe_median_s"] = (statistics.median(pacer.probe_s), "s")
    if wl.detail:
        detail.update(wl.detail(timed))
    total = sum(verdict.routes.values())
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "timed_round_s": [r.raw_s for r in timed],
        "timed_round_paced_s": [r.paced_s for r in timed],
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "route_share": {k: n / total for k, n in sorted(verdict.routes.items())},
        "routes": dict(sorted(verdict.routes.items())),
        "failed_per_round": verdict.failed,
        "failures": verdict.failures,
        "problems": verdict.problems,
        "absent": tracer.absent if tracer else [],
    }))
    print(json.dumps({
        "correct": not verdict.problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": verdict.failed * len(rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fracprice" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ctx = Context(ROOT)
    try:
        measure(args, workloads.WORKLOADS[args.workload], ctx)
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
