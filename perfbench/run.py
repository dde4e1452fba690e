"""parfluor benchmark: three workloads timed end to end, or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/`; its
outputs go under `.perfbench_out/` and are removed at the end, except the
span file of a traced run.  The run repeats whole rounds of the workload's
operations (closed loop, one caller) until another round would pass S
seconds, with at least three rounds, checks the outputs, and prints one JSON
line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  wall_s, cpu_s      wall and user+system CPU time of one round, as the sum
                     over its program calls of each call's median over rounds
  setup_s            median over fresh processes of the time from process
                     start to the first timed call (setup_probe.py)
  peak_rss_mb        peak resident memory of this process
  s_to_precision     wall_s scaled to a 5% relative SE of the total photons
                     (ensemble_precision); wall_s elsewhere
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of tracer.LAYER_METRICS, wigner.rel_se_total and trace.overhead_s.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["surface_scan", "ensemble_precision", "calibrated_sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def measure_setup(argv):
    """Median set-up time of SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *argv],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def round_time(rounds, field):
    """Time of one round: the sum over its program calls of each call's
    median over rounds (field 0 wall, 1 cpu).  Taking the median call by
    call keeps a few seconds of interference from other processes out of
    every call it did not hit."""
    return sum(statistics.median(r[i][field] for r in rounds) for i in range(len(rounds[0])))


def run(args):
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import parfluor
    from parfluor import cli, dispersion, perturbative, phasematch, wigner  # noqa: F401

    import tracer as tr
    from checks import seconds_to_precision
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](cli, args.seed, work)
        setup_s = None if args.trace else measure_setup(workload.ops[0])
        tracer = tr.Tracer(parfluor) if args.trace else None
        min_rounds = 4 if args.trace else 3
        rounds, layers, attempted, failed = [], [], 0, 0
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.install()
            try:
                timings = workload.run_round()
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                spans = tracer.take()
                layers.append(tr.layer_metrics(spans))
                if len(layers) == 1:
                    write_spans(args, spans, tracer.missing)
            workload.after_round()
            rounds.append((traced, timings))
            flags = [ok for _, _, oks in timings for ok in oks]
            attempted += len(flags)
            failed += flags.count(False)
            wall = sum(w for w, _, _ in timings)
            cpu = sum(c for _, c, _ in timings)
            print(f"round {len(rounds)}: wall {wall:.3f} s, cpu {cpu:.3f} s"
                  f"{' (traced)' if traced else ''}", file=sys.stderr)
            if len(rounds) >= min_rounds and time.perf_counter() - start + wall > args.seconds:
                break

        rel_se = None
        try:
            errors = workload.check()
            if hasattr(workload, "precision"):
                rel_se = workload.precision()[2]
        except (OSError, ValueError, KeyError) as exc:
            errors = [f"outputs could not be checked: {type(exc).__name__}: {exc}"]
        for e in errors:
            print(f"CHECK FAILED: {e}", file=sys.stderr)

        untraced = [t for traced, t in rounds if not traced]
        if args.trace:
            metrics = {name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
                       for name, (unit, _, _) in tr.LAYER_METRICS.items()}
            metrics["wigner.rel_se_total"] = {"value": rel_se or 0.0, "unit": "ratio"}
            metrics["trace.overhead_s"] = {
                "value": round_time([t for traced, t in rounds if traced], 0)
                - round_time(untraced, 0), "unit": "s"}
        else:
            wall_s = round_time(untraced, 0)
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "cpu_s": {"value": round_time(untraced, 1), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "unit": "MB"},
                "s_to_precision": {
                    "value": wall_s if rel_se is None
                    else seconds_to_precision(wall_s, rel_se),
                    "unit": "s"},
            }
        return {"correct": not errors, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_spans(args, spans, missing):
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "fields": ["name", "start_s", "end_s", "parent", "measure"],
        "missing": missing, "spans": spans,
    }))


def main(argv=None):
    # a terminated run still removes its outputs (the finally in run())
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if not (SRC / "parfluor" / "__init__.py").is_file():
        print(f"perfbench: no parfluor sources at {SRC}", file=sys.stderr)
        return 2
    # one core for this process and the set-up probes it starts: on a shared
    # host, FFT threads split over two vCPUs stall whenever one is taken away
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
