"""cgrkit benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload loop --seed 1 --seconds 50 --trace 0

Run from the repository root; the program is imported from ./src. With
--trace 0 the timed section repeats rounds of the workload until --seconds
have passed (at least one round) and the end-to-end metrics are reported.
With --trace 1 one untraced round is followed by one traced round on the
same inputs, and the per-layer metrics plus the tracing overhead are
reported; the spans are written to perfbench/out/.

Every line but the last is a human-readable report. The last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BLAS_THREADS = "1"
# pin BLAS threads before numpy loads: train time swings with the default
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
# the detect tail is fixed at p75 so that two commits report the same
# percentile; a normal run takes at least 40 detect calls, ten or more beyond it
DETECT_TAIL = 75


def _percentile(values, p):
    """Nearest-rank percentile."""
    s = sorted(values)
    k = max(0, min(len(s) - 1, -(-p * len(s) // 100) - 1))
    return s[k]


def _machine() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cgrkit", "__init__.py")):
        print(f"error: no cgrkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    t0 = time.perf_counter()
    import cgrkit
    import tracer as tracing
    import workloads
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cgrkit.__file__).startswith(SRC + os.sep):
        print(f"error: cgrkit imported from {cgrkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = workloads.SPECS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.SPECS)}",
              file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"{spec.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, spec, workloads, tracing, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, spec, workloads, tracing, import_s, workdir) -> int:
    machine = _machine()
    print("machine: " + json.dumps(machine))

    # set-up: fixtures plus a small pass over every stage, repeated; the
    # median is reported, plus the one-time import
    sampler = workloads.RaySampler()
    sampler.install()
    setups = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fx = workloads.make_fixtures(spec)
        workloads.run_round(workloads.WARMUP, fx, seed=10_000 + rep, workdir=workdir)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)
    # the pool copies are the same in every round; sample them before either
    # timed path so that neither the first round nor the untraced round of a
    # traced run pays for them. Set-up casts are not replayed.
    workloads.pool_copies(spec, fx)
    sampler.take()

    attempted = failed = 0
    messages = []

    def check(rnd):
        nonlocal attempted, failed
        a, f, msg = workloads.check_round(rnd.check_inputs, sampler.take())
        attempted += a
        failed += f
        messages.extend(msg)
        # start every round from the same heap: nothing of the last round
        # stays alive, and no collection left over from it runs inside it
        rnd.check_inputs = None
        gc.collect()

    if args.trace:
        metrics = _traced(args, spec, workloads, tracing, fx, workdir, sampler, check)
    else:
        rounds, round_s = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rnd = workloads.run_round(spec, fx, seed=args.seed * 1000 + len(rounds), workdir=workdir)
            round_s.append(time.perf_counter() - t0)
            rounds.append(rnd)
            check(rnd)
            elapsed = time.perf_counter() - start
            if elapsed + round_s[-1] > args.seconds:
                break
        metrics = _end_to_end(rounds, round_s, setup_s, setups)

    sampler.uninstall()
    for m in messages[:20]:
        print("check failed: " + m)
    print(f"checks: {attempted} attempted, {failed} failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _end_to_end(rounds, round_s, setup_s, setups) -> dict:
    def series(name, unit, key=None):
        values = [v for r in rounds for v in r.samples[key or name]]
        line = f"{name:24s} median {statistics.median(values):.6g} {unit}  n={len(values)}"
        if len(values) > 10:
            # the highest whole percentile with ten or more samples beyond it
            p = 100 * (len(values) - 10) // len(values)
            line += f"  p{p} {_percentile(values, p):.6g} {unit}"
        print(line)
        return statistics.median(values), unit

    print(f"rounds: {len(rounds)}")
    m = {}
    print(f"{'setup_s':24s} median {setup_s:.6g} s  (import + median of {len(setups)} set-ups: "
          + ", ".join(f"{s:.3f}" for s in setups) + ")")
    m["setup_s"] = (setup_s, "s")
    # the timed section per round: a mean, because a round's length follows
    # how many evaluate attempts its scenes take, and the mean spreads that
    # over every round of the run
    m["total_s"] = (statistics.fmean(round_s), "s")
    print(f"{'total_s':24s} mean {m['total_s'][0]:.6g} s  n={len(round_s)} rounds")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    print(f"{'peak_rss_mb':24s} {m['peak_rss_mb'][0]:.6g} MB")
    m["annotate_s"] = series("annotate_s", "s")
    m["collect_trials_per_s"] = series("collect_trials_per_s", "1/s")
    m["train_s"] = series("train_s", "s")
    m["eval_attempt_ms"] = series("eval_attempt_ms", "ms")
    m["detect_p50_ms"] = series("detect_p50_ms", "ms", key="detect_ms")
    detect_ms = [v for r in rounds for v in r.samples["detect_ms"]]
    m["detect_tail_ms"] = (_percentile(detect_ms, DETECT_TAIL), "ms")
    print(f"{'detect_tail_ms':24s} p{DETECT_TAIL} {m['detect_tail_ms'][0]:.6g} ms  n={len(detect_ms)}")
    m["io_s"] = series("io_s", "s")
    m["pool_build_s"] = series("pool_build_s", "s")
    m["coverage_patches_per_s"] = series("coverage_patches_per_s", "1/s")
    return m


def _traced(args, spec, workloads, tracing, fx, workdir, sampler, check) -> dict:
    seed = args.seed * 1000

    def untraced():
        t0 = time.perf_counter()
        plain = workloads.run_round(spec, fx, seed=seed, workdir=workdir)
        secs = time.perf_counter() - t0
        check(plain)
        return secs

    # untraced rounds before and after the traced one, so that a slow spell
    # of the machine does not pass for tracing overhead
    before_s = untraced()
    tr = tracing.Tracer()
    cache = tracing.CountingCache(tr.counts)
    tr.install()
    try:
        t0 = time.perf_counter()
        traced = workloads.run_round(spec, fx, seed=seed, workdir=workdir, tracer=tr, cache=cache)
        traced_s = time.perf_counter() - t0
    finally:
        tr.uninstall()
    check(traced)
    plain_s = (before_s + untraced()) / 2

    m = tracing.per_layer_metrics(tr)
    m["trace_overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    path = os.path.join(OUT, f"trace-{spec.name}-seed{args.seed}.tsv")
    count = tr.write_spans(path)
    print(f"untraced rounds {plain_s:.3f} s (mean of two), traced round {traced_s:.3f} s; {count} spans -> {path}")
    for name, (value, unit) in m.items():
        print(f"{name:48s} {value:.6g} {unit}")
    return m


if __name__ == "__main__":
    sys.exit(main())
