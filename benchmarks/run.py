"""Benchmark of shouldersim: one command, every metric by name and unit, outputs checked.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload {sweep,cli_run,sysid} --seed N \
        --seconds S --trace {0,1}

The package is imported from ``src/`` of the same checkout; nothing is
built or installed. Workloads, metrics and bounds are declared in
``BENCHMARK.json`` at the root; ``workloads.py`` generates the inputs from
the seed and checks every output.

With ``--trace 0`` the run prints the end-to-end metrics, measured with
tracing off:

* ``setup_s``: median over several fresh interpreters of the time from
  process start to the first timed operation (``import shouldersim``,
  input generation, scenario load). The workload itself runs in this one
  process and thread.
* ``joint_ticks_per_s``: simulated joint-ticks of one pass over the inputs
  per host second (sysid: samples of the two full-record simulations),
  with each operation timed by its median latency.
* ``run_p50_s`` / ``run_p90_s``: latency of one operation (a run_scenario
  call, a ``shouldersim run`` call, an identified record).
* ``records_per_s``: operations of one pass per host second, timed the
  same way.
* ``peak_rss_mb``: peak resident memory of the process.
* ``rmse_mean_rad`` / ``fit_min_pct``: simulated statistics, bit-for-bit
  repeatable for a seed, that stop a speed change from silently changing
  what is computed: tracking error and worst tracking fit (sweep over the
  bundled catalog, cli_run over the seeded scenario), output error and
  worst fit of the identified model (sysid).

With ``--trace 1`` half the time runs untraced and half traced; the run
prints per-layer calls, self time and errors per pass over the inputs, the
tracing overhead, and a cross-check of per-call cost against the figures
ROADMAP.md quotes. Spans are written to ``benchmarks/results/``.

Failed operations are counted in ``failed`` of the last line; the
benchmark's result is correct only when none failed. The last line of
standard output is one JSON object with keys correct, attempted, failed and
metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7

# Per-call cost ROADMAP.md, Open item 1 quotes for an untraced 1000 s
# two-joint run (2 x 15,386 ticks).
ROADMAP_1000S_ROWS = 2 * 15386
ROADMAP_US_PER_CALL = {
    "trajectory.quintic_eval": 7.0,
    "gpi.control_step": 4.7,
    "plant.step": 3.5,
}
ROADMAP_EXPORT_CSV_1000S_MS = 151.0
GAP = 0.25  # ratios outside [1/(1+GAP), 1+GAP] exceed process-to-process noise


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep", "cli_run", "sysid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--setup-probe", type=int, metavar="NS", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _isolate():
    """One BLAS thread, and the package from this checkout's src/ only."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (SRC / "shouldersim" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'shouldersim'}")
    sys.path.insert(0, str(SRC))


def _make_workload(args, work_dir):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, work_dir, tiny=args.tiny)


def _probe_argv(args, spawn_ns):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe", str(spawn_ns)]
    return argv + (["--tiny"] if args.tiny else [])


def measure_setup(args, repeats):
    """Median process-start-to-ready time over fresh interpreters run one at a time."""
    samples = []
    for _ in range(repeats):
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run(_probe_argv(args, spawn_ns), capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(int(proc.stdout.split()[-1]) / 1e9)
    return statistics.median(samples), samples


def _work_dir():
    path = BENCH_DIR / ".work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def _remove(work_dir):
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        work_dir.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def run_passes(wl, seconds, tracer=None):
    """Run whole passes over the inputs until `seconds` have passed.

    Times each operation alone; its check runs outside the timed region.
    Returns every latency by operation, plus the operations attempted and
    failed.
    """
    lat = [[] for _ in range(wl.n_ops)]
    attempted = failed = passes = 0
    end = time.perf_counter() + seconds
    while True:
        for i in range(wl.n_ops):
            if tracer is not None:
                tracer.op_id = attempted
            attempted += 1
            try:
                t0 = time.perf_counter()
                out = wl.run(i)
                dt = time.perf_counter() - t0
                wl.check(i, out)
            except Exception:
                failed += 1
                print(f"operation {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            lat[i].append(dt)
        passes += 1
        if (time.perf_counter() >= end and passes >= wl.min_passes
                and attempted >= wl.min_ops):
            return {"lat": lat, "passes": passes, "attempted": attempted, "failed": failed}


def typical_pass_s(res):
    """Sum over operations of each one's median latency.

    On a shared host whose speed drifts by tens of percent within seconds,
    this is steadier than the median of whole-pass times. Operations that
    never succeeded are left out; their failures are counted.
    """
    medians = [statistics.median(x) for x in res["lat"] if x]
    if not medians:
        raise RuntimeError("every operation failed")
    return sum(medians)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def environment(args):
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "shouldersim").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json", ".csv"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def end_to_end(wl, res, setup_s):
    stats = wl.stats()
    pass_s = typical_pass_s(res)
    ok = [i for i, x in enumerate(res["lat"]) if x]
    lat = [dt for x in res["lat"] for dt in x]
    metrics = {
        "setup_s": (setup_s, "s"),
        "joint_ticks_per_s": (sum(wl.ticks[i] for i in ok) / pass_s, "1/s"),
        "run_p50_s": (statistics.median(lat), "s"),
        "run_p90_s": (percentile(lat, 90), "s"),
        "records_per_s": (len(ok) / pass_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "rmse_mean_rad": (stats["rmse_mean_rad"], "rad"),
        "fit_min_pct": (stats["fit_min_pct"], "%"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def per_layer(wl, tracer, untraced, traced):
    from tracing import BYTE_LAYERS, LAYERS

    passes = traced["passes"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.calls[layer] / passes, "count")
        metrics[f"{layer}.self_s"] = (tracer.self_ns[layer] / 1e9 / passes, "s")
        metrics[f"{layer}.errors"] = (tracer.errors[layer] / passes, "count")
    for layer in BYTE_LAYERS:
        metrics[f"{layer}.bytes"] = (tracer.nbytes[layer] / passes, "bytes")
    metrics["harness.run_scenario.sat_tick_frac"] = (wl.stats()["sat_tick_frac"], "frac")
    traced_pass = typical_pass_s(traced)
    untraced_pass = typical_pass_s(untraced)
    metrics["trace.overhead_s"] = (traced_pass - untraced_pass, "s")
    metrics["trace.overhead_frac"] = (traced_pass / untraced_pass - 1.0, "frac")
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def cross_check(wl, tracer):
    """Traced self time per call next to ROADMAP.md's untraced figures."""
    rows = []

    def row(layer, traced, roadmap, unit):
        ratio = traced / roadmap
        rows.append({"layer": layer, "unit": unit, "traced": traced, "roadmap": roadmap,
                     "ratio": ratio, "gap": not 1.0 / (1.0 + GAP) <= ratio <= 1.0 + GAP})

    for layer, roadmap in ROADMAP_US_PER_CALL.items():
        if tracer.calls[layer]:
            row(layer, tracer.self_ns[layer] / tracer.calls[layer] / 1e3, roadmap, "us/call")
    layer = "harness.export_csv"
    if tracer.calls[layer]:
        per_row_ms = tracer.self_ns[layer] / tracer.calls[layer] / 1e6 / wl.ticks[0]
        row(layer, per_row_ms * ROADMAP_1000S_ROWS, ROADMAP_EXPORT_CSV_1000S_MS,
            "ms per 1000 s run")
    return rows


def _write_json(path, payload):
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n")
    os.replace(tmp, path)


def main(argv=None):
    args = parse_args(argv)
    if args.seconds < 0:
        raise SystemExit("error: --seconds must be >= 0")
    _isolate()
    sys.path.insert(0, str(BENCH_DIR))

    if args.setup_probe is not None:
        work_dir = _work_dir()
        try:
            _make_workload(args, work_dir)
            print(time.monotonic_ns() - args.setup_probe)
        finally:
            _remove(work_dir)
        return 0

    setup_s, setup_samples = (None, [])
    if args.trace == 0:
        setup_s, setup_samples = measure_setup(args, 2 if args.tiny else SETUP_REPEATS)

    work_dir = _work_dir()
    try:
        wl = _make_workload(args, work_dir)
        wl.prepare()
        env = environment(args)
        print("env " + json.dumps(env))
        report = {"env": env, "why": wl.why}
        if args.trace == 0:
            res = run_passes(wl, args.seconds)
            metrics = end_to_end(wl, res, setup_s)
            report["setup_samples_s"] = setup_samples
            report["latency_s_by_op"] = res["lat"]
        else:
            from tracing import Tracer

            untraced = run_passes(wl, args.seconds / 2)
            run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}"
            with Tracer(run_id) as tracer:
                traced = run_passes(wl, args.seconds / 2, tracer)
            res = {key: untraced[key] + traced[key] for key in ("attempted", "failed")}
            metrics = per_layer(wl, tracer, untraced, traced)
            checks = cross_check(wl, tracer)
            for c in checks:
                print(f"crosscheck {c['layer']}: traced {c['traced']:.3f} {c['unit']}, "
                      f"ROADMAP ~{c['roadmap']:g}, ratio {c['ratio']:.2f}"
                      + ("  GAP beyond noise" if c["gap"] else ""))
            RESULTS.mkdir(exist_ok=True)
            spans_path = tracer.write_spans(RESULTS / f"{args.workload}-spans.csv.gz")
            report.update(run_id=run_id, crosscheck=checks,
                          spans_kept=len(tracer.spans), spans_total=tracer.spans_seen,
                          spans_file=spans_path.relative_to(ROOT).as_posix(),
                          passes_traced=traced["passes"], passes_untraced=untraced["passes"])
    finally:
        _remove(work_dir)

    failed = res["failed"]
    attempted = res["attempted"]
    print(f"summary {args.workload}: {attempted} operations, {failed} failed, "
          f"failed_frac {failed / attempted:g}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report["result"] = result
    RESULTS.mkdir(exist_ok=True)
    _write_json(RESULTS / f"{args.workload}-trace{args.trace}.json", report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
