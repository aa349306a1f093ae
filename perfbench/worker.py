"""Child process of the benchmark: one workload's set-up, timed loop or
traced loop.

    python3 perfbench/worker.py {setup,measure,trace} --workload W --seed S
        --seconds T [--smoke]

Run from the root of a checkout with ``src`` on PYTHONPATH.  Protocol
lines on stdout start with ``PERFBENCH`` followed by one JSON object; the
``ready`` line marks the end of set-up, which the parent times from spawn.

Set-up is: interpreter start, ``import fracnoether``, input generation and
one warm-up job for the in-process workloads; for preset-cli it is the
cold import alone, the cost every CLI command pays.  Loops run whole
passes over the job list, one job at a time (closed loop, one client).
"""

import argparse
import ctypes
import glob
import itertools
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import presetcli

PREDICTIONS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "predictions.json")


def emit(kind, **payload):
    print("PERFBENCH " + json.dumps({"kind": kind, **payload}), flush=True)


def _blas_threads(numpy):
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes = []
                getter.restype = ctypes.c_int
                return getter()
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git (which
    would look outside the checkout); "unknown" outside a repository."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = os.path.join(".git", *ref.split("/"))
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy
    import scipy

    import fracnoether

    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "blas_threads": _blas_threads(numpy),
        "FRACNOETHER_THREADS": os.environ.get("FRACNOETHER_THREADS"),
        "backend": fracnoether.BACKEND,
        "nproc": os.cpu_count(),
    }


# -- job lists ----------------------------------------------------------------


def _preset_configs(smoke):
    """Preset path per name; smoke mode copies them with n_sub = 16."""
    configs = {}
    for preset in sorted({p for p, _, _ in presetcli.JOBS}):
        path = os.path.join("presets", f"{preset}.cfg")
        if smoke:
            os.makedirs(os.path.join(".perfbench", "smoke"), exist_ok=True)
            small = os.path.join(".perfbench", "smoke", f"{preset}.cfg")
            presetcli.write_small_preset(path, small, 16)
            path = small
        configs[preset] = path
    return configs


def _cli_job(preset, command, cfg, out_dir, smoke, run):
    """run(argv) -> (exit code, extra accuracy) executes the command."""

    def job():
        shutil.rmtree(out_dir, ignore_errors=True)  # no stale file can pass the oracle
        code, extra = run([command, "--config", cfg, "--out", out_dir])
        acc, problems = presetcli.check_outputs(
            preset, command, code, cfg, out_dir, compare_drifts=not smoke
        )
        acc.update(extra)
        return acc, problems

    return job


def preset_jobs(seed, smoke, in_process):
    configs = _preset_configs(smoke)
    label = "trace" if in_process else "cli"
    if in_process:
        import fracnoether.cli

        def run(argv):
            return fracnoether.cli.main(argv), {}

    else:

        def run(argv):
            child = subprocess.Popen(
                [sys.executable, "-m", "fracnoether.cli", *argv],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            return child.returncode, {"peak_rss_mb": usage.ru_maxrss / 1024.0}

    return [
        (
            f"{preset} {command}",
            _cli_job(preset, command, configs[preset], os.path.join(".perfbench", label, f"{preset}_{command}"), smoke, run),
        )
        for preset, command, _ in presetcli.job_order(seed)
    ]


# -- loops --------------------------------------------------------------------


def run_job(name, job):
    start = time.perf_counter()
    try:
        acc, problems = job()
    except Exception as exc:  # a failed job is counted, the run goes on
        acc, problems = {}, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, {"job": name, "accuracy": acc, "problems": problems}


def run_passes(jobs, seconds, runner=run_job):
    """Whole passes over the job list, as many as fit ``seconds`` best (at
    least one).  Returns (job seconds, records, loop wall)."""
    times, records = [], []
    start = time.perf_counter()
    passes = 0
    while True:
        for name, job in jobs:
            t, rec = runner(name, job)
            times.append(t)
            records.append(rec)
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / passes >= seconds:
            return times, records, elapsed


def traced(jobs, seconds, workload):
    """Alternate untraced and traced passes; reduce the traced ones to
    per-layer metrics and check span coverage against the predictions."""
    import tracer as tr

    tracer = tr.Tracer()
    job_ids = itertools.count()

    def traced_job(name, job):
        with tracer.job(next(job_ids)):
            return run_job(name, job)

    plain_t, traced_t, records = [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        t, r, _ = run_passes(jobs, 0.0)
        plain_t += t
        records += r
        tracer.install()
        try:
            t, r, _ = run_passes(jobs, 0.0, traced_job)
        finally:
            tracer.restore()
        traced_t += t
        records += r
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break

    n_traced = len(traced_t)
    cf = [
        rec["accuracy"]["closed_form_err"]
        for rec in records
        if "closed_form_err" in rec["accuracy"]
    ]
    metrics = tr.layer_metrics(tracer.spans, tracer.counters, n_traced, max(cf, default=0.0))
    metrics["trace.overhead_ratio"] = (
        (sum(traced_t) / n_traced) / (sum(plain_t) / len(plain_t)),
        "ratio",
    )
    calls = tr.span_calls(tracer.spans)
    with open(PREDICTIONS, encoding="utf-8") as handle:
        coverage = json.load(handle)["span_coverage"]
    coverage_problems = []
    for span, count in calls.items():
        expected = workload in coverage[span]
        if expected and count == 0:
            coverage_problems.append(f"span {span} predicted on {workload} but recorded no call")
        if not expected and count > 0:
            coverage_problems.append(f"span {span} predicted absent on {workload} but recorded {count}")
    return {
        "times": plain_t + traced_t,
        "records": records,
        "metrics": metrics,
        "span_calls": calls,
        "coverage_problems": coverage_problems,
        "traced_jobs": n_traced,
    }


# -- entry --------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    cli_workload = args.workload == "preset-cli"
    if not (cli_workload and args.mode == "measure"):
        import fracnoether  # noqa: F401  (the timed cold import)
    if cli_workload:
        if args.mode != "setup":
            # measure: CLI subprocesses do the work, this process imports nothing heavy
            jobs = preset_jobs(args.seed, args.smoke, in_process=args.mode == "trace")
    else:
        import jobs as job_defs

        jobs = job_defs.WORKLOADS[args.workload](args.seed, args.smoke)
        _, warmup = run_job(*jobs[0])
        if warmup["problems"]:
            emit("warmup_failed", record=warmup)
    emit("ready")
    if args.mode == "setup":
        return 0

    seconds = 0.0 if args.smoke else args.seconds  # zero: a single pass
    if args.mode == "measure":
        times, records, wall = run_passes(jobs, seconds)
        if cli_workload:
            rss = max(rec["accuracy"].get("peak_rss_mb", 0.0) for rec in records)
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        emit(
            "result",
            times=times,
            records=records,
            wall=wall,
            peak_rss_mb=rss,
            environment=environment(args.seed),
        )
    else:
        result = traced(jobs, seconds, args.workload)
        emit("trace", environment=environment(args.seed), **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
