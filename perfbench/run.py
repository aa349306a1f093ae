"""End-to-end and per-layer benchmark of fracnoether.

    python3 perfbench/run.py --workload preset-cli --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --seed 1 --smoke

Run from the root of a checkout; the package is imported from ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the full record
(environment, set-up samples, every job's accuracy values) is written to
``.perfbench/records/``.  ``--smoke`` uses tiny grids, one pass of each job
list and a single set-up sample.

This process only orchestrates: set-up samples, the timed loop and the
traced loop each run in a fresh ``worker.py`` child, and the process whose
peak RSS is reported is the one doing the work.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("preset-cli", "solve-sweep-3200", "analysis-3200")
# set-up samples per run (the median is reported); for the in-process
# workloads the timed child's own set-up is one of them
SETUP_SAMPLES = {"preset-cli": 7, "solve-sweep-3200": 3, "analysis-3200": 5}
IMPORT_SAMPLES = 3
# a run must end within 180 s; children past this are killed
DEADLINE_S = 170.0
IMPORT_NAMES = {"fracnoether": "import.fracnoether_s", "scipy.linalg": "import.scipy_linalg_s", "numpy": "import.numpy_s"}


class BenchError(RuntimeError):
    pass


def child_env():
    path = os.pathsep.join(filter(None, [os.path.abspath("src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def spawn(mode, args, deadline):
    """Run one worker child; returns (seconds from spawn to its ready line,
    protocol messages by kind)."""
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready, messages = None, {}
    try:
        for line in iter(proc.stdout.readline, ""):
            if line.startswith("PERFBENCH "):
                message = json.loads(line[len("PERFBENCH "):])
                if message["kind"] == "ready":
                    ready = time.perf_counter() - start
                messages[message["kind"]] = message
            else:
                sys.stderr.write(line)
    finally:
        proc.stdout.close()
        code = proc.wait()
        timer.cancel()
    if code != 0 or ready is None:
        raise BenchError(f"worker {mode} for {args.workload} exited with {code}")
    return ready, messages


def import_times(deadline):
    """Cumulative -X importtime seconds of fracnoether and its two heavy
    dependencies in a fresh interpreter."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import fracnoether"]
    remaining = max(1.0, deadline - time.monotonic())
    out = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), timeout=remaining)
    if out.returncode != 0:
        raise BenchError(f"import fracnoether failed: {out.stderr[-500:]}")
    found = {}
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() in IMPORT_NAMES:
            found[IMPORT_NAMES[parts[2].strip()]] = int(parts[1]) * 1e-6
    if len(found) != len(IMPORT_NAMES):
        raise BenchError(f"importtime lines missing: {sorted(set(IMPORT_NAMES.values()) - set(found))}")
    return found


def tail(times):
    """The highest percentile with at least ten jobs beyond it (nearest
    rank), as (value, percentile); below eleven jobs, the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100
    rank = n - 10
    return ordered[rank - 1], math.floor(100 * rank / n)


def failures(records):
    return [rec for rec in records if rec["problems"]]


def run_untraced(args, deadline):
    samples = []
    own = 0 if args.workload == "preset-cli" else 1
    for _ in range((1 if args.smoke else SETUP_SAMPLES[args.workload]) - own):
        ready, _ = spawn("setup", args, deadline)
        samples.append(ready)
    ready, messages = spawn("measure", args, deadline)
    if own:
        samples.append(ready)
    result = messages["result"]
    times, records = result["times"], result["records"]
    failed = failures(records)
    tail_value, percentile = tail(times)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_tail": (tail_value, "s"),
        "jobs_per_s": (len(times) / result["wall"], "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "success_ratio": (1.0 - len(failed) / len(times), "ratio"),
    }
    record = {
        "environment": result["environment"],
        "setup_samples_s": samples,
        "job_s": times,
        "tail_percentile": percentile,
        "job_count": len(times),
        "loop_wall_s": result["wall"],
        "error_ratio": len(failed) / len(times),
        "warmup_failure": messages.get("warmup_failed"),
        "jobs": records,
    }
    correct = not failed and "warmup_failed" not in messages
    return correct, len(times), len(failed), metrics, record


def run_traced(args, deadline):
    imports = [import_times(deadline) for _ in range(1 if args.smoke else IMPORT_SAMPLES)]
    _, messages = spawn("trace", args, deadline)
    trace = messages["trace"]
    metrics = {name: tuple(value) for name, value in trace["metrics"].items()}
    for name in IMPORT_NAMES.values():
        metrics[name] = (statistics.median(sample[name] for sample in imports), "s")
    records = trace["records"]
    failed = failures(records)
    record = {
        "environment": trace["environment"],
        "import_samples_s": imports,
        "traced_jobs": trace["traced_jobs"],
        "span_calls": trace["span_calls"],
        "coverage_problems": trace["coverage_problems"],
        "warmup_failure": messages.get("warmup_failed"),
        "jobs": records,
    }
    correct = not failed and not trace["coverage_problems"] and "warmup_failed" not in messages
    for problem in trace["coverage_problems"]:
        print(f"coverage: {problem}", file=sys.stderr)
    return correct, len(trace["times"]), len(failed), metrics, record


def run_one(args):
    deadline = time.monotonic() + DEADLINE_S
    runner = run_traced if args.trace else run_untraced
    correct, attempted, failed, metrics, record = runner(args, deadline)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, smoke=args.smoke, correct=correct,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    os.makedirs(os.path.join(".perfbench", "records"), exist_ok=True)
    path = os.path.join(".perfbench", "records",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    for rec in failures(record["jobs"]):
        print(f"failed job {rec['job']}: {'; '.join(rec['problems'])}", file=sys.stderr)
    print(f"record: {path}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/fracnoether/__init__.py", "presets") if not os.path.exists(p)]
    if missing:
        print(f"not the root of a fracnoether checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            print(json.dumps(run_one(args)))
            return 0
        results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                one = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
                results[f"{workload} trace={trace}"] = run_one(one)
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
