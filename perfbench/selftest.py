"""Self-test of the benchmark: runs every workload in smoke mode and checks
that it honours BENCHMARK.json.

    python3 perfbench/selftest.py

From the root of a checkout.  Checks that BENCHMARK.json keeps the limits
of its format; that predictions.json names every per-layer metric and
every traced span; that each smoke run prints, as its last line, a correct
result whose metrics are exactly the declared ones with the declared units;
and that the command fails, printing no result, in a directory holding only
BENCHMARK.json and the benchmark's files.  Exits 1 on the first failed
group of checks.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def check_spec(spec):
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    command = spec["command"]
    if not (1 <= len(command) <= 32 and all(isinstance(c, str) and len(c) <= 200 for c in command)):
        problems.append("command: at most 32 strings of at most 200 characters")
    if any(c.startswith("/") or ".." in c.split("/") for c in command):
        problems.append("command: no absolute path and no '..'")
    if not 1 <= len(spec["paths"]) <= 16 or not all(PATH.fullmatch(p) for p in spec["paths"]):
        problems.append("paths: 1 to 16 relative directories")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds: a whole number from 1 to 60")
    names = []
    for key, lo, hi, fields in (
        ("workloads", 2, 8, {"name", "why"}),
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    ):
        entries = spec[key]
        if not lo <= len(entries) <= hi:
            problems.append(f"{key}: {len(entries)} entries, expected {lo} to {hi}")
        for entry in entries:
            names.append(entry["name"])
            if set(entry) != fields:
                problems.append(f"{key} {entry['name']}: keys {sorted(entry)}")
            if not NAME.fullmatch(entry["name"]):
                problems.append(f"{key}: bad name {entry['name']!r}")
            if "unit" in entry and not UNIT.fullmatch(entry["unit"]):
                problems.append(f"{entry['name']}: bad unit {entry['unit']!r}")
            if "better" in entry and entry["better"] not in ("higher", "lower"):
                problems.append(f"{entry['name']}: better must be higher or lower")
            if "why" in entry and (len(entry["why"]) > 200 or "\n" in entry["why"]):
                problems.append(f"{entry['name']}: why must be one line of at most 200 characters")
            if "bound" in entry and not 0 < entry["bound"] <= 0.25:
                problems.append(f"{entry['name']}: bound must lie in (0, 0.25]")
    if len(names) != len(set(names)):
        problems.append("names must be unique")
    bounds = {e["name"]: e for e in spec["end_to_end"]}
    setup = bounds.get("setup_s")
    if not (setup and setup["unit"] == "s" and setup["better"] == "lower"):
        problems.append("setup_s must be an end-to-end metric in s, lower better")
    elif setup["bound"] < max(e["bound"] for e in spec["end_to_end"]):
        problems.append("setup_s must have the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    return problems


def check_predictions(spec, predictions):
    sys.path.insert(0, os.path.abspath("src"))
    import tracer

    problems = []
    per_layer = {e["name"] for e in spec["per_layer"]}
    predicted = [m for layer in predictions["layers"] for m in layer["metrics"]]
    if sorted(predicted) != sorted(per_layer):
        problems.append(
            "predictions.json layers and BENCHMARK.json per_layer differ: "
            f"{sorted(set(predicted) ^ per_layer)}"
        )
    if set(predictions["span_coverage"]) != set(tracer.SPAN_NAMES):
        problems.append(
            f"span_coverage keys differ from the traced spans: "
            f"{sorted(set(predictions['span_coverage']) ^ set(tracer.SPAN_NAMES))}"
        )
    workloads = {w["name"] for w in spec["workloads"]}
    used = {w for ws in predictions["span_coverage"].values() for w in ws}
    used |= {w for layer in predictions["layers"] for key in ("moves", "unchanged")
             for item in layer[key] for w in item["workloads"]}
    if not used <= workloads:
        problems.append(f"unknown workloads in predictions.json: {sorted(used - workloads)}")
    return problems


def run(cmd, cwd="."):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_smoke(spec):
    problems = []
    declared = {
        0: {e["name"]: e["unit"] for e in spec["end_to_end"]},
        1: {e["name"]: e["unit"] for e in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = run(spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                         "--trace", str(trace), "--smoke"])
            label = f"{workload} trace={trace}"
            if out.returncode != 0:
                problems.append(f"{label}: exit {out.returncode}: {out.stderr[-800:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: not correct: {out.stderr[-800:]}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                diff = sorted(set(got.items()) ^ set(declared[trace].items()))
                problems.append(f"{label}: metrics differ from BENCHMARK.json: {diff}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{label}: non-numeric metric value")
    return problems


def check_bare_directory(spec):
    bare = os.path.join(".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path), ignore=shutil.ignore_patterns("__pycache__"))
    out = run(spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                                 "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    last = out.stdout.strip().splitlines()[-1:] or [""]
    if out.returncode == 0 or last[0].startswith("{"):
        return [f"bare directory: exit {out.returncode}, last line {last[0]!r}"]
    return []


def main():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as handle:
        predictions = json.load(handle)
    for name, check in (
        ("BENCHMARK.json format", lambda: check_spec(spec)),
        ("predictions", lambda: check_predictions(spec, predictions)),
        ("smoke runs", lambda: check_smoke(spec)),
        ("bare directory", lambda: check_bare_directory(spec)),
    ):
        problems = check()
        print(f"{name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        if problems:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
