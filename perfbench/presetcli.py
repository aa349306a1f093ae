"""The preset-cli workload: job list, reference outcomes and output oracle.

Standard library only, so the orchestrating process can check CLI output
without importing numpy or the package.
"""

import csv
import math
import os
import random

# (preset, command, exit code at the commit that defined this benchmark)
JOBS = (
    ("harmonic2d", "solve", 0),
    ("harmonic2d", "noether", 0),
    ("harmonic2d", "check", 3),
    ("oscillator", "solve", 0),
    ("oscillator", "noether", 0),
    ("oscillator", "check", 3),
    ("example2", "noether", 0),
    ("example2", "check", 0),
)

# relative_drift column of drift_summary.csv at n_sub = 200, in ascending
# alpha order, as the commit that defined this benchmark wrote it
REFERENCE_DRIFTS = {
    "harmonic2d": (1.3504918111871438, 1.5179107259616904e-05),
    "oscillator": (1.5018733538358291, 1.3324023880117617),
    "example2": (6.6101229833496813,),
}

# An operator or solver path that agrees with the dense one to ~1e-12
# moves the smallest reference drift (1.5e-5 = spread/mean) by ~1e-7
# relative; a wrong answer moves it by orders of magnitude.
DRIFT_RTOL = 1e-5


def job_order(seed):
    """The job list in a seed-determined order (the only seeded input of
    this workload: the presets fix the problems)."""
    order = list(JOBS)
    random.Random(seed).shuffle(order)
    return order


def read_preset(path):
    """``alphas`` (sorted, distinct) and ``n_sub`` of a preset file."""
    pairs = {}
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            key, sep, value = raw.split("#", 1)[0].partition("=")
            if sep:
                pairs[key.strip()] = value.strip()
    alphas = sorted({float(a) for a in pairs["alphas"].split(",") if a.strip()})
    return alphas, int(pairs["n_sub"])


def write_small_preset(src, dst, n_sub):
    """Copy a preset with its n_sub replaced (smoke mode)."""
    with open(src, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    out = [f"n_sub = {n_sub}" if ln.split("=")[0].strip() == "n_sub" else ln for ln in lines]
    with open(dst, "w", encoding="utf-8") as handle:
        handle.write("\n".join(out) + "\n")


def _tag(alpha):
    return format(float(alpha), "g")


def _rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        lines = [ln for ln in handle if not ln.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return header, list(reader)


def _number(field):
    value = float(field)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {field!r}")
    return value


def _node_file(path, n_nodes):
    """Node CSV: n_nodes rows, t always set, other fields finite or empty
    (empty marks a masked node)."""
    header, rows = _rows(path)
    if len(rows) != n_nodes:
        raise ValueError(f"{path}: {len(rows)} rows, expected {n_nodes}")
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path}: ragged row {row}")
        _number(row[0])
        for field in row[1:]:
            if field:
                _number(field)


def check_outputs(preset, command, exit_code, cfg_path, out_dir, compare_drifts):
    """Oracle for one CLI job.  Returns (accuracy, problems)."""
    expected = {(p, c): code for p, c, code in JOBS}[(preset, command)]
    problems = []
    accuracy = {"exit_code": exit_code}
    if exit_code != expected:
        problems.append(f"exit code {exit_code}, expected {expected}")
        return accuracy, problems
    alphas, n_sub = read_preset(cfg_path)
    try:
        if command == "solve":
            for a in alphas:
                for stem in ("solution", "residual"):
                    _node_file(os.path.join(out_dir, f"{stem}_alpha{_tag(a)}.csv"), n_sub + 1)
        elif command == "noether":
            for a in alphas:
                _node_file(os.path.join(out_dir, f"quantity_alpha{_tag(a)}.csv"), n_sub + 1)
            _, rows = _rows(os.path.join(out_dir, "drift_summary.csv"))
            if len(rows) != len(alphas):
                raise ValueError(f"drift_summary: {len(rows)} rows, expected {len(alphas)}")
            drifts = [_number(row[4]) for row in rows]
            accuracy["relative_drifts"] = drifts
            if compare_drifts:
                errors = [
                    abs(d - r) / abs(r) for d, r in zip(drifts, REFERENCE_DRIFTS[preset])
                ]
                accuracy["drift_rel_err_max"] = max(errors)
                if max(errors) > DRIFT_RTOL:
                    problems.append(
                        f"relative drifts {drifts} differ from the reference "
                        f"{REFERENCE_DRIFTS[preset]} by {max(errors):.3e} > {DRIFT_RTOL:g}"
                    )
        else:
            _, rows = _rows(os.path.join(out_dir, "checks.csv"))
            if len(rows) != 5:
                raise ValueError(f"checks.csv: {len(rows)} rows, expected 5")
            for row in rows:
                if row[1] not in ("true", "false"):
                    raise ValueError(f"checks.csv: passed field {row[1]!r}")
                _number(row[2])
            accuracy["checks_passed"] = [row[1] == "true" for row in rows]
    except (OSError, ValueError, IndexError, StopIteration) as exc:
        problems.append(str(exc))
    return accuracy, problems
