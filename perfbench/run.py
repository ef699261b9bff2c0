"""arbocoh benchmark: run one workload for a fixed time and report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalog-spectrum --seed 1 --seconds 25 --trace 0

Each pass over the workload's fixed inputs runs in a fresh interpreter
(perfbench/worker.py), one after another, until the next pass would end
after --seconds.  All load comes from that one worker process at a time;
BLAS is pinned to one thread.  Every answer is checked against
perfbench/reference.json.

Times are reported in reference seconds: each wall-clock time is scaled by
the speed of the machine around it, measured with a fixed probe kernel
(passes.Sampler), because the machine's speed can change twofold from one
moment to the next.  The unscaled wall-clock figures are printed too.

--trace 0 reports the end-to-end metrics, from untraced passes.  --trace 1
alternates traced and untraced passes and reports the per-layer metrics of
the traced ones, plus trace.overhead_s, the traced minus the untraced
wall_s.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Every failed operation (one that raised, exited non-zero or gave an answer
that differs from the reference) and every crashed pass counts in
"failed" and in error_rate, printed above the result.  Each makes
"correct" false, except the one known library failure (KNOWN_FAILURE at
KNOWN_FAILING_VERIFY_SEEDS).  Failed operations are not timed, except
that known failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import metric_names  # noqa: E402

WORKLOADS = ("catalog-spectrum", "large-group", "shapes-catalog", "verify-suites")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}
# The one failure allowed with "correct" true: `arbocoh --seed S verify
# reps` raises InsufficientDepth in the library at these seeds, all of
# 0..399 (a defect left for the library to fix).  Other seeds were not
# scanned; a failure at one of them makes "correct" false.
KNOWN_FAILURE = ("verify reps", "InsufficientDepth")
KNOWN_FAILING_VERIFY_SEEDS = (
    1, 7, 39, 59, 61, 147, 154, 167, 168, 171, 186, 247, 336, 344, 351, 389, 397,
)
SPANS_DIR = os.path.join(".bench_out", "spans")
HARD_LIMIT_S = 170.0  # a run ends within 180 s even when a pass hangs
MIN_UNTRACED_PASSES = 2  # even when one pass takes half of --seconds
# Timings are reported in reference seconds: wall-clock seconds scaled by
# PROBE_REFERENCE_S over the probe time measured around them (see
# passes.Sampler).  The probe kernel takes about this long on a 2.0 GHz
# Xeon vCPU when no other tenant slows the machine.
PROBE_REFERENCE_S = 0.0006


def per_layer_units() -> dict:
    units = {}
    for name in metric_names() + ["trace.overhead_s"]:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio") or name.endswith("_per_shape"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return units


def child_env(seed: int, pass_index: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # string hashing (set order) is part of the pass's inputs
    env["PYTHONHASHSEED"] = str(zlib.crc32(f"{seed}:{pass_index}".encode()))
    # the program comes from src/ with its default configuration
    for var in ("PYTHONPATH", "ARBOCOH_CONFIG"):
        env.pop(var, None)
    return env


def git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


class SetupFailed(Exception):
    """The run cannot produce a result: a worker could not set up, or no
    pass of a needed kind completed."""


def run_pass(args, pass_index: int, traced: bool, timeout: float) -> dict:
    """One worker process; returns its result, or a stand-in recording one
    failed operation when the worker crashed or timed out."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--pass-index", str(pass_index),
        "--trace", str(int(traced)),
    ]
    if traced:
        os.makedirs(SPANS_DIR, exist_ok=True)
        # one file per workload and pass index: later runs overwrite earlier ones
        cmd += ["--spans", os.path.join(SPANS_DIR, f"{args.workload}-pass{pass_index}.npz")]
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    env = child_env(args.seed, pass_index)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        problem = f"pass {pass_index} timed out after {timeout:.0f} s"
        return {"traced": traced, "elapsed": time.monotonic() - spawned, "crashed": problem, "timed_out": True}
    elapsed = time.monotonic() - spawned
    if proc.returncode == 3:
        raise SetupFailed(proc.stderr.strip())
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        tail = (proc.stderr.strip().splitlines() or [""])[-1]
        problem = f"pass {pass_index} exited {proc.returncode}: {tail}"
        return {"traced": traced, "elapsed": elapsed, "crashed": problem}
    result["elapsed"] = elapsed
    return result


def run_passes(args) -> list:
    """Untraced passes, alternating with traced ones under --trace 1, until
    the next pass of that kind would end after --seconds.  At least
    MIN_UNTRACED_PASSES untraced passes and one traced pass always run."""
    start = time.monotonic()
    deadline = start + args.seconds
    passes = []
    while True:
        n_traced = sum(p["traced"] for p in passes)
        n_plain = len(passes) - n_traced
        traced = bool(args.trace) and 1 <= n_plain and n_traced < n_plain
        now = time.monotonic()
        if now - start > HARD_LIMIT_S / 2:
            break
        if n_plain >= MIN_UNTRACED_PASSES and (n_traced or not args.trace):
            same = [p["elapsed"] for p in passes if p["traced"] == traced]
            if now + statistics.median(same or [0.0]) > deadline:
                break
        timeout = max(5.0, HARD_LIMIT_S - (now - start))
        passes.append(run_pass(args, len(passes), traced, timeout))
        if passes[-1].get("timed_out"):
            break
    return passes


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def op_times(p, scale: bool = True) -> dict:
    """A pass's timed operations, label -> seconds; with ``scale``,
    in reference seconds: each wall-clock time times PROBE_REFERENCE_S
    over the mean probe time measured around it."""
    times = {}
    for label, seconds, probe in p["timed"]:
        if label in times:
            raise SetupFailed(f"operation label {label!r} is not unique within a pass")
        times[label] = seconds * PROBE_REFERENCE_S / probe if scale else seconds
    return times


def scaled_setup(p) -> float:
    return p["setup_s"] * PROBE_REFERENCE_S / p["setup_speed"]


def pass_speed(p) -> float:
    """Mean probe time over a pass's operations, weighted by their time."""
    return sum(d * v for _label, d, v in p["timed"]) / sum(d for _label, d, _v in p["timed"])


def check_same_operations(passes):
    """Every pass (label -> seconds) must have timed the same operations;
    they differ when an operation failed in some passes only."""
    labels = set(passes[0])
    for ops in passes[1:]:
        if set(ops) != labels:
            differ = sorted(labels ^ set(ops))[:5]
            raise SetupFailed(f"passes timed different operations, for example {differ}")


def pass_seconds(passes) -> float:
    """Seconds for one full pass: the sum over the operations of each
    operation's median time across the passes (label -> seconds each)."""
    return sum(statistics.median(ops[label] for ops in passes) for label in passes[0])


def is_known_failure(failure, seed: int) -> bool:
    label, _kind, error, _message = failure
    return (label, error) == KNOWN_FAILURE and seed in KNOWN_FAILING_VERIFY_SEEDS


def summarize(args, passes):
    ok = [p for p in passes if "crashed" not in p]
    plain = [p for p in ok if not p["traced"]]
    traced = [p for p in ok if p["traced"]]
    crashes = [p["crashed"] for p in passes if "crashed" in p]
    if not plain or (args.trace and not traced):
        raise SetupFailed(f"no pass of the needed kind completed: {'; '.join(crashes)}")
    failures = [f for p in ok for f in p["failures"]]
    unexpected = [f for f in failures if not is_known_failure(f, args.seed)]
    for p in ok:
        # Failed operations are not timed, except the known failure: it
        # raises in the suite's last check, after nearly all of its work.
        drop = {f[0] for f in p["failures"] if not is_known_failure(f, args.seed)}
        p["timed"] = [t for t in p["timed"] if t[0] not in drop]
    if any(not p["timed"] for p in ok):
        raise SetupFailed(f"a pass had no successful operation: {failures[:3]}")

    times = [op_times(p) for p in plain]
    traced_times = [op_times(p) for p in traced]
    check_same_operations(times + traced_times)
    durations = [d for ops in times for d in ops.values()]
    wall = pass_seconds(times)
    e2e = {
        "setup_s": statistics.median(scaled_setup(p) for p in plain),
        "wall_s": wall,
        "op_p50_s": quantile(durations, 0.5),
        "op_p90_s": quantile(durations, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "wall_s": pass_seconds([op_times(p, scale=False) for p in plain]),
        "probe_s": statistics.median(pass_speed(p) for p in plain),
    }
    layers = {}
    if traced:
        for name in metric_names():
            values = []
            for p in traced:
                v = p["layers"][name]
                if name.endswith("_s"):
                    v *= PROBE_REFERENCE_S / pass_speed(p)
                values.append(v)
            layers[name] = statistics.median(values)
        layers["trace.overhead_s"] = pass_seconds(traced_times) - wall
    info = {
        "plain": plain,
        "traced": traced,
        "durations": durations,
        "failures": failures,
        "crashes": crashes,
        "attempted": sum(p["attempted"] for p in ok) + len(crashes),
        "failed": len(failures) + len(crashes),
        "correct": not crashes and not unexpected,
        "raw": raw,
    }
    return e2e, layers, info


def report(args, e2e, layers, info) -> dict:
    env = dict(info["plain"][0]["environment"])
    env.update(
        {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "seed": args.seed,
            "workload": args.workload,
            "seconds": args.seconds,
        }
    )
    print(f"# environment {json.dumps(env)}")
    n = len(info["durations"])
    p90 = e2e["op_p90_s"]
    beyond = sum(d > p90 for d in info["durations"])
    print(
        f"# passes: {len(info['plain'])} untraced, {len(info['traced'])} traced; "
        f"operations: {info['attempted']} attempted, {info['failed']} failed, "
        f"error_rate {info['failed'] / info['attempted']:.4f}"
    )
    walls = " ".join(f"{sum(op_times(p, scale=False).values()):.3f}" for p in info["plain"])
    print(f"# untraced passes, wall-clock seconds in operations: {walls}")
    raw = info["raw"]
    print(
        f"# wall clock, not scaled: setup_s {raw['setup_s']:.6f} wall_s {raw['wall_s']:.6f}; "
        f"median probe {raw['probe_s'] * 1e3:.4f} ms (reference {PROBE_REFERENCE_S * 1e3:g} ms)"
    )
    note = "" if beyond >= 10 else "  (fewer than 10 samples beyond it)"
    print(f"# ops (latency samples, untraced passes): {n}; beyond op_p90_s: {beyond}{note}")
    for failure in info["failures"][:10]:
        label, kind, _error, msg = failure
        known = " (known library failure)" if is_known_failure(failure, args.seed) else ""
        print(f"# failed [{kind}] {label}: {msg[:200]}{known}")
    for msg in info["crashes"]:
        print(f"# failed [crash] {msg}")
    if args.workload == "verify-suites":
        print(f"# known: verify reps raises InsufficientDepth at seeds {KNOWN_FAILING_VERIFY_SEEDS}")
    if args.trace:
        for k, v in e2e.items():
            print(f"# untraced {k} {v:.6f} {END_TO_END[k]}")
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    for k, m in metrics.items():
        print(f"{k:48s} {m['value']:>16.6f} {m['unit']}")
    return {
        "correct": info["correct"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "arbocoh", "__init__.py")):
        print("run from the root of an arbocoh checkout (src/arbocoh not found)", file=sys.stderr)
        return 2
    try:
        e2e, layers, info = summarize(args, run_passes(args))
    except SetupFailed as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report(args, e2e, layers, info)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
