"""One pass of one workload, in a fresh interpreter.

run.py starts this script once per pass from the root of a checkout, so
every lru_cache in the library starts cold, as it does for a CLI user.
The last line of standard output is the pass's result as JSON.  Exit code
3 means the pass could not be set up at all (no program to import, a bad
argument, an error in the benchmark itself).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import traceback

from passes import Pass, Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_FAILED = 3


def environment() -> dict:
    import mpmath
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    with Sampler() as sampler:
        return run_pass(sampler, argv)


def run_pass(sampler, argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where a traced pass writes its spans (.npz)")
    args = ap.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "arbocoh", "__init__.py")):
        print(f"no arbocoh sources under {src}", file=sys.stderr)
        return SETUP_FAILED
    sys.path.insert(0, src)
    try:
        import arbocoh

        if os.path.dirname(os.path.abspath(arbocoh.__file__)) != os.path.join(src, "arbocoh"):
            raise ImportError(f"arbocoh imported from {arbocoh.__file__}, not from {src}")
        from tracer import Tracer
        from workloads import RUNNERS

        runner = RUNNERS[args.workload]
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    except (ImportError, KeyError, OSError, ValueError):
        traceback.print_exc()
        return SETUP_FAILED

    tracer = Tracer().install() if args.trace else None
    p = Pass(reference, sampler)
    try:
        runner(p, args.seed, args.pass_index)
    except Exception:  # a fault of the benchmark, not of an operation
        traceback.print_exc()
        return SETUP_FAILED
    if p.setup_at is None:
        print("workload never finished set-up", file=sys.stderr)
        return SETUP_FAILED
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if tracer is not None:
        tracer.remove()
        layers = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    result = {
        "traced": bool(args.trace),
        "setup_s": p.setup_at - args.spawned_at - p.setup_spent,
        "setup_speed": p.setup_speed,
        "attempted": p.attempted,
        "timed": p.timed,
        "failures": p.failures,
        "peak_rss_mb": rss_mb,
        "layers": layers,
        "environment": environment(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
