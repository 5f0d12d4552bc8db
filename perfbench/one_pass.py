"""One pass over a workload, in a fresh process.

    python3 perfbench/one_pass.py --plan PLAN.json --mode serial|pool|traced \
        --t0 MONOTONIC --out-dir DIR [--trace-out SPANS.json]

``--t0`` is the ``time.monotonic()`` reading the parent took just
before starting this process, so ``setup_s`` runs from process start
to the first workload call.  The result is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def _import_package(root: str):
    """Import raftguard from the checkout's ``src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import raftguard

    if not os.path.abspath(raftguard.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"raftguard resolved to {raftguard.__file__}, not under {src}")
    return raftguard


def run_pass(plan: dict, mode: str, t0: float, out_dir: str, trace_out: str | None = None,
             hooks=None) -> dict:
    import tracing
    import workloads

    tracer = None
    if mode == "traced":
        tracer = tracing.Tracer(hooks if hooks is not None else tracing.HOOKS)
        tracer.install()
    try:
        api = workloads.Api(tracer)
        os.makedirs(out_dir, exist_ok=True)
        state = workloads.setup(plan, api, out_dir)
        setup_s = time.monotonic() - t0
        recorder = tracing.record_warnings() if tracer else contextlib.nullcontext([])
        with recorder as caught:
            start = time.perf_counter()
            outcomes = workloads.run(plan, state, api, mode, tracer)
            run_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report = workloads.check(plan, state, outcomes)
        result = {"mode": mode, "setup_s": setup_s, "run_s": run_s,
                  "peak_rss_mb": peak_rss_mb, "workers": 1, **report}
        if mode == "pool":
            result["workers"] = workloads.pool_workers(plan)
        if tracer:
            result["layers"] = tracer.metrics(caught)
            result["missing_hooks"] = tracer.missing
            if trace_out:
                tracer.write(trace_out)
        return result
    finally:
        if tracer:
            tracer.uninstall()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--plan", required=True)
    p.add_argument("--mode", choices=("serial", "pool", "traced"), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--trace-out")
    args = p.parse_args(argv)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    try:
        _import_package(plan["root"])
    except ImportError as exc:
        print(f"one_pass: cannot import the package: {exc}", file=sys.stderr)
        return 2
    result = run_pass(plan, args.mode, args.t0, args.out_dir, args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
