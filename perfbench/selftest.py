"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks that

1. a traced pass and a pooled pass write byte-identical sweep output to
   an untraced serial pass (reduced trial counts);
2. a traced pass still finishes when a hooked name no longer exists,
   and reports the metrics that depend on it as missing;
3. the benchmark exits non-zero, printing no result, in a directory
   holding only ``BENCHMARK.json`` and ``perfbench/``.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import one_pass  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REDUCED_TRIALS = 2000


def check_outputs_identical(root: str, workdir: str) -> list[str]:
    problems = []
    for workload in ("shipped_sweeps", "consensus_rounds"):
        plan = workloads.make_plan(workload, workloads.SHIPPED_SEED, root,
                                   os.path.join(workdir, workload), trials=REDUCED_TRIALS)
        plan_path = os.path.join(workdir, f"{workload}.plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        digests = {}
        for mode in ("serial", "traced", "pool"):
            result = run._pass(plan_path, plan, mode, os.path.join(workdir, f"{workload}-{mode}"))
            if result.get("crashed"):
                problems.append(f"{workload} {mode} pass crashed: {result['failures']}")
                continue
            digests[mode] = result["digests"]
        for mode in ("traced", "pool"):
            if mode in digests and digests[mode] != digests.get("serial"):
                problems.append(f"{workload}: {mode} output differs from the serial output")
    return problems


def check_missing_hook(root: str, workdir: str) -> list[str]:
    one_pass._import_package(root)
    gone = "hyp2f1_removed"
    hooks = [dataclasses.replace(h, attr=gone) if h.span == "specfun.hyp2f1" else h
             for h in tracing.HOOKS]
    plan = workloads.make_plan("analytic_grid", workloads.SHIPPED_SEED, root, workdir)
    plan["calls"] = [c for c in plan["calls"] if c[2] > 0.0][:6]
    result = one_pass.run_pass(plan, "traced", time.monotonic(), workdir, hooks=hooks)
    layers = result["layers"]
    problems = []
    if f"raftguard.coverage.{gone}" not in result["missing_hooks"]:
        problems.append("the absent hook was not listed as missing")
    for metric in ("specfun.hyp2f1_calls", "specfun.hyp2f1_s"):
        if layers[metric] is not None:
            problems.append(f"{metric} reported {layers[metric]} for an absent hook")
    if layers["coverage.joint_calls"] != len(plan["calls"]) or result["failed"]:
        problems.append("the traced pass did not complete its calls")
    return problems


def check_bare_directory(root: str, workdir: str) -> list[str]:
    bare = os.path.join(workdir, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(command + ["--workload", "analytic_grid", "--seed", "1",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0 without a source checkout")
    if '"correct"' in proc.stdout:
        problems.append("printed a result without a source checkout")
    return problems


def main() -> int:
    root = os.getcwd()
    workdir = os.path.join(root, run.WORK_ROOT, "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    failed = False
    try:
        for check in (check_outputs_identical, check_missing_hook, check_bare_directory):
            sub = os.path.join(workdir, check.__name__)
            os.makedirs(sub)
            problems = check(root, sub)
            print(f"{'FAIL' if problems else 'ok'}  {check.__name__}")
            for problem in problems:
                print(f"      {problem}")
            failed |= bool(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
