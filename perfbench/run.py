"""raftguard benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload shipped_sweeps [--seed N]
        [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
its ``src`` directory.  Every pass runs in a fresh process as one
closed-loop caller with one call in flight.  With ``--trace 0`` the run
alternates serial and pooled passes for ``--seconds`` seconds and
reports medians of the end-to-end metrics.  With ``--trace 1`` it adds
a traced serial pass to each round and reports the per-module metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

PASS_TIMEOUT_S = 150
WORK_ROOT = ".perfbench"

# An untraced run makes at least two rounds, so every median has two
# samples or more.
MIN_ROUNDS = {0: 2, 1: 1}


def _pass(plan_path: str, plan: dict, mode: str, out_dir: str, trace_out=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), "--plan", plan_path,
           "--mode", mode, "--out-dir", out_dir]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = dict(os.environ, PYTHONPATH=os.path.join(plan["root"], "src"))
    env.pop("RAFTGUARD_WORKERS", None)
    t0 = time.monotonic()
    # its own process group, so a pass that hangs is stopped with its pool
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        stdout, stderr = "", f"pass timed out after {PASS_TIMEOUT_S} s"
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        attempted = workloads.operation_count(plan)
        return {"mode": mode, "crashed": True, "attempted": attempted, "failed": attempted,
                "failures": [f"{mode} pass exited {proc.returncode}: {stderr.strip()[-2000:]}"]}
    return json.loads(lines[-1])


def _median(results, key):
    values = [r[key] for r in results if key in r]
    return statistics.median(values) if values else None


def _mc_vartime(run_s, halfwidths):
    # run_s times the mean squared 95 % half-width: cutting trials leaves
    # it about unchanged, a variance reduction lowers it
    if not halfwidths or run_s is None:
        return 0.0
    return run_s * sum(h * h for h in halfwidths) / len(halfwidths)


def measure(workload: str, seed: int, seconds: float, trace: int, root: str) -> dict:
    workdir = os.path.join(root, WORK_ROOT, f"work-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        plan = workloads.make_plan(workload, seed, root, workdir)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        modes = ["serial", "pool"] + (["traced"] if trace else [])
        trace_out = os.path.join(root, WORK_ROOT, f"trace-{workload}.json")
        passes = []
        start = time.monotonic()
        rounds = 0
        while True:
            for mode in modes if rounds % 2 == 0 else modes[::-1]:
                out_dir = os.path.join(workdir, f"out-{len(passes)}")
                passes.append(_pass(plan_path, plan, mode, out_dir,
                                    trace_out if mode == "traced" else None))
            rounds += 1
            elapsed = time.monotonic() - start
            # stop when another round would end further past --seconds
            # than the run now falls short of it
            if rounds >= MIN_ROUNDS[trace] and elapsed * (1.0 + 0.5 / rounds) >= seconds:
                break
        return _summarise(plan, passes, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _summarise(plan: dict, passes: list, trace: int) -> dict:
    ok = [p for p in passes if not p.get("crashed")]
    serial = [p for p in ok if p["mode"] == "serial"]
    pooled = [p for p in ok if p["mode"] == "pool"]
    traced = [p for p in ok if p["mode"] == "traced"]
    failures = [f for p in passes for f in p["failures"]]
    failed = sum(p["failed"] for p in passes)
    # every pass, traced or not, must write the same output bytes
    for p in ok[1:]:
        if p["digests"] != ok[0]["digests"]:
            failures.append(f"{p['mode']} pass wrote other output bytes than the "
                            f"{ok[0]['mode']} pass")
            failed += p["attempted"] - p["failed"]
    attempted = sum(p["attempted"] for p in passes)

    run_s = _median(serial, "run_s")
    pool_run_s = _median(pooled, "run_s")
    workers = pooled[0]["workers"] if pooled else None
    e2e = {
        "setup_s": _median(serial + pooled, "setup_s"),
        "run_s": run_s,
        "pool_run_s": pool_run_s,
        "peak_rss_mb": _median(serial, "peak_rss_mb"),
    }
    summary = {
        "plan": plan, "passes": passes, "failures": failures,
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and bool(serial) and bool(pooled) and (bool(traced) or not trace),
        "e2e": e2e, "workers": workers,
        "mc_vartime": _mc_vartime(run_s, serial[0]["halfwidths"]) if serial else None,
        "p_fa_gap_max": ok[0]["p_fa_gap_max"] if ok else None,
        "p_fa_gap_at": ok[0]["p_fa_gap_at"] if ok else None,
        "digests": ok[0]["digests"] if ok else {},
        "digest_changes": workloads.digest_changes(plan, ok[0]["digests"]) if ok else None,
    }
    if traced:
        layers = {}
        for key in traced[0]["layers"]:
            values = [t["layers"][key] for t in traced]
            if None in values:
                layers[key] = None
            else:
                # counts repeat exactly and stay whole numbers
                layers[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
        layers["cli.pool_efficiency"] = (run_s / (workers * pool_run_s)
                                         if run_s and pool_run_s else None)
        layers["auth.p_fa_gap_max"] = summary["p_fa_gap_max"]
        layers["mc_vartime"] = summary["mc_vartime"]
        traced_run_s = _median(traced, "run_s")
        layers["trace_overhead_frac"] = traced_run_s / run_s - 1.0 if run_s else None
        summary["layers"] = layers
        summary["missing_hooks"] = traced[0]["missing_hooks"]
    return summary


def _units(root: str, section: str) -> dict:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _print_report(workload: str, seed: int, s: dict, trace: int, units: dict) -> None:
    counts = {}
    for p in s["passes"]:
        counts[p["mode"]] = counts.get(p["mode"], 0) + 1
    print(f"workload {workload}  seed {seed}  passes "
          + ", ".join(f"{n} {m}" for m, n in sorted(counts.items()))
          + f"  pool workers {s['workers']}")
    for name, value in s["e2e"].items():
        print(f"  {name:<22} {_fmt(value)} {units[name]}")
    for mode in ("serial", "pool", "traced"):
        samples = [_fmt(p["run_s"]) for p in s["passes"] if p["mode"] == mode and "run_s" in p]
        if samples:
            print(f"    {mode} pass run_s samples: {', '.join(samples)}")
    if s["mc_vartime"]:
        print(f"  {'mc_vartime':<22} {_fmt(s['mc_vartime'])} s")
    frac = s["failed"] / s["attempted"] if s["attempted"] else 1.0
    print(f"  {'failed_frac':<22} {_fmt(frac)} ratio ({s['failed']} of {s['attempted']} operations)")
    if workload == "auth_large_m" and s["p_fa_gap_at"]:
        print(f"  note: p_fa not gated: 2Q(eps/sigma) is the claimant's own window, the "
              f"simulation accepts on the nearest of m fingerprints; largest gap "
              f"{s['p_fa_gap_max']:.4f} at {s['p_fa_gap_at']}")
    changes = s["digest_changes"]
    if changes is not None:
        verdict = ("all match the recorded set" if not changes
                   else "CHANGED from the recorded set: " + ", ".join(changes))
        print(f"  output digests: {verdict}")
        for name, digest in sorted(s["digests"].items()):
            print(f"    {digest}  {name}")
    if trace and "layers" in s:
        for name, value in s["layers"].items():
            shown = "missing" if value is None else _fmt(value)
            print(f"  {name:<34} {shown} {units[name]}")
        if s["missing_hooks"]:
            print("  hooks not installed (name no longer exists): "
                  + ", ".join(s["missing_hooks"]))
    for failure in s["failures"][:20]:
        print(f"  FAILED: {failure}")


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="raftguard benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.SHIPPED_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    missing = [path for path in ("src/raftguard/__init__.py", "configs")
               if not os.path.exists(os.path.join(root, path))]
    if missing:
        print(f"run.py: not a raftguard source checkout ({', '.join(missing)} missing "
              f"under {root})", file=sys.stderr)
        return 2

    units = _units(root, "end_to_end") | _units(root, "per_layer")
    s = measure(args.workload, args.seed, args.seconds, args.trace, root)
    _print_report(args.workload, args.seed, s, args.trace, units)
    values = s.get("layers", {}) if args.trace else s["e2e"]
    section = _units(root, "per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in section.items()}
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
