"""Regenerate the benchmark's stored reference data.

    python3 perfbench/make_reference.py

Run from the root of a source checkout.  Writes, under
``perfbench/reference/``:

* ``analytic_grid.json``: every grid call evaluated once with
  ``method="quadrature"``, the gate-1 oracle;
* ``consensus.json``: the three consensus estimates at the shipped
  seed, with their 95 % half-widths;
* ``digests.json``: SHA-256 of each CLI output at the pinned seeds and
  trial counts, the recorded set later runs are compared with.

Rewriting ``digests.json`` accepts new output bytes; a change that does
so says why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import one_pass  # noqa: E402
import workloads  # noqa: E402


def _dump(name: str, doc: dict) -> None:
    with open(os.path.join(workloads.REFERENCE_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    root = os.getcwd()
    one_pass._import_package(root)
    from raftguard.coverage import coverage_joint
    from raftguard.montecarlo import simulate_consensus

    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    seed = workloads.SHIPPED_SEED
    workdir = os.path.join(root, ".perfbench", "reference-work")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        grid = workloads.make_plan("analytic_grid", seed, root, workdir)
        _dump("analytic_grid.json", {
            workloads.grid_key(*call): [r.p_dl, r.p_ul, r.p_joint]
            for call in grid["calls"]
            for r in [coverage_joint(workloads.grid_params(*call), method="quadrature")]
        })

        plan = workloads.make_plan("consensus_rounds", seed, root, workdir)
        _dump("consensus.json", {
            f"{m:g}": {"p_consensus": out.p_consensus, "ci_halfwidth": out.ci_halfwidth}
            for m, s in plan["calls"]
            for out in [simulate_consensus(workloads.consensus_config(m, s, plan["n_trials"]))]
        })

        digests = {}
        for workload in workloads.CLI_WORKLOADS:
            plan = workloads.make_plan(workload, seed, root, workdir)
            result = one_pass.run_pass(plan, "serial", time.monotonic(),
                                       os.path.join(workdir, workload))
            if result["failed"]:
                print("\n".join(result["failures"]), file=sys.stderr)
                return 1
            digests.update(result["digests"])
        _dump("digests.json", digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
