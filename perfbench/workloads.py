"""The four workloads: inputs made from a seed, the calls, the output checks.

Each workload is a sequence of operations.  An operation is one sweep
point (``shipped_sweeps``, ``auth_large_m``, run through
``raftguard.cli.evaluate``) or one library call (``analytic_grid``,
``consensus_rounds``).  ``make_plan`` writes the generated inputs once
per benchmark run; every pass process then loads them with ``setup``,
times ``run`` and scores the results with ``check``.

Every check reuses a tolerance the acceptance gates already pin:

* coverage points: |analytic - MC| <= 0.02 (gate 2);
* auth and ROC columns: within 3 binomial standard errors of the closed
  form, the standard error taken from the closed-form rate (gates 5, 6);
* ``analytic_grid``: within 1e-8 (gate 1) of stored ``method="quadrature"``
  reference values;
* ``consensus_rounds``: within 4 combined 95 % half-widths of stored
  reference estimates.

The Monte Carlo seeds of the two CLI workloads stay pinned at the
shipped ``master_seed``.  Their 3-standard-error checks then give the
same verdict on every run, as the gates' frozen seeds do, and the
output digests can be compared with the recorded set on every run.  The
workload seed orders the configs there, orders the grid calls, and is
the Monte Carlo seed of ``consensus_rounds``, whose 4-half-width check
holds at any seed.
"""

from __future__ import annotations

import glob
import hashlib
import json
import math
import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from multiprocessing import get_context

WORKLOADS = ("shipped_sweeps", "analytic_grid", "auth_large_m", "consensus_rounds")
CLI_WORKLOADS = ("shipped_sweeps", "auth_large_m")
SHIPPED_SEED = 20260816
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

COVERAGE_TOL = 0.02      # gate 2
BINOMIAL_SE = 3.0        # gates 5 and 6
ORACLE_TOL = 1e-8        # gate 1
CONSENSUS_CIS = 4.0
# Monte Carlo estimates inside this window enter mc_vartime, so that a
# change of interval at p in {0, 1} cannot move it.
MC_WINDOW = (0.01, 0.99)

GRID_ALPHAS = (2.5, 3.0, 4.0)
GRID_BETAS_DB = tuple(float(b) for b in range(-30, 1, 2))
GRID_ANNULI = ((0.0, 300.0), (20.0, 70.0), (100.0, 150.0), (250.0, 300.0))
CONSENSUS_RHO_J_MULTIPLES = (1.0, 2.0, 4.0)
CONSENSUS_BETA_DB = -20.0
CONSENSUS_TRIALS = 100_000
LARGE_M = {"m": 1000, "n_eves": 20}
LARGE_M_TRIALS = 10_000


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def grid_key(alpha, beta_db, inner, outer) -> str:
    return f"{alpha:g},{beta_db:g},{inner:g},{outer:g}"


def load_reference(name: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------------ plans


def _write_config(workdir: str, name: str, body: dict) -> str:
    body = dict(body, output={"path": os.path.join(workdir, "out", f"{name}.csv"),
                              "format": "csv"})
    path = os.path.join(workdir, "configs", f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2)
        fh.write("\n")
    return path


def _sweep_points(body: dict) -> int:
    sweep = body["sweep"]
    return int(math.floor((sweep["stop"] - sweep["start"]) / sweep["step"] + 1e-9)) + 1


def make_plan(workload: str, seed: int, root: str, workdir: str, trials: int | None = None) -> dict:
    """Generate the workload's inputs under ``workdir``.

    ``trials`` replaces every trial count (self-tests only); digests are
    compared with the recorded set only at the pinned counts.
    """
    rng = random.Random(seed)
    plan = {"workload": workload, "seed": seed, "root": root, "workdir": workdir,
            "trials": trials}
    if workload in CLI_WORKLOADS:
        os.makedirs(os.path.join(workdir, "configs"), exist_ok=True)
        shipped = sorted(glob.glob(os.path.join(root, "configs", "*.json")))
        if workload == "shipped_sweeps":
            sources = [(os.path.basename(p)[:-5], p) for p in shipped]
            rng.shuffle(sources)
        else:
            sources = [("auth_large_m", os.path.join(root, "configs", "auth_errors_vs_lq.json"))]
        configs = []
        for name, path in sources:
            with open(path, encoding="utf-8") as fh:
                body = json.load(fh)
            if workload == "auth_large_m":
                body["auth"].update(LARGE_M)
                body["n_trials"] = LARGE_M_TRIALS
            if trials is not None:
                body["n_trials"] = trials
            # a large m models acceptance by the claimant's own window
            # only, so p_fa is reported as a gap and not gated there
            gate = ["p_md", "p_mc"] if workload == "auth_large_m" else ["p_fa", "p_md", "p_mc"]
            configs.append({"name": name, "path": _write_config(workdir, name, body),
                            "points": _sweep_points(body), "gate": gate})
        if not configs:
            raise FileNotFoundError(f"no shipped configs under {root}/configs")
        plan["configs"] = configs
    elif workload == "analytic_grid":
        calls = [[a, b, lo, hi] for a in GRID_ALPHAS for (lo, hi) in GRID_ANNULI
                 for b in GRID_BETAS_DB]
        rng.shuffle(calls)
        plan["calls"] = calls
    elif workload == "consensus_rounds":
        multiples = list(CONSENSUS_RHO_J_MULTIPLES)
        rng.shuffle(multiples)
        plan["calls"] = [[m, seed] for m in multiples]
        plan["n_trials"] = trials or CONSENSUS_TRIALS
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return plan


def operation_count(plan: dict) -> int:
    if "configs" in plan:
        return sum(c["points"] for c in plan["configs"])
    return len(plan["calls"])


# ------------------------------------------------------------- library calls


def grid_params(alpha, beta_db, inner, outer):
    from raftguard.channel import NetworkParams
    from raftguard.geometry import AnnulusRegion

    return replace(NetworkParams(), alpha=alpha, beta_dl_db=beta_db, beta_ul_db=beta_db,
                   annulus=AnnulusRegion(inner, outer))


def consensus_config(multiple, master_seed, n_trials):
    from raftguard.channel import NetworkParams
    from raftguard.montecarlo import TrialConfig

    base = NetworkParams()
    params = replace(base, beta_dl_db=CONSENSUS_BETA_DB, beta_ul_db=CONSENSUS_BETA_DB,
                     rho_j=base.rho_j * multiple)
    return TrialConfig(params=params, n_trials=n_trials, master_seed=master_seed)


def _guarded(fn, arg):
    try:
        return True, fn(arg)
    except Exception as exc:  # one failed operation must not end the pass
        return False, f"{type(exc).__name__}: {exc}"


def _pool_grid(params):
    from raftguard.coverage import coverage_joint

    return _guarded(coverage_joint, params)


def _pool_consensus(config):
    from raftguard.montecarlo import simulate_consensus

    return _guarded(simulate_consensus, config)


# ------------------------------------------------------------------ passes


class Api:
    """The package entry points a pass calls, traced when a tracer is given."""

    def __init__(self, tracer=None):
        from raftguard import cli, coverage, montecarlo

        if tracer is None:
            self.evaluate = cli.evaluate
            self.load_config = cli.load_config
            self.coverage_joint = coverage.coverage_joint
            self.simulate_consensus = montecarlo.simulate_consensus
        else:
            for name in ("evaluate", "load_config", "coverage_joint", "simulate_consensus"):
                setattr(self, name, tracer.entry(name))


def setup(plan: dict, api: Api, out_dir: str):
    """Load the generated inputs; everything a pass does before its first call."""
    if "configs" in plan:
        return [(c, api.load_config(c["path"],
                                    {"output_path": os.path.join(out_dir, f"{c['name']}.csv")}))
                for c in plan["configs"]]
    if plan["workload"] == "analytic_grid":
        return [grid_params(*call) for call in plan["calls"]]
    return [consensus_config(m, s, plan["n_trials"]) for m, s in plan["calls"]]


def run(plan: dict, state, api: Api, mode: str, tracer=None) -> list:
    """Time-critical part of a pass: one ``(ok, result)`` per call."""
    if "configs" in plan:
        return _run_cli(state, api, mode, tracer)
    if plan["workload"] == "analytic_grid":
        fn, pooled, label = api.coverage_joint, _pool_grid, "grid"
    else:
        fn, pooled, label = api.simulate_consensus, _pool_consensus, "consensus"
    if mode == "pool":
        with ProcessPoolExecutor(max_workers=pool_workers(plan),
                                 mp_context=get_context("spawn")) as pool:
            return list(pool.map(pooled, state))
    out = []
    for i, arg in enumerate(state):
        if tracer:
            tracer.begin_op(f"{label}#{i}")
        out.append(_guarded(fn, arg))
    return out


def _run_cli(state, api: Api, mode: str, tracer) -> list:
    from raftguard import cli

    out = []
    for meta, config in state:
        # the pooled pass sizes the pool itself; RAFTGUARD_WORKERS is
        # passed through unclamped by the CLI
        workers = min(nproc(), meta["points"]) if mode == "pool" else 1
        os.environ["RAFTGUARD_WORKERS"] = str(workers)
        if tracer:
            tracer.begin_op(meta["name"])
        ok, rows = _guarded(api.evaluate, config)
        if ok:
            cli.write_rows(config.output_path, cli.columns_for(config.scenario), rows,
                           config.output_format)
        out.append((ok, rows))
    return out


def pool_workers(plan: dict) -> int:
    if "configs" in plan:
        return max(min(nproc(), c["points"]) for c in plan["configs"])
    return min(nproc(), len(plan["calls"]))


# ------------------------------------------------------------------ checks


def _within_se(closed: float, simulated: float, n: int) -> bool:
    se = math.sqrt(closed * (1.0 - closed) / n)
    if se == 0.0:
        return simulated == closed
    return abs(simulated - closed) <= BINOMIAL_SE * se


def _in_window(*ps) -> bool:
    return all(MC_WINDOW[0] <= p <= MC_WINDOW[1] for p in ps)


def _fail(report: dict, message: str, operations: int = 1) -> None:
    report["failures"].append(message)
    report["failed"] += operations


def _check_rows(config, gate, rows, report) -> None:
    n = config.n_trials
    for i, row in enumerate(rows):
        where = f"{config.scenario} point {i} ({config.sweep.variable}={config.sweep.values()[i]:g})"
        bad = []
        if config.scenario == "auth_errors_vs_lq":
            for col in gate:
                if not _within_se(row[f"{col}_cf"], row[f"{col}_mc"], n):
                    bad.append(col)
            gap = abs(row["p_fa_cf"] - row["p_fa_mc"])
            if gap > report["p_fa_gap_max"]:
                report["p_fa_gap_max"] = gap
                report["p_fa_gap_at"] = f"lq_db={row['lq_db']:g}"
        elif config.scenario == "roc":
            if not _within_se(row["p_d_cf"], row["p_d_mc"], n):
                bad.append("p_d")
        else:
            for col in ("p_dl", "p_ul", "p_joint"):
                if not abs(row[f"{col}_analytic"] - row[f"{col}_mc"]) <= COVERAGE_TOL:
                    bad.append(col)
            if _in_window(row["p_dl_mc"], row["p_ul_mc"], row["p_joint_mc"]):
                report["halfwidths"].append(row["ci_halfwidth"])
        if bad:
            _fail(report, f"{where}: {', '.join(bad)} outside the gate tolerance")


def check(plan: dict, state, outcomes: list) -> dict:
    """Score a pass: failed operations, Monte Carlo half-widths, the p_fa
    gap, and SHA-256 digests of the outputs."""
    report = {"attempted": operation_count(plan), "failures": [], "failed": 0,
              "halfwidths": [], "p_fa_gap_max": 0.0, "p_fa_gap_at": None, "digests": {}}
    if "configs" in plan:
        for (meta, config), (ok, rows) in zip(state, outcomes):
            if not ok:
                _fail(report, f"{meta['name']}: {rows}", meta["points"])
                continue
            _check_rows(config, meta["gate"], rows, report)
            if len(rows) != meta["points"]:
                _fail(report, f"{meta['name']}: {len(rows)} rows, expected {meta['points']}",
                      abs(meta["points"] - len(rows)))
            with open(config.output_path, "rb") as fh:
                report["digests"][meta["name"]] = hashlib.sha256(fh.read()).hexdigest()
    elif plan["workload"] == "analytic_grid":
        reference = load_reference("analytic_grid.json")
        values = []
        for call, (ok, res) in zip(plan["calls"], outcomes):
            if not ok:
                _fail(report, f"grid {call}: {res}")
                continue
            values.append([res.p_dl, res.p_ul, res.p_joint])
            ref = reference[grid_key(*call)]
            if max(abs(a - b) for a, b in zip(values[-1], ref)) > ORACLE_TOL:
                _fail(report, f"grid {call}: off the quadrature reference")
        report["digests"]["analytic_grid"] = _digest(values)
    else:
        reference = load_reference("consensus.json")
        values = []
        for (multiple, _seed), (ok, res) in zip(plan["calls"], outcomes):
            if not ok:
                _fail(report, f"consensus rho_j x{multiple:g}: {res}")
                continue
            values.append([res.p_consensus, res.ci_halfwidth, res.mean_followers,
                           res.mean_successes])
            ref = reference[f"{multiple:g}"]
            allowed = CONSENSUS_CIS * math.hypot(res.ci_halfwidth, ref["ci_halfwidth"])
            if abs(res.p_consensus - ref["p_consensus"]) > allowed:
                _fail(report, f"consensus rho_j x{multiple:g}: "
                              f"{res.p_consensus} vs reference {ref['p_consensus']}")
            if _in_window(res.p_consensus):
                report["halfwidths"].append(res.ci_halfwidth)
        report["digests"]["consensus_rounds"] = _digest(values)
    report["failed"] = min(report["failed"], report["attempted"])
    return report


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def digest_changes(plan: dict, digests: dict) -> list[str] | None:
    """Names whose output digest differs from the recorded set, or None
    when no recorded set applies (a non-pinned trial count or seed)."""
    if plan["trials"] is not None or plan["workload"] not in CLI_WORKLOADS:
        return None
    recorded = load_reference("digests.json")
    return sorted(name for name, d in digests.items() if recorded.get(name) != d)
