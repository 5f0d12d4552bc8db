"""Experiment runner: parameter sweeps with analytic and Monte Carlo
columns side by side.

Every scenario sweeps one variable, evaluates each point analytically
and by simulation, and writes one row per point in sweep order.  Points
are evaluated concurrently, but seeds are derived per point from the
master seed, so output files are byte-identical for a given config and
seed no matter how many workers run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from raftguard.auth import (
    AuthProfile,
    lq_db_to_sigma,
    p_fa_closed_form,
    p_md_closed_form,
    p_mc_closed_form,
    roc_curve,
    sample_fingerprints,
    threshold_for_pfa,
)
from raftguard.channel import NetworkParams
from raftguard.coverage import coverage_joint
from raftguard.geometry import AnnulusRegion, DiskRegion
from raftguard.montecarlo import TrialConfig, estimate_coverage, simulate_auth

__all__ = [
    "ExperimentConfig", "SweepSpec", "AuthSettings", "ConfigError", "PointFailure", "main",
]

SCHEMA_VERSION = 1

COVERAGE_COLUMNS = [
    "sweep_var", "sweep_value",
    "p_dl_analytic", "p_ul_analytic", "p_joint_analytic",
    "p_dl_mc", "p_ul_mc", "p_joint_mc",
    "ci_halfwidth", "abs_gap",
]
AUTH_COLUMNS = [
    "lq_db", "epsilon",
    "p_fa_cf", "p_fa_mc", "p_md_cf", "p_md_mc", "p_mc_cf", "p_mc_mc",
]
ROC_COLUMNS = ["p_fa", "epsilon", "p_d_cf", "p_d_mc"]

_PARAM_KEYS = {
    "p_leader_dbm", "p_follower_dbm", "p_jammer_dbm",
    "alpha", "beta_dl_db", "beta_ul_db",
    "rho_t", "rho_j",
    "disk_radius_m", "annulus_inner_m", "annulus_outer_m",
}
_AUTH_KEYS = {"m", "n_eves", "profile_seed", "epsilon_db", "lq_db"}


class PointFailure(Exception):
    """A numeric failure while evaluating one sweep point."""

    def __init__(self, index: int, value: float, message: str):
        super().__init__(index, value, message)
        self.index = index
        self.value = value
        self.message = message


class ConfigError(Exception):
    """Config parse or validation failure; carries one diagnostic per
    offending key, each anchored to a config file line when the key can
    be located in the raw text."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    step: float

    def values(self) -> list[float]:
        # inclusive endpoint with a half-step guard against float drift
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + i * self.step for i in range(count)]


@dataclass(frozen=True)
class AuthSettings:
    m: int
    n_eves: int
    profile_seed: int
    epsilon_db: float
    lq_db: float


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    params: NetworkParams
    sweep: SweepSpec
    n_trials: int
    master_seed: int
    output_path: str
    output_format: str
    auth: AuthSettings | None = None


# ------------------------------------------------------------- validation


class _Collector:
    """Accumulates key-path-anchored diagnostics against the raw text."""

    def __init__(self, raw: str):
        self.raw_lines = raw.splitlines()
        self.errors: list[str] = []

    def add(self, path: str, message: str) -> None:
        line = self._line_of(path.split(".")[-1])
        anchor = f"line {line}: " if line else ""
        self.errors.append(f"{anchor}{path}: {message}")

    def _line_of(self, key: str):
        needle = f'"{key}"'
        for i, line in enumerate(self.raw_lines, 1):
            if needle in line:
                return i
        return None

    def raise_if_any(self) -> None:
        if self.errors:
            raise ConfigError(self.errors)


def _number(data, key, path, errors, *, required=True, default=None):
    if key not in data:
        if required:
            errors.add(path, "missing required key")
        return default
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        errors.add(path, f"expected a number, got {type(v).__name__}")
        return default
    return float(v)


def _integer(data, key, path, errors, *, required=True, default=None, minimum=None):
    if key not in data:
        if required:
            errors.add(path, "missing required key")
        return default
    v = data[key]
    if isinstance(v, bool) or not isinstance(v, int):
        errors.add(path, f"expected an integer, got {type(v).__name__}")
        return default
    if minimum is not None and v < minimum:
        errors.add(path, f"must be >= {minimum}, got {v}")
        return default
    return v


def _build_params(data, errors) -> NetworkParams | None:
    raw = data.get("params", {})
    if not isinstance(raw, dict):
        errors.add("params", "expected an object")
        return None
    n_before = len(errors.errors)
    for key in raw:
        if key not in _PARAM_KEYS:
            errors.add(f"params.{key}", "unknown parameter key")
    kwargs = {}
    for key in ("p_leader_dbm", "p_follower_dbm", "p_jammer_dbm",
                "alpha", "beta_dl_db", "beta_ul_db", "rho_t", "rho_j"):
        if key in raw:
            v = _number(raw, key, f"params.{key}", errors, required=False)
            if v is not None:
                kwargs[key] = v
    disk_r = _number(raw, "disk_radius_m", "params.disk_radius_m", errors, required=False)
    inner = _number(raw, "annulus_inner_m", "params.annulus_inner_m", errors, required=False)
    outer = _number(raw, "annulus_outer_m", "params.annulus_outer_m", errors, required=False)
    if len(errors.errors) > n_before:
        return None
    try:
        if disk_r is not None:
            kwargs["disk"] = DiskRegion(disk_r)
        if inner is not None or outer is not None:
            base = NetworkParams().annulus
            a_in = inner if inner is not None else base.inner
            a_out = outer if outer is not None else base.outer
            try:
                kwargs["annulus"] = AnnulusRegion(a_in, a_out)
            except ValueError as exc:
                errors.add("params.annulus_inner_m", f"invalid annulus: {exc}")
                return None
        return NetworkParams(**kwargs)
    except ValueError as exc:
        errors.add("params", str(exc))
        return None


def _build_auth(data, errors, required) -> AuthSettings | None:
    raw = data.get("auth")
    if raw is None:
        if required:
            errors.add("auth", "this scenario requires an auth block")
        return None
    if not isinstance(raw, dict):
        errors.add("auth", "expected an object")
        return None
    for key in raw:
        if key not in _AUTH_KEYS:
            errors.add(f"auth.{key}", "unknown auth key")
    m = _integer(raw, "m", "auth.m", errors, minimum=1)
    n_eves = _integer(raw, "n_eves", "auth.n_eves", errors, minimum=1)
    seed = _integer(raw, "profile_seed", "auth.profile_seed", errors, minimum=0)
    eps = _number(raw, "epsilon_db", "auth.epsilon_db", errors, required=False, default=1.0)
    lq = _number(raw, "lq_db", "auth.lq_db", errors, required=False, default=10.0)
    if None in (m, n_eves, seed) or eps is None or lq is None:
        return None
    if eps < 0.0:
        errors.add("auth.epsilon_db", f"must be >= 0, got {eps}")
        return None
    return AuthSettings(m=m, n_eves=n_eves, profile_seed=seed, epsilon_db=eps, lq_db=lq)


def build_config(data: dict, raw_text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Validate a parsed config dict (plus CLI overrides) into an
    ExperimentConfig, raising ConfigError with every problem found."""
    errors = _Collector(raw_text)
    overrides = overrides or {}
    known_top = {"scenario", "sweep", "n_trials", "master_seed", "output", "params", "auth"}
    for key in data:
        if key not in known_top:
            errors.add(key, "unknown top-level key")

    # a CLI override is validated in place of the file's value, under the flag's name
    src, path = (overrides, "--scenario") if "scenario" in overrides else (data, "scenario")
    scenario = src.get("scenario")
    if scenario is None:
        errors.add(path, "missing required key")
    elif not isinstance(scenario, str) or scenario not in SCENARIOS:
        errors.add(path, f"unknown scenario {scenario!r}; "
                   f"expected one of {sorted(SCENARIOS)}")
        scenario = None
    spec = SCENARIOS.get(scenario)

    sweep = None
    raw_sweep = data.get("sweep")
    if not isinstance(raw_sweep, dict):
        errors.add("sweep", "missing or malformed sweep object")
    else:
        var = raw_sweep.get("variable")
        start = _number(raw_sweep, "start", "sweep.start", errors)
        stop = _number(raw_sweep, "stop", "sweep.stop", errors)
        step = _number(raw_sweep, "step", "sweep.step", errors)
        if not isinstance(var, str):
            errors.add("sweep.variable", "missing sweep variable name")
        elif spec and var != spec.variable:
            errors.add("sweep.variable",
                       f"scenario {scenario} sweeps {spec.variable!r}, got {var!r}")
        if None not in (start, stop, step) and isinstance(var, str):
            if step <= 0.0:
                errors.add("sweep.step", f"must be > 0, got {step}")
            elif start > stop:
                errors.add("sweep.start", f"start {start} exceeds stop {stop}")
            else:
                sweep = SweepSpec(variable=var, start=start, stop=stop, step=step)
    domain_error = spec.domain_error(sweep) if sweep and spec else None
    if domain_error:
        errors.add("sweep.start", domain_error)

    src, path = (overrides, "--trials") if "n_trials" in overrides else (data, "n_trials")
    n_trials = _integer(src, "n_trials", path, errors, minimum=1)
    src, path = (overrides, "--seed") if "master_seed" in overrides else (data, "master_seed")
    master_seed = _integer(src, "master_seed", path, errors, minimum=0)

    out = data.get("output", {})
    if not isinstance(out, dict):
        errors.add("output", "expected an object")
        out = {}
    out_path = overrides.get("output_path", out.get("path"))
    out_format = overrides.get("output_format", out.get("format", "csv"))
    if not isinstance(out_path, str) or not out_path:
        errors.add("output.path", "missing output path")
    if out_format not in ("csv", "json"):
        errors.add("output.format", f"expected 'csv' or 'json', got {out_format!r}")

    params = _build_params(data, errors)
    auth = _build_auth(data, errors, required=spec is not None and spec.needs_auth)

    errors.raise_if_any()
    return ExperimentConfig(
        scenario=scenario, params=params, sweep=sweep,
        n_trials=n_trials, master_seed=master_seed,
        output_path=out_path, output_format=out_format, auth=auth,
    )


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_text = fh.read()
    except OSError as exc:
        raise ConfigError([f"{path}: {exc.strerror or exc}"])
    try:
        data = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"line {exc.lineno}: invalid JSON: {exc.msg}"])
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a JSON object"])
    return build_config(data, raw_text, overrides)


# ------------------------------------------------------------- evaluation


def _derive_seed(master_seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def _profile_arrays(config: ExperimentConfig):
    a = config.auth
    rng = np.random.default_rng(a.profile_seed)
    return sample_fingerprints(a.m, a.n_eves, config.params.disk, config.params.alpha, rng)


def _beta_point(p: NetworkParams, value: float) -> NetworkParams:
    return replace(p, beta_dl_db=value, beta_ul_db=value)


def _jam_area_point(p: NetworkParams, value: float) -> NetworkParams:
    if value <= p.annulus.inner:
        # the jamming band is empty at this sweep point
        return replace(p, rho_j=0.0)
    return replace(p, annulus=AnnulusRegion(p.annulus.inner, value))


def _jam_distance_point(p: NetworkParams, value: float) -> NetworkParams:
    return replace(p, annulus=AnnulusRegion(value, value + 50.0))


def _coverage_row(config: ExperimentConfig, index: int, value: float) -> dict:
    var = config.sweep.variable
    point = SCENARIOS[config.scenario].point(config.params, value)
    ana = coverage_joint(point)
    mc = estimate_coverage(TrialConfig(point, config.n_trials, _derive_seed(config.master_seed, index)))
    gaps = (abs(ana.p_dl - mc.p_dl), abs(ana.p_ul - mc.p_ul), abs(ana.p_joint - mc.p_joint))
    return {
        "sweep_var": var,
        "sweep_value": value,
        "p_dl_analytic": ana.p_dl,
        "p_ul_analytic": ana.p_ul,
        "p_joint_analytic": ana.p_joint,
        "p_dl_mc": mc.p_dl,
        "p_ul_mc": mc.p_ul,
        "p_joint_mc": mc.p_joint,
        "ci_halfwidth": max(mc.ci_dl, mc.ci_ul, mc.ci_joint),
        "abs_gap": max(gaps),
    }


def _auth_row(config: ExperimentConfig, index: int, value: float) -> dict:
    gt, eve = _profile_arrays(config)
    sigma = lq_db_to_sigma(value)
    eps = config.auth.epsilon_db
    profile = AuthProfile(ground_truth=gt, sigma=sigma, epsilon=eps)
    legit = simulate_auth(profile, "legit", config.n_trials,
                          _derive_seed(config.master_seed, index, 0))
    eves = simulate_auth(profile, "eve", config.n_trials,
                         _derive_seed(config.master_seed, index, 1), eve_pathlosses=eve)
    return {
        "lq_db": value,
        "epsilon": eps,
        "p_fa_cf": p_fa_closed_form(eps, sigma),
        "p_fa_mc": legit.p_fa,
        "p_md_cf": p_md_closed_form(profile, eve),
        "p_md_mc": eves.p_md_claimed,
        "p_mc_cf": p_mc_closed_form(profile),
        "p_mc_mc": legit.p_mc,
    }


def _roc_row(config: ExperimentConfig, index: int, value: float) -> dict:
    gt, _ = _profile_arrays(config)
    sigma = lq_db_to_sigma(config.auth.lq_db)
    eps = threshold_for_pfa(value, sigma)
    profile = AuthProfile(ground_truth=gt, sigma=sigma, epsilon=eps)
    p_d_cf = roc_curve(profile, [value])[0][2]
    sim = simulate_auth(profile, "eve", config.n_trials,
                        _derive_seed(config.master_seed, index))
    return {
        "p_fa": value,
        "epsilon": eps,
        "p_d_cf": p_d_cf,
        "p_d_mc": 1.0 - sim.p_md_claimed,
    }


def _any_sweep(sweep: SweepSpec) -> str | None:
    return None


def _probability_sweep(sweep: SweepSpec) -> str | None:
    if sweep.start <= 0.0 or sweep.stop >= 1.0:
        return "false-alarm targets must lie strictly inside (0, 1)"
    return None


def _radius_sweep(sweep: SweepSpec) -> str | None:
    if sweep.start < 0.0:
        return "annulus radii cannot be negative"
    return None


@dataclass(frozen=True)
class Scenario:
    """One sweep scenario: the variable it sweeps, its output columns,
    the function computing one row, whether it needs an ``auth`` block,
    the sweep-domain check (a diagnostic, or None), and for coverage
    scenarios the network parameters at one sweep value."""

    variable: str
    columns: list[str]
    row: Callable[[ExperimentConfig, int, float], dict]
    needs_auth: bool = False
    domain_error: Callable[[SweepSpec], str | None] = _any_sweep
    point: Callable[[NetworkParams, float], NetworkParams] | None = None


SCENARIOS = {
    "coverage_vs_beta": Scenario("beta_db", COVERAGE_COLUMNS, _coverage_row, point=_beta_point),
    "coverage_vs_jam_area": Scenario("z2", COVERAGE_COLUMNS, _coverage_row,
                                     domain_error=_radius_sweep, point=_jam_area_point),
    "coverage_vs_jam_distance": Scenario("z1", COVERAGE_COLUMNS, _coverage_row,
                                         domain_error=_radius_sweep, point=_jam_distance_point),
    "auth_errors_vs_lq": Scenario("lq_db", AUTH_COLUMNS, _auth_row, needs_auth=True),
    "roc": Scenario("p_fa", ROC_COLUMNS, _roc_row, needs_auth=True,
                    domain_error=_probability_sweep),
}


def columns_for(scenario: str) -> list[str]:
    return SCENARIOS[scenario].columns


def _evaluate_point(config: ExperimentConfig, index: int, value: float) -> dict:
    try:
        return SCENARIOS[config.scenario].row(config, index, value)
    except (ArithmeticError, ValueError) as exc:
        raise PointFailure(index, value, f"{type(exc).__name__}: {exc}") from exc


def _worker_count(n_points: int) -> int:
    """Pool size: ``RAFTGUARD_WORKERS`` if set, else 4, never more than
    the sweep points or the CPUs."""
    cap = max(1, min(os.cpu_count() or 1, n_points))
    env = os.environ.get("RAFTGUARD_WORKERS")
    if not env:
        return min(4, cap)
    try:
        requested = int(env)
    except ValueError:
        raise ConfigError([f"RAFTGUARD_WORKERS: expected an integer, got {env!r}"]) from None
    return max(1, min(requested, cap))


def _evaluate_point_star(args) -> dict:
    return _evaluate_point(*args)


def evaluate(config: ExperimentConfig) -> list[dict]:
    """All sweep rows, in sweep order regardless of worker scheduling."""
    tasks = [(config, i, v) for i, v in enumerate(config.sweep.values())]
    workers = _worker_count(len(tasks))
    if workers == 1:
        return [_evaluate_point_star(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_evaluate_point_star, tasks))


# ----------------------------------------------------------------- output


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    return format(float(value), ".10g")


def write_rows(path: str, columns: list[str], rows: list[dict], fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
        body = "\n".join(lines) + "\n"
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "columns": columns,
            "rows": [{c: row[c] for c in columns} for row in rows],
        }
        body = json.dumps(doc, indent=2) + "\n"
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(body)


# ------------------------------------------------------------------- main


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="raftguard",
        description="Coverage and authentication sweeps with analytic "
                    "and Monte Carlo columns side by side.",
    )
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--seed", type=int, help="override master_seed")
    p.add_argument("--trials", type=int, help="override n_trials")
    p.add_argument("--out", help="override output path")
    p.add_argument("--format", choices=("csv", "json"), help="override output format")
    p.add_argument("--scenario", help="override scenario name")
    p.add_argument("--validate-only", action="store_true",
                   help="parse and validate the config, run nothing")
    return p


def _report_config_error(exc: ConfigError) -> int:
    for diag in exc.diagnostics:
        print(f"config error: {diag}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    if args.out:
        overrides["output_path"] = args.out
    if args.format:
        overrides["output_format"] = args.format
    if args.scenario:
        overrides["scenario"] = args.scenario

    try:
        config = load_config(args.config, overrides)
    except ConfigError as exc:
        return _report_config_error(exc)

    n_points = len(config.sweep.values())
    if args.validate_only:
        print(f"config OK: scenario={config.scenario}, {n_points} sweep points, "
              f"trials={config.n_trials}, seed={config.master_seed}")
        return 0

    try:
        rows = evaluate(config)
    except ConfigError as exc:
        return _report_config_error(exc)
    except PointFailure as exc:
        print(f"numeric failure in scenario {config.scenario} at point {exc.index} "
              f"({config.sweep.variable} = {exc.value!r}, master seed {config.master_seed}): "
              f"{exc.message}", file=sys.stderr)
        return 3

    columns = columns_for(config.scenario)
    try:
        write_rows(config.output_path, columns, rows, config.output_format)
    except OSError as exc:
        print(f"config error: output.path: {exc}", file=sys.stderr)
        return 2

    gap_col = "abs_gap" if "abs_gap" in columns else None
    note = ""
    if gap_col:
        note = f", worst abs gap {max(r[gap_col] for r in rows):.3g}"
    print(f"wrote {len(rows)} rows to {config.output_path} "
          f"(scenario {config.scenario}, seed {config.master_seed}{note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
