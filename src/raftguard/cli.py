"""Experiment runner: parameter sweeps with analytic and Monte Carlo
columns side by side.

Every scenario sweeps one variable, evaluates each point analytically
and by simulation, and writes one row per point in sweep order.  Every
sweep is coupled: it draws one Monte Carlo sample for all of its points,
seeded from the master seed and point 0, and evaluates it at each point
(common random numbers).  The sweep runs in process; output files are
byte-identical for a given config and seed, whatever
``RAFTGUARD_WORKERS`` says.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator

import numpy as np

from raftguard.auth import (
    AuthProfile,
    lq_db_to_sigma,
    p_fa_closed_form,
    p_md_closed_form,
    p_mc_closed_form,
    roc_curve,
    sample_fingerprints,
)
from raftguard.channel import NetworkParams, pathloss_db
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


class PointFailure(Exception):
    """A numeric failure while evaluating one sweep point."""

    def __init__(self, index: int, value: float, message: str):
        super().__init__(index, value, message)
        self.index = index
        self.value = value
        self.message = message


class ConfigError(Exception):
    """Config parse or validation failure; carries one diagnostic per
    offending key, each named by the flag that replaced the key, or else
    anchored to the config file line where the key appears."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    step: float

    def count(self) -> int:
        """The number of sweep points, without listing them."""
        # inclusive endpoint with a guard against float drift; a span past
        # the float range is capped so that it still compares as too many
        return math.floor(min((self.stop - self.start) / self.step + 1e-9, sys.maxsize)) + 1

    def values(self) -> list[float]:
        """The sweep points; the guard in ``count`` may admit a last point
        a hair past ``stop``, which is then ``stop`` itself."""
        return [min(self.start + i * self.step, self.stop) for i in range(self.count())]


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


# -------------------------------------------------------------- scenarios


def _derive_seed(master_seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def _profile(config: ExperimentConfig, n_eves: int, sigma: float,
             eps: float) -> tuple[AuthProfile, np.ndarray]:
    """The leader's profile of the m enrolled fingerprints, its intruder
    prior support running up to the pathloss at the config's disk edge,
    and ``n_eves`` intruder fingerprints, drawn after the enrolled ones."""
    p, a = config.params, config.auth
    rng = np.random.default_rng(a.profile_seed)
    gt, eve = sample_fingerprints(a.m, n_eves, p.disk, p.alpha, rng)
    return AuthProfile(ground_truth=gt, sigma=sigma, epsilon=eps,
                       psi_max=float(pathloss_db(p.disk.radius, p.alpha))), eve


def _beta_point(p: NetworkParams, value: float) -> NetworkParams:
    return replace(p, beta_dl_db=value, beta_ul_db=value)


def _jam_area_band(p: NetworkParams, value: float) -> tuple[float, float]:
    # empty where the outer radius does not pass the inner one
    return p.annulus.inner, max(value, p.annulus.inner)


def _jam_distance_band(p: NetworkParams, value: float) -> tuple[float, float]:
    return value, value + 50.0


def _coverage_row(var: str, value: float, ana, mc) -> dict:
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


def _beta_rows(config: ExperimentConfig, points: list[tuple[int, float]]):
    # the geometry does not depend on the threshold: one sample, seeded
    # by the first point, evaluated at every threshold
    mcs = estimate_coverage(TrialConfig(config.params, config.n_trials,
                                        _derive_seed(config.master_seed, points[0][0])),
                            beta_db=[value for _, value in points])
    for (_, value), mc in zip(points, mcs):
        ana = coverage_joint(_beta_point(config.params, value))
        yield _coverage_row(config.sweep.variable, value, ana, mc)


def _band_rows(band_at: Callable[[NetworkParams, float], tuple[float, float]],
               config: ExperimentConfig, points: list[tuple[int, float]]):
    # one jammer field on the hull of the bands, seeded by the first
    # point; each band reads its own run of the field
    p = config.params
    bands = [band_at(p, value) for _, value in points]
    mcs = estimate_coverage(TrialConfig(p, config.n_trials,
                                        _derive_seed(config.master_seed, points[0][0])),
                            bands=bands)
    for (_, value), (z1, z2), mc in zip(points, bands, mcs):
        # the closed form reads an empty band as no jammer
        point = replace(p, annulus=AnnulusRegion(z1, z2)) if z1 < z2 else replace(p, rho_j=0.0)
        yield _coverage_row(config.sweep.variable, value, coverage_joint(point), mc)


def _auth_rows(config: ExperimentConfig, points: list[tuple[int, float]]):
    # the identities, intruder draws and claims do not depend on the noise
    # level: one sample, seeded by the first point, its standard
    # normal noise scaled to every point's sigma
    eps = config.auth.epsilon_db
    sigmas = [lq_db_to_sigma(value) for _, value in points]
    profile, eve = _profile(config, config.auth.n_eves, sigmas[0], eps)
    first = points[0][0]
    legits = simulate_auth(profile, "legit", config.n_trials,
                           _derive_seed(config.master_seed, first, 0), sigma=sigmas)
    eves = simulate_auth(profile, "eve", config.n_trials,
                         _derive_seed(config.master_seed, first, 1), eve_pathlosses=eve,
                         sigma=sigmas)
    for (_, value), sigma, legit, intruder in zip(points, sigmas, legits, eves):
        point = replace(profile, sigma=sigma)
        yield {
            "lq_db": value,
            "epsilon": eps,
            "p_fa_cf": p_fa_closed_form(eps, sigma),
            "p_fa_mc": legit.p_fa,
            "p_md_cf": p_md_closed_form(point, eve),
            "p_md_mc": intruder.p_md_claimed,
            "p_mc_cf": p_mc_closed_form(point),
            "p_mc_mc": legit.p_mc,
        }


def _roc_rows(config: ExperimentConfig, points: list[tuple[int, float]]):
    # the intruder draw does not depend on the threshold: one sample,
    # seeded by the first point, tallied at every threshold that
    # roc_curve calibrates; neither reads the profile's own threshold
    sigma = lq_db_to_sigma(config.auth.lq_db)
    profile, _ = _profile(config, 0, sigma, config.auth.epsilon_db)
    curve = roc_curve(profile, [value for _, value in points])
    sims = simulate_auth(profile, "eve", config.n_trials,
                         _derive_seed(config.master_seed, points[0][0]),
                         epsilon=[e for _, e, _ in curve])
    for (p_fa, e, p_d), sim in zip(curve, sims):
        yield {"p_fa": p_fa, "epsilon": e, "p_d_cf": p_d, "p_d_mc": 1.0 - sim.p_md_claimed}


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
    the generator of the rows of the sweep's (index, value) points, in
    order, drawn as one Monte Carlo sample seeded by the first point,
    the ``auth`` keys whose product counts the (intruder,
    fingerprint) pairs its closed form holds (none for a scenario
    without an ``auth`` block), and the sweep-domain check."""

    variable: str
    columns: list[str]
    rows: Callable[[ExperimentConfig, list[tuple[int, float]]], Iterator[dict]]
    pairs: tuple[str, ...] = ()
    domain_error: Callable[[SweepSpec], str | None] = lambda sweep: None


SCENARIOS = {
    "coverage_vs_beta": Scenario("beta_db", COVERAGE_COLUMNS, _beta_rows),
    "coverage_vs_jam_area": Scenario("z2", COVERAGE_COLUMNS, partial(_band_rows, _jam_area_band),
                                     domain_error=_radius_sweep),
    "coverage_vs_jam_distance": Scenario("z1", COVERAGE_COLUMNS,
                                         partial(_band_rows, _jam_distance_band),
                                         domain_error=_radius_sweep),
    "auth_errors_vs_lq": Scenario("lq_db", AUTH_COLUMNS, _auth_rows, pairs=("m", "n_eves")),
    # roc's one intruder is uniform over the prior support and meets each
    # fingerprint once; it draws no intruder fingerprints
    "roc": Scenario("p_fa", ROC_COLUMNS, _roc_rows, pairs=("m",),
                    domain_error=_probability_sweep),
}


def columns_for(scenario: str) -> list[str]:
    return SCENARIOS[scenario].columns


# ------------------------------------------------------------- validation

_REQUIRED = object()  # the default of a key the config must give
_DEFAULT_PARAMS = NetworkParams()
_MAX_SWEEP_POINTS = 10_000
# a sweep draws its trials once: a shipped 16-point band sweep took
# 0.5-0.6 s per 1e6 trials on one CPU, so about 10 min at this cap; the
# shipped configs use 1e5
_MAX_TRIALS = 10**9
# (intruder, fingerprint) pairs of one auth closed form, at about 58
# bytes each in p_md_closed_form: 0.6 GB
_MAX_AUTH_PAIRS = 10**7

# Every config key: section -> key -> (type, bound, default), in the
# order they are checked; "" is the top level.  The bound of a number is
# its minimum, that of a string its allowed values (None: any non-empty
# string); a ``dict`` key is the section of that name.
_SCALARS = {
    "": {
        "scenario": (str, tuple(SCENARIOS), _REQUIRED),
        "sweep": (dict, None, _REQUIRED),
        "n_trials": (int, 1, _REQUIRED),
        "master_seed": (int, 0, _REQUIRED),
        "output": (dict, None, {}),
        "params": (dict, None, {}),
        "auth": (dict, None, None),
    },
    "sweep": {
        "variable": (str, None, _REQUIRED),
        **{key: (float, None, _REQUIRED) for key in ("start", "stop", "step")},
    },
    "params": {
        **{key: (float, None, getattr(_DEFAULT_PARAMS, key)) for key in (
            "p_leader_dbm", "p_follower_dbm", "p_jammer_dbm",
            "alpha", "beta_dl_db", "beta_ul_db", "rho_t", "rho_j")},
        "disk_radius_m": (float, None, _DEFAULT_PARAMS.disk.radius),
        "annulus_inner_m": (float, None, _DEFAULT_PARAMS.annulus.inner),
        "annulus_outer_m": (float, None, _DEFAULT_PARAMS.annulus.outer),
    },
    "auth": {
        "m": (int, 1, _REQUIRED),
        "n_eves": (int, 1, 5),
        "profile_seed": (int, 0, _REQUIRED),
        "epsilon_db": (float, 0, 1.0),
        "lq_db": (float, None, 10.0),
    },
    "output": {"path": (str, None, _REQUIRED), "format": (str, ("csv", "json"), "csv")},
}
# the JSON values each type accepts, and its name in a diagnostic
_KINDS = {int: (int, "an integer"), float: ((int, float), "a number"), str: (str, "a string")}
# what an unknown key is called where it is not the section's name
_UNKNOWN = {"": "top-level", "params": "parameter"}

# CLI override -> (the config key it replaces, its flag)
_OVERRIDES = {
    "n_trials": ("n_trials", "--trials"),
    "master_seed": ("master_seed", "--seed"),
    "output_path": ("output.path", "--out"),
    "output_format": ("output.format", "--format"),
}


class _Collector:
    """Accumulates diagnostics, each named by the flag that replaced its
    key, or else anchored to the line where the key appears in the raw
    text."""

    def __init__(self, raw: str, overrides: dict):
        self.raw = raw
        self.flags = {path: flag for key, (path, flag) in _OVERRIDES.items() if key in overrides}
        self.errors: list[str] = []

    def add(self, path: str, message: str) -> None:
        # the path's keys in order, each after the previous one's match, so
        # that a key is anchored inside its own section
        keys = [rf'"{re.escape(key)}"\s*:' for key in path.split(".")]
        pattern = r"[\s\S]*?".join(keys[:-1] + [f"({keys[-1]})"])
        found = path not in self.flags and re.search(pattern, self.raw)
        anchor = f"line {self.raw.count(chr(10), 0, found.start(1)) + 1}: " if found else ""
        self.errors.append(f"{anchor}{self.flags.get(path, path)}: {message}")


def _with_overrides(data: dict, overrides: dict) -> dict:
    """A copy of the config with each override written over its key,
    except in a section that is not an object, which stays an error."""
    doc = {key: dict(v) if isinstance(v, dict) else v for key, v in data.items()}
    for key, (path, _) in _OVERRIDES.items():
        section, _, leaf = path.rpartition(".")
        block = doc.setdefault(section, {}) if section else doc
        if key in overrides and isinstance(block, dict):
            block[leaf] = overrides[key]
    return doc


def _section(raw: object, name: str, errors: _Collector) -> dict | None:
    """Section ``name`` (``""`` for the whole document) checked against
    ``_SCALARS``: its unknown keys rejected, each key's type and bound
    checked, absent keys given their defaults, and each of its sections
    checked in turn.  A key that failed is None in the result, and so is
    a section that is not an object."""
    if not isinstance(raw, dict):
        errors.add(name, "expected an object")
        return None
    table = _SCALARS[name]
    prefix = f"{name}." if name else ""
    for key in raw:
        if key not in table:
            errors.add(prefix + key, f"unknown {_UNKNOWN.get(name, name)} key")
    values = dict.fromkeys(table)  # a key that fails stays None
    for key, (kind, bound, default) in table.items():
        v, path = raw.get(key, default), prefix + key
        if v is _REQUIRED:
            errors.add(path, "missing required key")
        elif kind is dict:
            # an optional section may also be given as null
            values[key] = None if v is None and default is None else _section(v, key, errors)
        elif kind is str and bound:
            if v in bound:
                values[key] = v
            else:
                errors.add(path, f"unknown {key} {v!r}; expected one of {sorted(bound)}")
        elif isinstance(v, bool) or not isinstance(v, _KINDS[kind][0]):
            errors.add(path, f"expected {_KINDS[kind][1]}, got {type(v).__name__}")
        elif kind is str:
            if v:
                values[key] = v
            else:
                errors.add(path, "must not be empty")
        elif kind is float and not abs(v) <= sys.float_info.max:  # false for NaN too
            errors.add(path, f"must be finite, got {v}")
        elif bound is not None and kind(v) < bound:
            errors.add(path, f"must be >= {bound}, got {kind(v)}")
        else:
            values[key] = kind(v)
    return values


def _passed(values: dict | None) -> bool:
    """Whether a section ``_section`` checked is an object whose keys all passed."""
    return values is not None and None not in values.values()


def _network_params(values: dict, errors: _Collector) -> NetworkParams | None:
    """The network parameters of the checked ``params`` scalars."""
    try:
        disk = DiskRegion(values.pop("disk_radius_m"))
        try:
            annulus = AnnulusRegion(values.pop("annulus_inner_m"), values.pop("annulus_outer_m"))
        except ValueError as exc:
            errors.add("params.annulus_inner_m", f"invalid annulus: {exc}")
            return None
        return NetworkParams(**values, disk=disk, annulus=annulus)
    except ValueError as exc:
        errors.add("params", str(exc))
        return None


def build_config(data: dict, raw_text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Validate a parsed config dict, with the CLI overrides written over
    the keys they replace, into an ExperimentConfig, raising ConfigError
    with every problem found."""
    overrides = overrides or {}
    errors = _Collector(raw_text, overrides)
    doc = _with_overrides(data, overrides)
    top = _section(doc, "", errors)

    scenario = top["scenario"]
    spec = SCENARIOS.get(scenario)
    var = (top["sweep"] or {}).get("variable")
    if spec and var and var != spec.variable:
        errors.add("sweep.variable", f"scenario {scenario} sweeps {spec.variable!r}, got {var!r}")
    if (n_trials := top["n_trials"]) is not None and n_trials > _MAX_TRIALS:
        errors.add("n_trials", f"must be <= {_MAX_TRIALS}, got {n_trials}")
    sweep = SweepSpec(**top["sweep"]) if _passed(top["sweep"]) else None
    if sweep is not None:
        if sweep.step <= 0.0:
            errors.add("sweep.step", f"must be > 0, got {sweep.step}")
        elif sweep.start > sweep.stop:
            errors.add("sweep.start", f"start {sweep.start} exceeds stop {sweep.stop}")
        elif (count := sweep.count()) > _MAX_SWEEP_POINTS:
            errors.add("sweep.step", f"gives {count} sweep points, more than {_MAX_SWEEP_POINTS}")
        elif spec and (problem := spec.domain_error(sweep)):
            errors.add("sweep.start", problem)

    params = _network_params(top["params"], errors) if _passed(top["params"]) else None
    pairs = spec.pairs if spec else ()
    if pairs and params is not None and params.disk.radius <= 1.0:
        # the intruder prior support is [0, pathloss at the disk edge] dB
        errors.add("params.disk_radius_m",
                   f"must be > 1 for an auth scenario, got {params.disk.radius}")
    auth = AuthSettings(**top["auth"]) if _passed(top["auth"]) else None
    count = math.prod(getattr(auth, key) for key in pairs) if auth else 0
    if count > _MAX_AUTH_PAIRS:
        errors.add(f"auth.{pairs[-1]}", f"{' * '.join(pairs)} = {count} is more than "
                                        f"{_MAX_AUTH_PAIRS} (intruder, fingerprint) pairs")
    if pairs and doc.get("auth") is None:
        errors.add("auth", "this scenario requires an auth block")

    if errors.errors:
        raise ConfigError(errors.errors)
    return ExperimentConfig(
        scenario=scenario, params=params, sweep=sweep,
        n_trials=top["n_trials"], master_seed=top["master_seed"],
        output_path=top["output"]["path"], output_format=top["output"]["format"], auth=auth,
    )


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw_text = fh.read()
    except OSError as exc:
        raise ConfigError([f"{path}: {exc.strerror or exc}"])
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}"])
    try:
        data = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"line {exc.lineno}: invalid JSON: {exc.msg}"])
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a JSON object"])
    return build_config(data, raw_text, overrides)


# ------------------------------------------------------------- evaluation


def evaluate(config: ExperimentConfig) -> list[dict]:
    """All sweep rows, in sweep order, from one sample for every point.  A
    numeric failure names the point whose row was being made: point 0,
    for a failure in the draws the points share."""
    points = list(enumerate(config.sweep.values()))
    rows = []
    try:
        for row in SCENARIOS[config.scenario].rows(config, points):
            rows.append(row)
    except (ArithmeticError, ValueError) as exc:
        index, value = points[len(rows)]
        raise PointFailure(index, value, f"{type(exc).__name__}: {exc}") from exc
    return rows


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
    # each override's dest is its key in _OVERRIDES
    p.add_argument("--seed", dest="master_seed", metavar="SEED", type=int,
                   help="override master_seed")
    p.add_argument("--trials", dest="n_trials", metavar="TRIALS", type=int,
                   help="override n_trials")
    p.add_argument("--out", dest="output_path", metavar="OUT", help="override output path")
    p.add_argument("--format", dest="output_format", choices=("csv", "json"),
                   help="override output format")
    p.add_argument("--validate-only", action="store_true",
                   help="parse and validate the config, run nothing")
    return p


def _report_config_error(exc: ConfigError) -> int:
    for diag in exc.diagnostics:
        print(f"config error: {diag}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in _OVERRIDES if getattr(args, key) is not None}
    try:
        config = load_config(args.config, overrides)
    except ConfigError as exc:
        return _report_config_error(exc)

    if args.validate_only:
        print(f"config OK: scenario={config.scenario}, {config.sweep.count()} sweep points, "
              f"trials={config.n_trials}, seed={config.master_seed}")
        return 0

    try:
        rows = evaluate(config)
    except PointFailure as exc:
        print(f"numeric failure in scenario {config.scenario} at point {exc.index} "
              f"({config.sweep.variable} = {exc.value!r}, master seed {config.master_seed}): "
              f"{exc.message}", file=sys.stderr)
        return 3

    columns = columns_for(config.scenario)
    try:
        write_rows(config.output_path, columns, rows, config.output_format)
    except OSError as exc:
        errors = _Collector("", overrides)
        errors.add("output.path", str(exc))
        return _report_config_error(ConfigError(errors.errors))

    gap_col = "abs_gap" if "abs_gap" in columns else None
    note = ""
    if gap_col:
        note = f", worst abs gap {max(r[gap_col] for r in rows):.3g}"
    print(f"wrote {len(rows)} rows to {config.output_path} "
          f"(scenario {config.scenario}, seed {config.master_seed}{note})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
