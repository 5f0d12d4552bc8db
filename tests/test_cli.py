import json
import pathlib
from dataclasses import replace

import pytest

from raftguard import cli

RHO = 1.9098593171027442e-05
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def base_config(tmp_path, **overrides):
    cfg = {
        "scenario": "coverage_vs_beta",
        "sweep": {"variable": "beta_db", "start": -30.0, "stop": 0.0, "step": 10.0},
        "n_trials": 2000,
        "master_seed": 7,
        "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
        "params": {"rho_t": RHO, "rho_j": RHO, "beta_dl_db": -20.0, "beta_ul_db": -20.0},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# ---------------------------------------------------------------- running


def test_beta_sweep_writes_expected_table(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["sweep"]["step"] = 2.0
    code = cli.main(["--config", write_config(tmp_path, cfg), "--trials", "500"])
    assert code == 0
    header, rows = read_rows(tmp_path / "out.csv")
    assert header == cli.COVERAGE_COLUMNS
    assert len(rows) == 16
    joint = [float(r["p_joint_analytic"]) for r in rows]
    assert all(b < a for a, b in zip(joint, joint[1:]))
    assert "wrote 16 rows" in capsys.readouterr().out


def test_zero_jammer_intensity_gives_unit_cells(tmp_path):
    cfg = base_config(tmp_path)
    cfg["params"]["rho_j"] = 0.0
    code = cli.main(["--config", write_config(tmp_path, cfg), "--trials", "200"])
    assert code == 0
    _, rows = read_rows(tmp_path / "out.csv")
    for r in rows:
        for col in ("p_dl_analytic", "p_ul_analytic", "p_joint_analytic",
                    "p_dl_mc", "p_ul_mc", "p_joint_mc"):
            assert float(r[col]) == 1.0


def test_jam_area_sweep_handles_empty_band(tmp_path):
    cfg = base_config(tmp_path, scenario="coverage_vs_jam_area")
    cfg["sweep"] = {"variable": "z2", "start": 0.0, "stop": 60.0, "step": 20.0}
    code = cli.main(["--config", write_config(tmp_path, cfg), "--trials", "300"])
    assert code == 0
    _, rows = read_rows(tmp_path / "out.csv")
    assert float(rows[0]["p_joint_mc"]) == 1.0
    assert float(rows[-1]["p_joint_analytic"]) < 1.0


def test_roc_headline_value(tmp_path):
    cfg = base_config(tmp_path, scenario="roc")
    cfg["sweep"] = {"variable": "p_fa", "start": 0.05, "stop": 0.15, "step": 0.05}
    cfg["auth"] = {"m": 5, "n_eves": 5, "profile_seed": 28294, "lq_db": 10.0}
    code = cli.main(["--config", write_config(tmp_path, cfg), "--trials", "2000"])
    assert code == 0
    header, rows = read_rows(tmp_path / "out.csv")
    assert header == cli.ROC_COLUMNS
    at_tenth = [r for r in rows if float(r["p_fa"]) == 0.1][0]
    assert float(at_tenth["p_d_cf"]) >= 0.95


def test_auth_sweep_schema(tmp_path):
    cfg = base_config(tmp_path, scenario="auth_errors_vs_lq")
    cfg["sweep"] = {"variable": "lq_db", "start": 0.0, "stop": 10.0, "step": 5.0}
    cfg["auth"] = {"m": 5, "n_eves": 5, "profile_seed": 28294, "epsilon_db": 1.0}
    code = cli.main(["--config", write_config(tmp_path, cfg), "--trials", "2000"])
    assert code == 0
    header, rows = read_rows(tmp_path / "out.csv")
    assert header == cli.AUTH_COLUMNS
    assert len(rows) == 3
    # fixed threshold: the closed-form false alarm falls as noise shrinks
    pfa = [float(r["p_fa_cf"]) for r in rows]
    assert pfa[0] > pfa[-1]


def test_auth_prior_support_follows_the_config(tmp_path):
    # at alpha 4, three of the five fingerprints lie past the pathloss at
    # 500 m under alpha 3, where a fixed support would cut their cells short
    cfg = base_config(tmp_path, scenario="auth_errors_vs_lq")
    cfg["params"]["alpha"] = 4.0
    cfg["sweep"] = {"variable": "lq_db", "start": 0.0, "stop": 30.0, "step": 10.0}
    cfg["auth"] = {"m": 5, "n_eves": 5, "profile_seed": 28294, "epsilon_db": 1.0}
    assert cli.main(["--config", write_config(tmp_path, cfg), "--trials", "20000"]) == 0
    _, rows = read_rows(tmp_path / "out.csv")
    assert len(rows) == 4
    for r in rows:
        assert abs(float(r["p_mc_cf"]) - float(r["p_mc_mc"])) <= 0.01


def test_json_output_round_trips(tmp_path):
    cfg = base_config(tmp_path)
    code = cli.main(["--config", write_config(tmp_path, cfg),
                     "--trials", "200", "--format", "json",
                     "--out", str(tmp_path / "out.json")])
    assert code == 0
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["schema_version"] == cli.SCHEMA_VERSION
    assert doc["columns"] == cli.COVERAGE_COLUMNS
    assert len(doc["rows"]) == 4


# ------------------------------------------------------------ determinism


def test_reruns_are_byte_identical(tmp_path, monkeypatch):
    cfg = base_config(tmp_path)
    path = write_config(tmp_path, cfg)
    assert cli.main(["--config", path, "--out", str(tmp_path / "a.csv")]) == 0
    monkeypatch.setenv("RAFTGUARD_WORKERS", "2")
    assert cli.main(["--config", path, "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_seed_override_changes_monte_carlo_only(tmp_path):
    cfg = base_config(tmp_path)
    path = write_config(tmp_path, cfg)
    cli.main(["--config", path, "--out", str(tmp_path / "a.csv")])
    cli.main(["--config", path, "--out", str(tmp_path / "b.csv"), "--seed", "8"])
    _, a = read_rows(tmp_path / "a.csv")
    _, b = read_rows(tmp_path / "b.csv")
    assert [r["p_dl_analytic"] for r in a] == [r["p_dl_analytic"] for r in b]
    assert any(x["p_dl_mc"] != y["p_dl_mc"] for x, y in zip(a, b))


# -------------------------------------------------------------- validation


def test_validate_only_reports_ok(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["--config", path, "--validate-only"]) == 0
    out = capsys.readouterr().out
    assert "config OK" in out and "4 sweep points" in out
    assert not (tmp_path / "out.csv").exists()


def test_overrides_replace_bad_file_values(tmp_path, capsys):
    cfg = base_config(tmp_path, n_trials=0, master_seed=-1)
    path = write_config(tmp_path, cfg)
    assert cli.main(["--config", path, "--trials", "100", "--seed", "3", "--validate-only"]) == 0
    assert "trials=100, seed=3" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "must be >= 0"),
    ("--trials", "0", "must be >= 1"),
    ("--trials", "100000000000000000000000", "must be <= 1000000000"),
    ("--out", "", "must not be empty"),
])
def test_bad_override_names_the_flag(tmp_path, capsys, flag, value, message):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["--config", path, flag, value, "--validate-only"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {flag}: {message}")


@pytest.mark.parametrize("flag", ["--out"])
def test_empty_override_writes_nothing(tmp_path, capsys, flag):
    # an explicit empty value is an error, not a fall-back to the file's value
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["--config", path, "--trials", "10", flag, ""]) == 2
    assert f"config error: {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_unwritable_out_names_the_flag(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["--config", path, "--trials", "10", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: --out: ")


def test_inverted_annulus_rejected(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["params"]["annulus_inner_m"] = 200.0
    cfg["params"]["annulus_outer_m"] = 100.0
    assert cli.main(["--config", write_config(tmp_path, cfg), "--validate-only"]) == 2
    assert "annulus" in capsys.readouterr().err


def test_auth_disk_must_be_wider_than_one_metre(tmp_path, capsys):
    # the intruder prior support ends at the pathloss at the disk edge,
    # which is 0 dB at 1 m
    cfg = auth_config(tmp_path)
    cfg["params"]["disk_radius_m"] = 1.0
    path = write_config(tmp_path, cfg)
    assert cli.main(["--config", path, "--validate-only"]) == 2
    assert capsys.readouterr().err == (
        f"config error: line {line_of(path, 'disk_radius_m')}: "
        "params.disk_radius_m: must be > 1 for an auth scenario, got 1.0\n")


def test_alpha_two_rejected(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["params"]["alpha"] = 2.0
    assert cli.main(["--config", write_config(tmp_path, cfg), "--validate-only"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_parse_error_is_line_anchored(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "scenario": "roc",\n  "sweep": [,]\n}\n')
    assert cli.main(["--config", str(path), "--validate-only"]) == 2
    assert "line 3" in capsys.readouterr().err


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["params"]["alpa"] = 3.0
    assert cli.main(["--config", write_config(tmp_path, cfg), "--validate-only"]) == 2
    assert "alpa" in capsys.readouterr().err


def auth_config(tmp_path, **auth):
    cfg = base_config(tmp_path, scenario="auth_errors_vs_lq")
    cfg["sweep"] = {"variable": "lq_db", "start": 0.0, "stop": 10.0, "step": 5.0}
    cfg["auth"] = {"m": 5, "n_eves": 5, "profile_seed": 28294, **auth}
    return cfg


def line_of(path, key):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return next(i for i, ln in enumerate(lines, 1) if ln.lstrip().startswith(f'"{key}":'))


@pytest.mark.parametrize("section, what", [
    ("", "top-level"), ("sweep", "sweep"), ("params", "parameter"),
    ("auth", "auth"), ("output", "output"),
], ids=["top", "sweep", "params", "auth", "output"])
def test_every_section_rejects_unknown_keys(tmp_path, capsys, section, what):
    cfg = auth_config(tmp_path)
    (cfg[section] if section else cfg)["bogus_key"] = 1.0
    path = write_config(tmp_path, cfg)
    assert cli.main(["--config", path, "--validate-only"]) == 2
    name = f"{section}.bogus_key" if section else "bogus_key"
    assert capsys.readouterr().err == (
        f"config error: line {line_of(path, 'bogus_key')}: {name}: unknown {what} key\n")


def test_anchor_is_the_line_of_the_key_not_of_a_value(tmp_path, capsys):
    # "lq_db" is also the sweep variable's value, several lines earlier
    path = write_config(tmp_path, auth_config(tmp_path, lq_db="high"))
    assert cli.main(["--config", path, "--validate-only"]) == 2
    line = line_of(path, "lq_db")
    assert line > line_of(path, "variable")
    assert capsys.readouterr().err == (
        f"config error: line {line}: auth.lq_db: expected a number, got str\n")


def test_anchor_is_inside_the_key_section(tmp_path, capsys):
    # "alpha" is a params key too, and params comes first in the file
    cfg = auth_config(tmp_path, alpha=3.0)
    cfg["params"]["alpha"] = 3.0
    path = write_config(tmp_path, cfg)
    assert cli.main(["--config", path, "--validate-only"]) == 2
    with open(path) as fh:
        lines = [i for i, ln in enumerate(fh, 1) if ln.lstrip().startswith('"alpha":')]
    assert len(lines) == 2
    assert capsys.readouterr().err == (
        f"config error: line {lines[1]}: auth.alpha: unknown auth key\n")


@pytest.mark.parametrize("stop, step, code", [(9999.0, 1.0, 0), (10000.0, 1.0, 2), (10.0, 1e-9, 2)])
def test_sweep_points_are_counted_not_listed(tmp_path, capsys, monkeypatch, stop, step, code):
    # validation bounds the sweep at 10,000 points before any point is listed
    monkeypatch.setattr(cli.SweepSpec, "values", lambda self: pytest.fail("sweep points listed"))
    cfg = auth_config(tmp_path)
    cfg["sweep"].update(start=0.0, stop=stop, step=step)
    path = write_config(tmp_path, cfg)
    assert cli.main(["--config", path, "--validate-only"]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith(f"config error: line {line_of(path, 'step')}: sweep.step: gives ")
        assert err.endswith(" sweep points, more than 10000\n")
    else:
        assert "10000 sweep points" in out


def test_last_sweep_point_stops_at_stop(tmp_path):
    # the count's float guard admits a second point; start + step would
    # be 1.0, where no false-alarm budget is defined
    cfg = base_config(tmp_path, scenario="roc")
    cfg["sweep"] = {"variable": "p_fa", "start": 0.5, "stop": 0.999999999999, "step": 0.5}
    cfg["auth"] = {"m": 5, "n_eves": 5, "profile_seed": 28294}
    cfg["output"] = {"path": str(tmp_path / "out.json"), "format": "json"}
    assert cli.main(["--config", write_config(tmp_path, cfg), "--trials", "2000"]) == 0
    rows = json.loads((tmp_path / "out.json").read_text())["rows"]
    assert [r["p_fa"] for r in rows] == [0.5, 0.999999999999]


@pytest.mark.parametrize("m, n_eves, code", [
    (1000, 10_000, 0), (1000, 10_001, 2), (10**5, 10**5, 2),
])
def test_auth_pairs_are_bounded(tmp_path, capsys, m, n_eves, code):
    # the closed-form missed detection holds every (intruder, fingerprint)
    # pair; validation bounds them before any fingerprint is drawn
    path = write_config(tmp_path, auth_config(tmp_path, m=m, n_eves=n_eves))
    assert cli.main(["--config", path, "--validate-only"]) == code
    if code:
        assert capsys.readouterr().err == (
            f"config error: line {line_of(path, 'n_eves')}: auth.n_eves: m * n_eves = "
            f"{m * n_eves} is more than 10000000 (intruder, fingerprint) pairs\n")


@pytest.mark.parametrize("scenario, m, n_eves, key", [
    ("roc", 5000, 5000, None), ("roc", 10**7 + 1, 1, "m"),
    ("coverage_vs_beta", 10**5, 10**5, None),
])
def test_auth_pairs_count_what_the_scenario_builds(tmp_path, capsys, scenario, m, n_eves, key):
    # roc pairs its one uniform intruder with each fingerprint and never
    # reads n_eves; a coverage scenario builds no pairs at all
    cfg = base_config(tmp_path, scenario=scenario)
    if scenario == "roc":
        cfg["sweep"] = {"variable": "p_fa", "start": 0.1, "stop": 0.2, "step": 0.1}
    cfg["auth"] = {"m": m, "n_eves": n_eves, "profile_seed": 1}
    path = write_config(tmp_path, cfg)
    assert cli.main(["--config", path, "--validate-only"]) == (2 if key else 0)
    if key:
        assert capsys.readouterr().err == (
            f"config error: line {line_of(path, key)}: auth.m: m = {m} is more than "
            f"10000000 (intruder, fingerprint) pairs\n")


SCALARS = [pytest.param(section, key, spec, id=f"{section or 'top'}.{key}")
           for section, table in cli._SCALARS.items() for key, spec in table.items()
           if spec[0] is not dict]
BOUNDED = [case for case in SCALARS if case.values[2][0] is not str and case.values[2][1] is not None]
FLOATS = [case for case in SCALARS if case.values[2][0] is float]
STRINGS = [case for case in SCALARS if case.values[2][0] is str]
CHOICES = [case for case in STRINGS if case.values[2][1]]


def schema_case(tmp_path, section, key, value):
    cfg = auth_config(tmp_path)
    (cfg[section] if section else cfg)[key] = value
    path = write_config(tmp_path, cfg)
    name = f"{section}.{key}" if section else key
    return path, f"config error: line {line_of(path, key)}: {name}: "


def unlisted(key, value, choices):
    return f"unknown {key} {value!r}; expected one of {sorted(choices)}"


@pytest.mark.parametrize("section, key, spec", SCALARS)
def test_every_scalar_key_rejects_a_wrong_type(tmp_path, capsys, section, key, spec):
    kind, bound, _ = spec
    value = 5 if kind is str else "wrong"
    path, prefix = schema_case(tmp_path, section, key, value)
    assert cli.main(["--config", path, "--validate-only"]) == 2
    if kind is str:
        message = unlisted(key, value, bound) if bound else "expected a string, got int"
    else:
        message = f"expected {'an integer' if kind is int else 'a number'}, got str"
    assert capsys.readouterr().err == f"{prefix}{message}\n"


@pytest.mark.parametrize("section, key, spec", STRINGS)
def test_every_string_key_rejects_an_empty_string(tmp_path, capsys, section, key, spec):
    path, prefix = schema_case(tmp_path, section, key, "")
    assert cli.main(["--config", path, "--validate-only"]) == 2
    message = unlisted(key, "", spec[1]) if spec[1] else "must not be empty"
    assert capsys.readouterr().err == f"{prefix}{message}\n"


@pytest.mark.parametrize("section, key, spec", CHOICES)
def test_every_choice_key_rejects_an_unlisted_value(tmp_path, capsys, section, key, spec):
    path, prefix = schema_case(tmp_path, section, key, "bogus")
    assert cli.main(["--config", path, "--validate-only"]) == 2
    assert capsys.readouterr().err == f"{prefix}{unlisted(key, 'bogus', spec[1])}\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("section, key, spec", FLOATS)
def test_every_float_key_rejects_a_non_finite_value(tmp_path, capsys, section, key, spec, value):
    # json reads NaN and Infinity, which no key may hold
    path, prefix = schema_case(tmp_path, section, key, value)
    assert cli.main(["--config", path, "--validate-only"]) == 2
    assert capsys.readouterr().err == f"{prefix}must be finite, got {value}\n"


@pytest.mark.parametrize("section, key, spec", BOUNDED)
def test_every_bounded_key_rejects_a_value_below_its_minimum(tmp_path, capsys, section, key, spec):
    kind, minimum, _ = spec
    value = minimum - 1 if kind is int else minimum - 0.5
    path, prefix = schema_case(tmp_path, section, key, value)
    assert cli.main(["--config", path, "--validate-only"]) == 2
    assert capsys.readouterr().err == f"{prefix}must be >= {minimum}, got {kind(value)}\n"


REQUIRED = [pytest.param(section, key, id=f"{section or 'top'}.{key}")
            for section, table in cli._SCALARS.items() for key, spec in table.items()
            if spec[2] is cli._REQUIRED]


@pytest.mark.parametrize("section, key", REQUIRED)
def test_every_required_key_is_reported_missing(tmp_path, capsys, section, key):
    cfg = auth_config(tmp_path)
    del (cfg[section] if section else cfg)[key]
    path = write_config(tmp_path, cfg)
    assert cli.main(["--config", path, "--validate-only"]) == 2
    # the key is absent, so there is no line to anchor the diagnostic to
    name = f"{section}.{key}" if section else key
    assert capsys.readouterr().err == f"config error: {name}: missing required key\n"


def output_bytes(tmp_path, cfg, name):
    cfg["output"] = {"path": str(tmp_path / f"{name}.json"), "format": "json"}
    assert cli.main(["--config", write_config(tmp_path, cfg, f"{name}.cfg.json"),
                     "--trials", "2000"]) == 0
    return (tmp_path / f"{name}.json").read_bytes()


def run_without_n_eves(tmp_path, cfg):
    """The output bytes of ``cfg`` as given and with ``auth.n_eves`` removed."""
    given = output_bytes(tmp_path, cfg, "given")
    del cfg["auth"]["n_eves"]
    return given, output_bytes(tmp_path, cfg, "omitted")


def test_roc_runs_without_n_eves(tmp_path):
    # roc never reads n_eves, so omitting it changes no output byte
    cfg = json.loads((CONFIGS / "roc.json").read_text())
    assert cfg["auth"]["n_eves"] == 5
    given, omitted = run_without_n_eves(tmp_path, cfg)
    assert omitted == given


def test_n_eves_defaults_to_five(tmp_path):
    cfg = auth_config(tmp_path)
    assert cfg["auth"]["n_eves"] == 5
    given, omitted = run_without_n_eves(tmp_path, cfg)
    assert omitted == given
    assert cli.load_config(str(tmp_path / "omitted.cfg.json")).auth.n_eves == 5


@pytest.mark.parametrize("scenario", ["coverage_vs_nothing", ["roc"]])
def test_unknown_scenario_rejected(tmp_path, capsys, scenario):
    cfg = base_config(tmp_path, scenario=scenario)
    assert cli.main(["--config", write_config(tmp_path, cfg), "--validate-only"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_sweep_variable_must_match_scenario(tmp_path, capsys):
    cfg = base_config(tmp_path, scenario="coverage_vs_jam_area")
    assert cli.main(["--config", write_config(tmp_path, cfg), "--validate-only"]) == 2
    assert "z2" in capsys.readouterr().err


def test_roc_targets_must_be_interior(tmp_path, capsys):
    cfg = base_config(tmp_path, scenario="roc")
    cfg["sweep"] = {"variable": "p_fa", "start": 0.0, "stop": 0.5, "step": 0.1}
    cfg["auth"] = {"m": 5, "n_eves": 5, "profile_seed": 1}
    assert cli.main(["--config", write_config(tmp_path, cfg), "--validate-only"]) == 2
    assert "(0, 1)" in capsys.readouterr().err


def test_auth_scenario_requires_auth_block(tmp_path, capsys):
    cfg = base_config(tmp_path, scenario="auth_errors_vs_lq")
    cfg["sweep"] = {"variable": "lq_db", "start": 0.0, "stop": 10.0, "step": 5.0}
    assert cli.main(["--config", write_config(tmp_path, cfg), "--validate-only"]) == 2
    assert "auth" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["--config", str(tmp_path / "nope.json"), "--validate-only"]) == 2
    assert capsys.readouterr().err


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"scenario": "roc", \xff}')
    assert cli.main(["--config", str(path), "--validate-only"]) == 2
    assert capsys.readouterr().err == (
        f"config error: {path}: not UTF-8 text: invalid start byte at byte 20\n")


def test_diagnostics_enumerate_all_problems(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["n_trials"] = 0
    cfg["params"]["alpha"] = 1.5
    assert cli.main(["--config", write_config(tmp_path, cfg), "--validate-only"]) == 2
    err = capsys.readouterr().err
    assert "n_trials" in err and "alpha" in err


# ---------------------------------------------------------- failure paths


def patch_rows(monkeypatch, scenario, rows):
    monkeypatch.setitem(cli.SCENARIOS, scenario, replace(cli.SCENARIOS[scenario], rows=rows))


def test_numeric_failure_exits_three(tmp_path, capsys, monkeypatch):
    def boom(config, points):
        for index, value in points:
            if index == 2:
                raise FloatingPointError("synthetic blowup")
            yield {}

    patch_rows(monkeypatch, "coverage_vs_beta", boom)
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["--config", path]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "synthetic blowup" in err
    assert "at point 2 (beta_db = -10.0, master seed 7)" in err


@pytest.mark.parametrize("scenario, engine, where", [
    ("coverage_vs_beta", "estimate_coverage", "at point 0 (beta_db = -30.0, master seed 7)"),
    ("coverage_vs_jam_distance", "estimate_coverage", "at point 0 (z1 = 0.0, master seed 7)"),
    ("roc", "simulate_auth", "at point 0 (p_fa = 0.05, master seed 7)"),
])
def test_failing_shared_draw_names_the_first_point(tmp_path, capsys, monkeypatch,
                                                   scenario, engine, where):
    # a coupled sweep's one sample is seeded by its first point, which a
    # failure of that draw names
    def boom(*args, **kwargs):
        raise FloatingPointError("synthetic blowup")

    monkeypatch.setattr(cli, engine, boom)
    cfg = base_config(tmp_path, scenario=scenario)
    if scenario == "coverage_vs_jam_distance":
        cfg["sweep"] = {"variable": "z1", "start": 0.0, "stop": 100.0, "step": 50.0}
    if scenario == "roc":
        cfg["sweep"] = {"variable": "p_fa", "start": 0.05, "stop": 0.15, "step": 0.05}
        cfg["auth"] = {"m": 5, "profile_seed": 28294}
    assert cli.main(["--config", write_config(tmp_path, cfg)]) == 3
    err = capsys.readouterr().err
    assert "numeric failure" in err and "synthetic blowup" in err and where in err
    assert not (tmp_path / "out.csv").exists()


def test_programming_error_is_not_a_numeric_failure(tmp_path, capsys, monkeypatch):
    def broken(config, points):
        raise TypeError("synthetic bug")
        yield

    patch_rows(monkeypatch, "coverage_vs_beta", broken)
    path = write_config(tmp_path, base_config(tmp_path))
    with pytest.raises(TypeError, match="synthetic bug"):
        cli.main(["--config", path])
    assert "numeric failure" not in capsys.readouterr().err


def test_shipped_configs_validate():
    configs = sorted(CONFIGS.glob("*.json"))
    assert len(configs) == 9
    for path in configs:
        assert cli.main(["--config", str(path), "--validate-only"]) == 0
