"""Every simulated coverage point of the shipped configs lies within a
few standard errors of its closed form.

Gate 2 of the acceptance suite allows an absolute gap of 0.02, which at
1e5 trials is tens to hundreds of standard errors wide.  Here each
(point, direction) estimate must satisfy

    |cf - mc| <= K * SE + quadrature_error_estimate,  SE = ci / z95,

with K = 4.5: a two-sided p of about 7e-6 per estimate, about 1.5e-3
over the 222 estimates with SE > 0.  Where SE is 0 (every trial gives
the same conditional probability) the two routes must agree exactly.
"""

import pathlib

import pytest

from raftguard import cli
from raftguard.coverage import coverage_joint
from raftguard.montecarlo import TrialConfig, estimate_coverage
from raftguard.specfun import q_inverse

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
K = 4.5
Z95 = q_inverse(0.025)


def shipped_coverage_configs():
    configs = [cli.load_config(str(path)) for path in sorted(CONFIGS.glob("*.json"))]
    return [pytest.param(c, id=pathlib.Path(c.output_path).stem) for c in configs
            if getattr(cli.SCENARIOS[c.scenario].row, "func", None) is cli._coverage_row]


def test_seven_shipped_coverage_configs():
    assert len(shipped_coverage_configs()) == 7


@pytest.mark.parametrize("config", shipped_coverage_configs())
def test_simulated_points_lie_within_standard_errors_of_the_closed_form(config):
    # the CLI's own points and seeds: its point function and seed derivation
    point_at = cli.SCENARIOS[config.scenario].row.args[0]
    outliers = []
    for index, value in enumerate(config.sweep.values()):
        point = point_at(config.params, value)
        cf = coverage_joint(point)
        mc = estimate_coverage(TrialConfig(point, config.n_trials,
                                           cli._derive_seed(config.master_seed, index)))
        for direction, p_cf, p_mc, ci in (("dl", cf.p_dl, mc.p_dl, mc.ci_dl),
                                          ("ul", cf.p_ul, mc.p_ul, mc.ci_ul)):
            se = ci / Z95
            if abs(p_cf - p_mc) > K * se + cf.quadrature_error_estimate or (se == 0 and p_cf != p_mc):
                outliers.append((value, direction, p_cf, p_mc, se))
    assert not outliers, f"(sweep value, direction, cf, mc, SE) beyond {K} SE: {outliers}"
