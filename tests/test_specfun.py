import math

import numpy as np
import pytest
from scipy import integrate

from raftguard.coverage import hyp2f1
from raftguard.specfun import q_function, q_inverse


def gaussian_tail(x):
    """Oracle: Q(x) by direct numerical integration of the normal density."""
    if x < 0.0:
        return 1.0 - gaussian_tail(-x)
    # mass beyond 40 is < 1e-300, so a finite upper limit keeps quad sharp
    val, err = integrate.quad(
        lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi),
        x, 40.0, epsabs=1e-13, epsrel=1e-13,
    )
    assert err < 1e-11
    return val


def series_2f1(a, b, c, z, n_terms=4000):
    """Oracle: plain power-series summation, no argument transformation."""
    term = 1.0
    total = 1.0
    for n in range(n_terms):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) < 1e-16 * max(1.0, abs(total)):
            break
    return total


# ---------------------------------------------------------------- q_function


def test_q_at_zero_is_half():
    assert q_function(0.0) == 0.5


def test_q_matches_tail_integral():
    for x in np.linspace(-6.0, 6.0, 25):
        assert q_function(float(x)) == pytest.approx(gaussian_tail(float(x)), abs=1e-11)


def test_q_near_standard_decile():
    # Q(1.2816) is the canonical 10% point
    assert abs(q_function(1.2816) - 0.1) < 1e-4


def test_q_deep_tail_underflows_cleanly():
    assert q_function(40.0) < 1e-300


def test_q_symmetry():
    for x in np.linspace(-8.0, 8.0, 33):
        assert q_function(float(x)) + q_function(float(-x)) == pytest.approx(1.0, abs=1e-15)


def test_q_strictly_decreasing():
    # stay inside (-8, 8): beyond that 1 - Q(x) is below float resolution
    xs = np.linspace(-7.5, 7.5, 61)
    vals = [q_function(float(x)) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_q_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        q_function(bad)



@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_q_rejects_nonfinite_array_element(bad):
    with pytest.raises(ValueError):
        q_function(np.array([0.0, 1.0, bad, 2.0]))
    with pytest.raises(ValueError):
        q_function(np.full((2, 2), bad))


def test_q_scalar_in_float_out_array_in_array_out():
    assert type(q_function(1.5)) is float
    assert type(q_function(np.float64(1.5))) is float
    assert type(q_function(np.array(1.5))) is float
    xs = np.linspace(-8.0, 8.0, 12).reshape(3, 4)
    vals = q_function(xs)
    assert isinstance(vals, np.ndarray) and vals.shape == (3, 4)
    assert vals.tolist() == [[q_function(float(x)) for x in row] for row in xs]
    assert q_function(np.empty(0)).shape == (0,)


# ----------------------------------------------------------------- q_inverse


def test_q_inverse_at_half_is_exactly_zero():
    assert q_inverse(0.5) == 0.0
    # +0.0, not -0.0, which would print as "-0"
    assert math.copysign(1.0, q_inverse(0.5)) == 1.0


def test_q_inverse_decile():
    assert abs(q_inverse(0.1) - 1.2816) < 1e-4


def test_round_trip_x_side():
    for x in np.linspace(-3.0, 3.0, 31):
        assert abs(q_inverse(q_function(float(x))) - x) < 1e-10


def test_round_trip_p_side():
    for p in np.linspace(1e-6, 1.0 - 1e-6, 57):
        assert q_function(q_inverse(float(p))) == pytest.approx(float(p), abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, math.nan])
def test_q_inverse_domain(bad):
    with pytest.raises(ValueError):
        q_inverse(bad)


# ------------------------------------------------------------------- hyp2f1


def test_2f1_at_zero():
    assert hyp2f1(1.0, 0.25, 1.5, 0.0) == 1.0


def test_2f1_with_zero_numerator_parameter():
    assert hyp2f1(1.0, 0.0, 1.5, -7.3) == 1.0
    assert hyp2f1(0.0, 0.25, 1.5, -7.3) == 1.0


def test_2f1_frozen_reference_point():
    # 2F1(1, 1/3; 4/3; -1/2) summed directly to 1e-14
    frozen = 0.9016442585275097
    assert series_2f1(1.0, 1.0 / 3.0, 4.0 / 3.0, -0.5) == pytest.approx(frozen, abs=1e-13)
    assert hyp2f1(1.0, 1.0 / 3.0, 4.0 / 3.0, -0.5) == pytest.approx(frozen, abs=1e-11)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
def test_2f1_production_matches_direct_series(alpha):
    """The transformed production path must agree with plain summation
    wherever the plain series converges comfortably."""
    b = 1.0 - 2.0 / alpha
    c = 2.0 - 2.0 / alpha
    for z in np.linspace(-0.99, 0.0, 34):
        direct = series_2f1(1.0, b, c, float(z))
        assert hyp2f1(1.0, b, c, float(z)) == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
def test_2f1_branches_consistent_at_large_argument(alpha):
    # values either side of z = -40, well inside the range the closed
    # form's arguments cover, must vary smoothly and keep decreasing
    b = 1.0 - 2.0 / alpha
    c = 2.0 - 2.0 / alpha
    lo = hyp2f1(1.0, b, c, -39.99)
    hi = hyp2f1(1.0, b, c, -40.01)
    assert abs(lo - hi) < 2e-4  # true local slope is ~2.6e-3 per unit z
    assert hi < lo  # decreasing in |z| for this family


def test_2f1_tends_to_one_from_the_left():
    vals = [hyp2f1(1.0, 1.0 / 3.0, 4.0 / 3.0, z) for z in (-1e-2, -1e-4, -1e-6, -1e-8)]
    assert all(v < 1.0 for v in vals)
    assert abs(vals[-1] - 1.0) < 1e-7
