"""Large-p closed form: the 1/p coefficient of n_{k,m}, a fourth exact route.

A shared edge is crossed at least four times, so n_{k,m} is a polynomial in
x = 1/p with no constant term.  Its x coefficient c1(k, m) comes from the
pairs that share exactly one edge, each walk crossing it twice, with every
other edge crossed twice: a plane tree of a = k/2 edges glued to one of
b = m/2 edges along one edge.  Counting those gluings gives

    c1(k, m) = a * b * mu_a * mu_b * V4 * V2^(a+b-2) / (alpha1 * alpha2),

where mu_a = sum_j N(a, j) (alpha1^j alpha2^(a+1-j) + alpha2^j alpha1^(a+1-j))
sums the vertex factors of plane trees with a edges over both root parts, and
N(a, j) is the Narayana number.

This module shares no code with the engine or the oracle: it uses only
``math.comb``, ``Fraction`` and the engine's public ``correlator_coefficient``.
The engine's c1 is read off by exact Lagrange interpolation of n / x at
(k + m) / 2 values of p, more than the degree of n / x in x needs.
"""

from fractions import Fraction as F
from math import comb

import pytest

from bipcorr.model import ModelParams, MomentSequence
from bipcorr.recurrence import CoefficientEngine

ALPHA = F(1, 3)
MOMENTS = [F(3, 2), F(7, 2), F(13, 3), F(6), F(19, 4), F(8), F(31, 5), F(10)]
PAIRS = [(2, 2), (2, 4), (4, 4), (4, 6), (6, 6), (8, 6), (8, 8), (10, 6)]


def narayana(a: int, j: int) -> int:
    return comb(a, j) * comb(a, j - 1) // a


def mu(a: int, alpha1: F, alpha2: F) -> F:
    return sum(
        narayana(a, j) * (alpha1**j * alpha2 ** (a + 1 - j) + alpha2**j * alpha1 ** (a + 1 - j))
        for j in range(1, a + 1)
    )


def closed_form_c1(k: int, m: int) -> F:
    a, b = k // 2, m // 2
    alpha1, alpha2 = ALPHA, 1 - ALPHA
    v2, v4 = MOMENTS[0], MOMENTS[1]
    return (
        a * b * mu(a, alpha1, alpha2) * mu(b, alpha1, alpha2) * v4 * v2 ** (a + b - 2)
        / (alpha1 * alpha2)
    )


def engine_c1(k: int, m: int) -> F:
    """The x = 1/p coefficient of n_{k,m}, interpolating n / x at x -> 0."""
    xs = [F(1, 10**6 + i) for i in range((k + m) // 2)]
    moments = MomentSequence(MOMENTS)
    ys = [
        CoefficientEngine(ModelParams(ALPHA, 1 / x), moments).correlator_coefficient(k, m) / x
        for x in xs
    ]
    total = F(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        weight = F(1)
        for j, xj in enumerate(xs):
            if j != i:
                weight *= -xj / (xi - xj)
        total += yi * weight
    return total


def test_two_two_is_the_readme_value():
    # n_{2,2} = 4 alpha (1 - alpha) V4 / p exactly.
    assert closed_form_c1(2, 2) == 4 * ALPHA * (1 - ALPHA) * MOMENTS[1]


@pytest.mark.parametrize("k, m", PAIRS, ids=[f"{k}-{m}" for k, m in PAIRS])
def test_engine_matches_closed_form(k, m):
    assert engine_c1(k, m) == closed_form_c1(k, m)
