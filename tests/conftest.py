"""Shared seeded inputs for the property tests."""

import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from p1bundles import GaussianRational, LaurentMatrix, LaurentPoly, monomial
import p1bundles.cech as cech

# Every property test draws the same examples on every run and writes no
# example database; max_examples and deadline stay as each test sets them.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

# pyproject's `pythonpath` reaches only the pytest process: the CLI children
# that the tests start find the package through PYTHONPATH, with src first.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def _qi_scalar(rng):
    # Nonzero Q(i) scalar with denominators.
    while True:
        c = GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
        )
        if c:
            return c


def _laurent_entry(rng):
    # One to three terms, exponents anywhere in [-3, 3].
    return LaurentPoly(
        {rng.randint(-3, 3): _qi_scalar(rng) for _ in range(rng.randint(1, 3))}
    )


def unit_det_matrix(rng, k, shears):
    """A unit-determinant k x k Laurent matrix the gauge scrambler never makes.

    A monomial diagonal times elementary shears, each shear on a random
    side with an arbitrary Laurent entry (not a chart polynomial) and Q(i)
    coefficients with denominators, so det is the diagonal's c*z^e.
    """
    t = LaurentMatrix.diagonal(
        [monomial(_qi_scalar(rng), rng.randint(-3, 3)) for _ in range(k)]
    )
    for _ in range(shears if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        shear = LaurentMatrix.identity(k).with_entry(i, j, _laurent_entry(rng))
        t = shear * t if rng.random() < 0.5 else t * shear
    return t


@pytest.fixture
def unit_det():
    return unit_det_matrix


def forced_h0_h1(e, c=0):
    """(h0(E(c)), h1(E(c))), each solved on its own system with no choice
    of side: h0 on T at cutoff c, h1 on the Serre partner at cutoff -c,
    each at the library's column windows.  A side whose windows are all
    negative counts 0 with no solve."""
    return tuple(
        cech._sections_dim(side, cech._tail_plan(side, cut))
        if cut + max(side.his) >= 0
        else 0
        for side, cut in zip(cech._sides(e), (c, -c))
    )


@pytest.fixture
def forced():
    return forced_h0_h1


def cech_counts(e, lo, hi):
    """[h0(E(c)) for c in lo..hi] by the Cech solves alone: the plan and the
    solve step under every count, never routed to the splitting type, so an
    oracle compared with it never compares the splitter with itself."""
    return cech._solve(cech._plan(e, lo, hi))
