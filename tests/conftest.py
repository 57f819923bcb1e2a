import dataclasses
import math
import sys

import numpy as np
import pytest

from probevolume.estimator import _var_term
from probevolume.speed_model import (
    SpeedComponent,
    SpeedDistribution,
    integrate_weighted,
    load_distribution,
)

# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def park():
    return load_distribution("park-i35")


@pytest.fixture(scope="session")
def m60():
    return load_distribution("table2-60mph")


@pytest.fixture(scope="session")
def m30():
    return load_distribution("table2-30mph")


@pytest.fixture(scope="session")
def narrow20():
    """Near-point-mass at 20 m/s."""
    return SpeedDistribution((SpeedComponent(20.0, 1e-6, 1.0),), 0.0, 40.0)


def config_doc(dist: SpeedDistribution) -> dict:
    """The JSON config of a distribution: ``from_dict(config_doc(dist)) == dist``."""
    return {"components": [dataclasses.asdict(c) for c in dist.components],
            "lower": dist.lower, "upper": dist.upper}


def random_mixture(rng: np.random.Generator) -> SpeedDistribution:
    """A valid random mixture for property sweeps."""
    k = int(rng.integers(1, 5))
    lower = float(rng.uniform(0.0, 5.0))
    upper = lower + float(rng.uniform(10.0, 50.0))
    means = rng.uniform(lower - 5.0, upper + 5.0, size=k)
    sds = rng.uniform(0.5, 8.0, size=k)
    weights = rng.dirichlet(np.ones(k))
    comps = tuple(
        SpeedComponent(float(mu), float(sd), float(w))
        for mu, sd, w in zip(means, sds, weights)
    )
    return SpeedDistribution(comps, lower, upper)


def count_calls(call) -> tuple[int, int]:
    """(Python-level calls, calls of C functions and methods) that ``call()``
    makes, as ``sys.setprofile`` sees them; numpy ufuncs are not counted."""
    seen = {"call": 0, "c_call": 0}

    def count(frame, event, arg):
        if event in seen:
            seen[event] += 1

    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen["call"], seen["c_call"]


def kink_sum_vmr(d, t, dist, tail=1e-15, chunk=1 << 13):
    """(t/d)^2 times the variance integral over every kink piece, the kink
    set of the variance integral as it was before the Euler-Maclaurin sum.

    The kinks s = d/(t*j) are taken from the support's top down, a chunk at
    a time, each chunk integrated with the library's rule on the chunk's
    kinks and its own range only. It stops at the first chunk whose last
    kink is at or below the support's bottom, or under which (s^2/4) CDF(s),
    a bound on the integral left, is below ``tail`` times the sum so far:
    the result is short of the whole by at most that fraction.
    """
    j = math.floor(d / (t * dist.upper)) + 1
    parts, above = [], math.inf
    while True:
        # the chunk's first kink is the last one of the chunk before
        kinks = d / (t * np.arange(max(j - 1, 1), j + chunk, dtype=np.float64))
        below = kinks[-1]

        def weight(s, above=above, below=below):
            return np.where((s > below) & (s < above), _var_term(s, d, t), 0.0)

        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            parts.append(integrate_weighted(dist, weight, kinks[::-1]))
        total = math.fsum(parts)
        if below <= dist.lower or 0.25 * below * below * dist.cdf(below) < tail * total:
            return (t / d) ** 2 * total
        above, j = below, j + chunk
