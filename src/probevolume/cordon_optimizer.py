"""Grid search over cordon length for the precision objective (VMR or CV)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution_engine import moments_report, vmr
from .estimator import positive, probe_count
from .speed_model import SpeedDistribution

OBJECTIVES = ("vmr", "cv")
# most d values one curve evaluates; each costs one variance quadrature of
# its own pieces, all of a curve made in one batched vmr call: 0.031 ms a
# point at d/t = 40 on park-i35 (best of 3 over 10^4 points, 2 vCPUs), 3 s for
# a full grid, and at most about 0.08 s a point at the variance piece cap (four
# near-point-mass components at d/t = 1.3e6): one request takes hours, not years
MAX_GRID_POINTS = 10**5


@dataclass(frozen=True)
class OptimumReport:
    best_d: float
    best_objective: float
    objective_kind: str
    m: int
    t: float
    curve: tuple[tuple[float, float], ...]


def objective_curve(
    d_min: float,
    d_max: float,
    step: float,
    t: float,
    dist: SpeedDistribution,
    kind: str,
    m: int = 1,
) -> list[tuple[float, float]]:
    """Evaluate the precision objective on the inclusive grid {d_min, ..., d_max}.

    The objective is continuous but non-smooth in d with dense local minima,
    so no derivative-based refinement: an exhaustive grid is deterministic
    and auditable. The grid's VMRs come from one ``vmr`` call, each the
    bits of ``vmr`` at that d alone, and the ``cv`` objective is
    ``precision_report``'s cv for m probes. A grid of more than
    ``MAX_GRID_POINTS`` points raises ``ValueError`` before it is built, as
    does an m, for either objective, that ``probe_count`` refuses.
    """
    if kind not in OBJECTIVES:
        raise ValueError(f"objective kind must be one of {OBJECTIVES}, got {kind!r}")
    step, m = positive(step, "step"), probe_count(m)  # step first: optimize's d_min is step
    d_min, d_max = positive(d_min, "d_min"), positive(d_max, "d_max")
    if not d_min <= d_max:
        raise ValueError(f"need 0 < d_min <= d_max < inf, got ({d_min}, {d_max})")

    # inclusive endpoint; build by index so accumulation error cannot drop it
    intervals = (d_max - d_min) / step + 1e-9
    if not intervals < MAX_GRID_POINTS:  # also catches an infinite ratio
        raise ValueError(
            f"grid from {d_min} to {d_max} by {step} has over {MAX_GRID_POINTS} points"
        )
    grid = d_min + step * np.arange(int(intervals) + 1)
    ratios = vmr(grid, t, dist)
    if kind == "cv":
        ratios = moments_report(m, grid, t, ratios).cv
    return list(zip(grid.tolist(), ratios.tolist()))


def optimize_cordon(
    d_max: float,
    t: float,
    dist: SpeedDistribution,
    kind: str,
    m: int = 1,
    step: float = 0.5,
) -> OptimumReport:
    """Minimize the objective over the grid {step, 2*step, ..., <= d_max}.

    Ties break toward larger d: more data points per probe at equal
    theoretical precision. ``objective_curve`` checks m and the grid.
    """
    curve = objective_curve(step, d_max, step, t, dist, kind, m)
    best_d, best_val = curve[0]
    for d, value in curve[1:]:
        if value <= best_val:
            best_d, best_val = d, value
    return OptimumReport(
        best_d=best_d,
        best_objective=best_val,
        curve=tuple(curve),
        objective_kind=kind,
        m=int(m),
        t=float(t),
    )
