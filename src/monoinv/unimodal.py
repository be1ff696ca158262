"""Quasi-convexity of step classes and the three unimodality notions.

A non-decreasing function on the line is unimodality-generating when it is
convex up to some mode and concave after it.  For the piecewise-affine
class this is a statement about the sequence of slopes plus a placement
rule for at most one jump, and it is equivalent to shape statements about
the generalized inverse; the verification harness replays those
equivalences exhaustively.

Every shape check here is one scan, _switch_hull: the slopes of a
distribution function rise then fall, the slopes of an inverse and the
cells of a quantile density fall then rise; classify reads its mode hull
and its density verdict off the one scan of the slopes.  A function is
extended by zero to the whole line once, by extend_to_real_line; step
classes are scanned on their own carriers and never extended.
"""

from __future__ import annotations

import operator

from dataclasses import dataclass

from monoinv.errors import InternalInconsistency, QfNotAbsolutelyContinuous
from monoinv.intervals import ClosedInterval
from monoinv.measure import StepFunction, gen_inverse_abs_cont, step_of_slopes
from monoinv.monotone import (
    PiecewiseMonotone,
    extend_to_real_line,
    generalized_inverse,
    inverse_domain,
    jumps,
)


def _switch_hull(values, knots, carrier, rise_first: bool) -> ClosedInterval | None:
    """Where a sequence of cell values switches direction.

    Cell i spans (knots[i - 1], knots[i]), reading carrier.lo before the
    first knot and carrier.hi after the last.  With rise_first the values
    must be non-decreasing up to some cell and non-increasing from it on
    (non-increasing, then non-decreasing without rise_first).  The cells
    where that switch can happen lie between the first order break from the
    left and the last one from the right; returns their closed hull, or
    None when the sequence has no such shape.
    """
    ordered = operator.le if rise_first else operator.ge
    n = len(values)
    last = 0  # cells 0..last are ordered from the left
    while last + 1 < n and ordered(values[last], values[last + 1]):
        last += 1
    first = n - 1  # cells first..n-1 are ordered from the right
    while first > 0 and ordered(values[first], values[first - 1]):
        first -= 1
    if first > last:
        return None
    return ClosedInterval(knots[first - 1] if first else carrier.lo,
                          knots[last] if last + 1 < n else carrier.hi)


def is_quasi_concave(f: StepFunction) -> tuple[bool, ClosedInterval | None]:
    """Does some a.e. version of f satisfy the superlevel-interval property?

    For a step class this is: cell values non-decreasing, then
    non-increasing.  Returns the closed modal interval (argmax closure)
    when true.
    """
    hull = _switch_hull(f.values, f.knots, f.carrier, rise_first=True)
    return hull is not None, hull


def is_quasi_convex(f: StepFunction) -> tuple[bool, ClosedInterval | None]:
    """Dual of is_quasi_concave: non-increasing then non-decreasing cells;
    modal interval is the argmin closure."""
    hull = _switch_hull(f.values, f.knots, f.carrier, rise_first=False)
    return hull is not None, hull


# ---------------------------------------------------------------------------
# shape analysis of the function itself


def _quantile_step(g: PiecewiseMonotone) -> StepFunction | None:
    """quantile_density of g, a function on the whole line; None where none exists."""
    if not gen_inverse_abs_cont(g, inverse_domain(g)):
        return None
    if any(g.slopes):
        return step_of_slopes(generalized_inverse(g))
    return StepFunction(inverse_domain(g))  # no slope of g rises: the inverse is constant


@dataclass(frozen=True)
class Classification:
    """Unimodality verdicts for a distribution-function-shaped class.

    The construction-time checks enforce the implications that hold as
    theorems on this representation; a violation is an implementation bug.
    """

    cdf_unimodal: bool
    modes: ClosedInterval | None
    dens_unimodal_abs_part: bool
    quantile_unimodal: bool
    quantile_modes: ClosedInterval | None
    atom_at_mode: tuple | None
    qf_absolutely_continuous: bool
    quantile_density: StepFunction | None = None

    def __post_init__(self):
        if self.cdf_unimodal:
            if not self.qf_absolutely_continuous:
                raise InternalInconsistency("unimodal but the inverse is not absolutely continuous")
            if not self.quantile_unimodal:
                raise InternalInconsistency("unimodal but the quantile density is not quasi-convex")
            if not self.dens_unimodal_abs_part:
                raise InternalInconsistency("unimodal but the density part is not quasi-concave")
            if self.modes is None:
                raise InternalInconsistency("unimodal without a modal interval")


def classify(f: PiecewiseMonotone) -> Classification:
    """Classify the measure generated by f (zero-extended to the whole line
    when the regular domain is smaller).

    cdf_unimodal comes from the slope scan and the jump placement rule; the
    density field from the slope scan alone, since merging equal neighbours
    into cells changes neither its verdict nor its hull; the quantile fields
    from the generalized inverse.  The equivalences among them are theorems
    and are asserted, not assumed.
    """
    g = extend_to_real_line(f)

    # admissible modes by the slopes alone: non-decreasing left of the mode,
    # non-increasing right of it
    hull = _switch_hull(g.slopes, g.xs, g.domain, rise_first=True)
    gjumps = jumps(g)
    cdf_unimodal = False
    modes = None
    atom_at_mode = None
    if hull is not None and len(gjumps) <= 1:
        if not gjumps:
            cdf_unimodal = True
            modes = hull
        else:
            i = gjumps[0]
            x = g.xs[i]
            if hull.contains(x):
                cdf_unimodal = True
                modes = ClosedInterval(x, x)
                atom_at_mode = (x, g.rights[i] - g.lefts[i])

    qdens = _quantile_step(g)
    qhull = None if qdens is None else is_quasi_convex(qdens)[1]

    return Classification(
        cdf_unimodal=cdf_unimodal,
        modes=modes,
        dens_unimodal_abs_part=hull is not None,
        quantile_unimodal=qhull is not None,
        quantile_modes=qhull,
        atom_at_mode=atom_at_mode,
        qf_absolutely_continuous=qdens is not None,
        quantile_density=qdens,
    )


def qf_shape_check(q: PiecewiseMonotone) -> tuple[bool, ClosedInterval | None]:
    """Is q concave up to some point and convex after it, as a function?

    Slopes must be non-increasing then non-decreasing, and q must be
    continuous: closing the half-domains at the switch point rules out a
    jump there, and open-interval concavity rules out jumps elsewhere.
    Returns the closed interval of admissible switch points.
    """
    if jumps(q):
        return False, None
    hull = _switch_hull(q.slopes, q.xs, q.domain, rise_first=False)
    return hull is not None, hull


def quantile_density(f: PiecewiseMonotone) -> StepFunction:
    """The Radon-Nikodym derivative of the generalized inverse of the
    measure generated by f.

    Like classify, this reads f as the zero-extended measure on the whole
    line (for the embedded identity on (0,1) the result is the constant 1
    on (0,1), not the clamp profile).  Exists iff that inverse is
    absolutely continuous on its regular domain; it is then the step class
    of the inverse's slopes.
    """
    q = _quantile_step(extend_to_real_line(f))
    if q is None:
        raise QfNotAbsolutelyContinuous(
            "the generalized inverse has an interior jump; no quantile density exists")
    return q

