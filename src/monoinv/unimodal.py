"""Quasi-convexity of step classes and the three unimodality notions.

A non-decreasing function on the line is unimodality-generating when it is
convex up to some mode and concave after it.  For the piecewise-affine
class this is a statement about the sequence of slopes plus a placement
rule for at most one jump, and it is equivalent to shape statements about
the generalized inverse; the verification harness replays those
equivalences exhaustively.
"""

from __future__ import annotations

import operator

from dataclasses import dataclass

from monoinv.errors import InternalInconsistency, QfNotAbsolutelyContinuous
from monoinv.exactnum import ZERO
from monoinv.intervals import NEG_INF, POS_INF, is_finite
from monoinv.measure import (
    StepFunction,
    gen_inverse_abs_cont,
    inverse_slope_step,
    step_of_slopes,
)
from monoinv.monotone import (
    PiecewiseMonotone,
    _cached,
    extend_to_real_line,
    inverse_domain,
    jumps,
)


@dataclass(frozen=True)
class ModalInterval:
    """Closed interval of admissible modes; endpoints may be infinite."""

    lo: object
    hi: object

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("modal interval endpoints out of order")

    def contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self):
        return f"ModalInterval[{self.lo}, {self.hi}]"


def _switch_hull(values, bounds, rise_first: bool) -> ModalInterval | None:
    """Where a sequence of cell values switches direction.

    Cell i spans (bounds[i], bounds[i + 1]).  With rise_first the values
    must be non-decreasing up to some cell and non-increasing from it on
    (non-increasing, then non-decreasing without rise_first).  The cells
    where that switch can happen form the run of maximal (minimal) values;
    returns the closed hull of that run, or None when the sequence has no
    such shape.
    """
    ordered = operator.le if rise_first else operator.ge
    n = len(values)
    prefix = [True] * n
    for i in range(1, n):
        prefix[i] = prefix[i - 1] and ordered(values[i - 1], values[i])
    suffix = [True] * n
    for i in range(n - 2, -1, -1):
        suffix[i] = suffix[i + 1] and ordered(values[i + 1], values[i])
    switch = [i for i in range(n) if prefix[i] and suffix[i]]
    if not switch:
        return None
    return ModalInterval(bounds[switch[0]], bounds[switch[-1] + 1])


def _step_cells(f: StepFunction, extend_by_zero: bool):
    """Values and bounds of the cells of the step class, optionally bracketed
    by zero-valued cells where the carrier has finite ends."""
    values = list(f.values)
    bounds = [f.carrier.lo, *f.knots, f.carrier.hi]
    if extend_by_zero:
        if is_finite(f.carrier.lo):
            values.insert(0, ZERO)
            bounds.insert(0, NEG_INF)
        if is_finite(f.carrier.hi):
            values.append(ZERO)
            bounds.append(POS_INF)
    return values, bounds


def is_quasi_concave(f: StepFunction, extend_by_zero: bool) -> tuple[bool, ModalInterval | None]:
    """Does some a.e. version of f satisfy the superlevel-interval property?

    For a step class this is: cell values non-decreasing, then
    non-increasing.  Returns the closed modal interval (argmax closure)
    when true.
    """
    hull = _switch_hull(*_step_cells(f, extend_by_zero), rise_first=True)
    return hull is not None, hull


def is_quasi_convex(f: StepFunction) -> tuple[bool, ModalInterval | None]:
    """Dual of is_quasi_concave: non-increasing then non-decreasing cells;
    modal interval is the argmin closure.  No zero extension: quantile
    densities are unconstrained at the boundary."""
    hull = _switch_hull(*_step_cells(f, extend_by_zero=False), rise_first=False)
    return hull is not None, hull


# ---------------------------------------------------------------------------
# shape analysis of the function itself


def _slope_hull(g: PiecewiseMonotone, rise_first: bool) -> ModalInterval | None:
    """_switch_hull of the slopes of g over its segments."""
    return _switch_hull(g.slopes, [g.domain.lo, *g.xs, g.domain.hi], rise_first)


def inverse_abs_cont(g: PiecewiseMonotone) -> bool:
    """Is the generalized inverse of g absolutely continuous on its whole
    regular domain?  Decided once per instance, for classify and
    quantile_density alike."""
    return _cached(g, "_inverse_abs_cont", _build_inverse_abs_cont)


def _build_inverse_abs_cont(g: PiecewiseMonotone) -> bool:
    return gen_inverse_abs_cont(g, inverse_domain(g))


@dataclass(frozen=True)
class Classification:
    """Unimodality verdicts for a distribution-function-shaped class.

    The construction-time checks enforce the implications that hold as
    theorems on this representation; a violation is an implementation bug.
    """

    cdf_unimodal: bool
    modes: ModalInterval | None
    dens_unimodal_abs_part: bool
    quantile_unimodal: bool
    quantile_modes: ModalInterval | None
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

    cdf_unimodal comes from the slope sequence and the jump placement rule
    alone; the quantile fields come from the generalized inverse; the
    density field from the abs-part step.  The equivalences among them are
    theorems and are asserted, not assumed.
    """
    g = extend_to_real_line(f)

    # admissible modes by the slopes alone: non-decreasing left of the mode,
    # non-increasing right of it
    hull = _slope_hull(g, rise_first=True)
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
                modes = ModalInterval(x, x)
                atom_at_mode = (x, g.rights[i] - g.lefts[i])

    dens_ok, _ = is_quasi_concave(step_of_slopes(g), extend_by_zero=True)

    qf_ac = inverse_abs_cont(g)
    if qf_ac:
        qdens = inverse_slope_step(g)
        quantile_unimodal, quantile_modes = is_quasi_convex(qdens)
    else:
        qdens = None
        quantile_unimodal, quantile_modes = False, None

    return Classification(
        cdf_unimodal=cdf_unimodal,
        modes=modes,
        dens_unimodal_abs_part=dens_ok,
        quantile_unimodal=quantile_unimodal,
        quantile_modes=quantile_modes,
        atom_at_mode=atom_at_mode,
        qf_absolutely_continuous=qf_ac,
        quantile_density=qdens,
    )


def qf_shape_check(q: PiecewiseMonotone) -> tuple[bool, ModalInterval | None]:
    """Is q concave up to some point and convex after it, as a function?

    Slopes must be non-increasing then non-decreasing, and q must be
    continuous: closing the half-domains at the switch point rules out a
    jump there, and open-interval concavity rules out jumps elsewhere.
    Returns the closed interval of admissible switch points.
    """
    if jumps(q):
        return False, None
    hull = _slope_hull(q, rise_first=False)
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
    g = extend_to_real_line(f)
    if not inverse_abs_cont(g):
        raise QfNotAbsolutelyContinuous(
            "the generalized inverse has an interior jump; no quantile density exists")
    return inverse_slope_step(g)

