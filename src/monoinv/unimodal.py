"""Quasi-convexity of step classes and the three unimodality notions.

A non-decreasing function on the line is unimodality-generating when it is
convex up to some mode and concave after it.  For the piecewise-affine
class this is a statement about the sequence of slopes plus a placement
rule for at most one jump, and it is equivalent to shape statements about
the generalized inverse; the verification harness replays those
equivalences exhaustively.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from monoinv import monotone as mono
from monoinv.errors import (
    AmbiguousComposition,
    CarrierMismatch,
    InternalInconsistency,
    QfNotAbsolutelyContinuous,
)
from monoinv.exactnum import ZERO
from monoinv.intervals import (
    NEG_INF,
    POS_INF,
    ExtendedReal,
    Interval,
    as_er,
    fin,
)
from monoinv.measure import (
    StepFunction,
    gen_inverse_abs_cont,
    inverse_slope_step,
    step_of_slopes,
)
from monoinv.monotone import (
    PiecewiseMonotone,
    extend_to_real_line,
    inverse_domain,
    jumps,
    preimage_interior,
    segments,
)


@dataclass(frozen=True)
class ModalInterval:
    """Closed interval of admissible modes; endpoints may be infinite."""

    lo: ExtendedReal
    hi: ExtendedReal

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("modal interval endpoints out of order")

    def contains(self, x) -> bool:
        x = as_er(x)
        return self.lo <= x <= self.hi

    def __repr__(self):
        return f"ModalInterval[{self.lo}, {self.hi}]"


def _cells(f: StepFunction, extend_by_zero: bool):
    """(value, lo, hi) cells of the step class, optionally bracketed by
    zero-valued cells where the carrier has finite ends."""
    cells = [(v, a, b) for a, b, v in f.cells()]
    if extend_by_zero:
        if f.carrier.lo.is_finite:
            cells.insert(0, (ZERO, NEG_INF, f.carrier.lo))
        if f.carrier.hi.is_finite:
            cells.append((ZERO, f.carrier.hi, POS_INF))
    return cells


def _peak_interval(cells, prefer_max: bool):
    """Closure of the argmax (argmin) cell run; the run is contiguous for a
    quasi-concave (-convex) sequence."""
    values = [c[0] for c in cells]
    target = max(values) if prefer_max else min(values)
    idx = [i for i, v in enumerate(values) if v == target]
    return ModalInterval(cells[idx[0]][1], cells[idx[-1]][2])


def is_quasi_concave(f: StepFunction, extend_by_zero: bool) -> tuple[bool, ModalInterval | None]:
    """Does some a.e. version of f satisfy the superlevel-interval property?

    For a step class this is: cell values non-decreasing, then
    non-increasing.  Returns the closed modal interval (argmax closure)
    when true.
    """
    cells = _cells(f, extend_by_zero)
    values = [c[0] for c in cells]
    n = len(values)
    up = [True] * n
    for i in range(1, n):
        up[i] = up[i - 1] and values[i - 1] <= values[i]
    down = [True] * n
    for i in range(n - 2, -1, -1):
        down[i] = down[i + 1] and values[i] >= values[i + 1]
    if not any(up[i] and down[i] for i in range(n)):
        return False, None
    return True, _peak_interval(cells, prefer_max=True)


def is_quasi_convex(f: StepFunction) -> tuple[bool, ModalInterval | None]:
    """Dual of is_quasi_concave: non-increasing then non-decreasing cells;
    modal interval is the argmin closure.  No zero extension: quantile
    densities are unconstrained at the boundary."""
    cells = _cells(f, extend_by_zero=False)
    values = [c[0] for c in cells]
    n = len(values)
    down = [True] * n
    for i in range(1, n):
        down[i] = down[i - 1] and values[i - 1] >= values[i]
    up = [True] * n
    for i in range(n - 2, -1, -1):
        up[i] = up[i + 1] and values[i] <= values[i + 1]
    if not any(down[i] and up[i] for i in range(n)):
        return False, None
    return True, _peak_interval(cells, prefer_max=False)


# ---------------------------------------------------------------------------
# shape analysis of the function itself


def _admissible_mode_hull(g: PiecewiseMonotone) -> ModalInterval | None:
    """Closed hull of all mode positions admissible by the slopes alone:
    slopes non-decreasing left of the mode, non-increasing right of it."""
    slopes = g.slopes
    n = len(slopes)
    prefix = [True] * n
    for i in range(1, n):
        prefix[i] = prefix[i - 1] and slopes[i - 1] <= slopes[i]
    suffix = [True] * n
    for i in range(n - 2, -1, -1):
        suffix[i] = suffix[i + 1] and slopes[i] >= slopes[i + 1]
    valid = [i for i in range(n) if prefix[i] and suffix[i]]
    if not valid:
        return None
    bounds = [g.domain.lo] + [fin(x) for x in g.knot_xs] + [g.domain.hi]
    return ModalInterval(bounds[valid[0]], bounds[valid[-1] + 1])


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

    hull = _admissible_mode_hull(g)
    gjumps = jumps(g)
    cdf_unimodal = False
    modes = None
    atom_at_mode = None
    if hull is not None and len(gjumps) <= 1:
        if not gjumps:
            cdf_unimodal = True
            modes = hull
        else:
            b = gjumps[0]
            if hull.contains(b.x):
                cdf_unimodal = True
                modes = ModalInterval(fin(b.x), fin(b.x))
                atom_at_mode = (b.x, b.right - b.left)

    dens_ok, _ = is_quasi_concave(step_of_slopes(g), extend_by_zero=True)

    qf_ac = gen_inverse_abs_cont(g, inverse_domain(g))
    if qf_ac:
        qdens = inverse_slope_step(g)
        quantile_unimodal, quantile_modes = is_quasi_convex(qdens)
    else:
        quantile_unimodal, quantile_modes = False, None

    return Classification(
        cdf_unimodal=cdf_unimodal,
        modes=modes,
        dens_unimodal_abs_part=dens_ok,
        quantile_unimodal=quantile_unimodal,
        quantile_modes=quantile_modes,
        atom_at_mode=atom_at_mode,
        qf_absolutely_continuous=qf_ac,
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
    slopes = q.slopes
    n = len(slopes)
    prefix = [True] * n
    for i in range(1, n):
        prefix[i] = prefix[i - 1] and slopes[i - 1] >= slopes[i]
    suffix = [True] * n
    for i in range(n - 2, -1, -1):
        suffix[i] = suffix[i + 1] and slopes[i] <= slopes[i + 1]
    valid = [i for i in range(n) if prefix[i] and suffix[i]]
    if not valid:
        return False, None
    bounds = [q.domain.lo] + [fin(x) for x in q.knot_xs] + [q.domain.hi]
    return True, ModalInterval(bounds[valid[0]], bounds[valid[-1] + 1])


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
    if not gen_inverse_abs_cont(g, inverse_domain(g)):
        raise QfNotAbsolutelyContinuous(
            "the generalized inverse has an interior jump; no quantile density exists")
    return inverse_slope_step(g)


def step_compose(f: StepFunction, g: PiecewiseMonotone) -> StepFunction:
    """The a.e. class of f o g on int(g^{-1}(carrier of f)).

    Well-defined after refining at the preimages of f's knots, except when
    g is constant at a knot value of f on a set of positive length: the
    class has no value there and AmbiguousComposition is raised.
    """
    target = preimage_interior(g, f.carrier)
    if target.is_empty:
        raise CarrierMismatch("g never enters the carrier of f")

    segs = segments(g)
    cut = set()
    for b in mono.jumps(g):
        if target.contains(b.x):
            cut.add(b.x)
    for seg in segs:
        lo = max(seg.a, target.lo)
        hi = min(seg.b, target.hi)
        if not lo < hi:
            continue
        for end in (lo, hi):
            if end.is_finite and target.contains(end.finite):
                cut.add(end.finite)
        if seg.slope == 0:
            continue
        i, j = mono._between(f.knots, seg.u, seg.v)
        for k in f.knots[i:j]:
            if seg.a.is_finite:
                x = seg.a.finite + (k - seg.u.finite) / seg.slope
            elif seg.b.is_finite:
                x = seg.b.finite - (seg.v.finite - k) / seg.slope
            else:
                ax, av = g.anchor  # single segment spanning the line
                x = ax + (k - av) / seg.slope
            if target.contains(x):
                cut.add(x)

    knots = sorted(cut)
    bounds = [target.lo] + [fin(x) for x in knots] + [target.hi]
    values = []
    for a, b in zip(bounds, bounds[1:]):
        probe = mono._probe_point(Interval(a, b))
        gseg = segs[bisect_right(g.knot_xs, probe)]
        if gseg.slope == 0:
            c = gseg.u.finite
            if c in f.knots:
                raise AmbiguousComposition(
                    f"g is constant at the knot value {c} of f on a set of positive length")
            values.append(f.value_at(c))
        else:
            values.append(f.value_at(mono.evaluate(g, probe, mono.RIGHT).finite))
    return StepFunction(target, tuple(knots), tuple(values))
