"""Exact algebra of non-decreasing piecewise-affine extended-real functions.

A value of :class:`PiecewiseMonotone` stands for a whole equivalence class
of non-decreasing functions R -> [-inf, +inf] that share left and right
limits everywhere ("versions").  The real-valued part lives on an open
regular domain; left of it the function is -inf, right of it +inf.  No
value is stored at a jump: versions differ only there, and every operation
below is a class operation.

The representation is closed under generalized inversion, restriction and
the measure correspondence, so the identities of the underlying theory can
be checked segment by segment in exact rational arithmetic.  Values of the
extended line are bare rationals or the sentinels NEG_INF / POS_INF of
`intervals`; knots, limits and slopes are always finite.

A class is held as columns: knots, left and right limits there, and the
slopes between them.  The inverse rule is then a swap of columns: a rise
becomes a rise with the reciprocal slope, a jump a flat, a flat a jump.
"""

from __future__ import annotations

import enum
import functools

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain

from monoinv.errors import (
    ConstantFunction,
    EmptyInterval,
    NonMonotone,
    UnorderedBreakpoints,
)
from monoinv.exactnum import ONE, ZERO, as_q, rat, reciprocal
from monoinv.intervals import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REAL_LINE,
    ClosedInterval,
    Interval,
    is_finite,
    require_open,
    require_open_nonempty,
)


class Version(enum.Enum):
    """Which version of the class to evaluate: left- or right-continuous."""

    LEFT = "left"
    RIGHT = "right"


LEFT = Version.LEFT
RIGHT = Version.RIGHT


def _trusted(cls, **fields):
    """An instance of the frozen dataclass cls holding fields, made without
    __init__: no conversion, no check, no canonicalisation.

    Only for data the library has just made canonical itself; everything
    that comes from outside goes through the public constructor.  Fields are
    set one by one, in declaration order, as __init__ sets them, so the
    instance keeps the class's compact shared-key attribute dictionary.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, init=False)
class PiecewiseMonotone:
    """Class [G] of a non-decreasing piecewise-affine function.

    domain    open interval where the function is real-valued
    slopes    one nonnegative rational per open segment (len(xs) + 1)
    anchor    (x, value) pinning the function when there are no knots
    xs        knots strictly inside the domain, increasing
    lefts     g(x-) at each knot
    rights    g(x+) at each knot; the knot is a jump iff left < right

    Instances are immutable and canonical (no removable knots).  The public
    constructor takes the knots as `breaks`, (x, left, right) triples, and
    checks their columns in _check_columns and canonicalises them in
    _canonical_columns; invalid data raises the dedicated errors.  It is
    the one checked route, also for restrict, extend_to_real_line and
    from_knot_data.  The columns are the only way to read the knots back.
    Builders whose output is canonical by construction
    (distribution_function, samples.samples_to_function, generalized_inverse,
    and the law generators through _assembled) skip the checks through
    _trusted; the tests pin each such result to its rebuild through this
    constructor (validate).
    """

    domain: Interval
    slopes: tuple
    anchor: tuple | None
    xs: tuple
    lefts: tuple
    rights: tuple

    def __init__(self, domain: Interval, breaks=(), slopes=(ONE,), anchor=None):
        xs, lefts, rights = [], [], []
        for x, left, right in breaks:
            xs.append(as_q(x))
            lefts.append(as_q(left))
            rights.append(as_q(right))
        if anchor is not None:
            anchor = (as_q(anchor[0]), as_q(anchor[1]))
        slopes = [as_q(s) for s in slopes]
        _check_columns(domain, xs, lefts, rights, slopes)
        for name, value in _canonical_columns(domain, xs, lefts, rights, slopes, anchor).items():
            object.__setattr__(self, name, value)


def _check_columns(domain: Interval, xs, lefts, rights, slopes) -> None:
    """Raise unless these columns of rationals make a non-decreasing class on
    domain (for the public constructor)."""
    require_open_nonempty(domain, "regular domain")
    if len(slopes) != len(xs) + 1:
        raise ValueError("need exactly one slope per segment")
    for s in slopes:
        if s < 0:
            raise NonMonotone(f"negative slope {s}")
    for x, left, right in zip(xs, lefts, rights):
        if left > right:
            raise NonMonotone(f"downward jump at {x}")
    for a, b in zip(xs, xs[1:]):
        if not a < b:
            raise UnorderedBreakpoints("breakpoints must be strictly increasing")
    if xs:
        if not (domain.lo < xs[0] and xs[-1] < domain.hi):
            raise UnorderedBreakpoints("breakpoints must be interior to the domain")
        for a, b, right, left, s in zip(xs, xs[1:], rights, lefts[1:], slopes[1:]):
            if left != right + s * (b - a):
                raise NonMonotone("segment limits inconsistent with slope")


def _canonical_columns(domain: Interval, xs, lefts, rights, slopes, anchor) -> dict:
    """The fields, in the order __init__ sets them, of the canonical class on
    domain with these valid columns: without the knots that change nothing.
    Whether a knot is removable depends only on its own jump and its two
    slopes, which a removal elsewhere leaves as they are: one pass suffices."""
    keep = [j for j in range(len(xs)) if lefts[j] != rights[j] or slopes[j] != slopes[j + 1]]
    if keep:
        anchor = None
    else:
        if anchor is None and xs:
            anchor = (xs[-1], lefts[-1])  # the last knot removed
        if anchor is None:
            raise ValueError("an anchor (x, value) is required when there are no breakpoints")
        if not domain.contains(anchor[0]):
            raise ValueError("anchor must lie inside the regular domain")
        # a kept knot is a jump or a change of slope, so only a class
        # without knots can be constant
        if slopes[0] == 0:
            raise ConstantFunction("constant classes are excluded")
    return {"domain": domain, "slopes": (slopes[0], *(slopes[j + 1] for j in keep)),
            "anchor": anchor, "xs": tuple(xs[j] for j in keep),
            "lefts": tuple(lefts[j] for j in keep), "rights": tuple(rights[j] for j in keep)}


def _cached(build):
    """Decorator: the derived table build(g) of g, built on first use and
    kept on the instance.

    Instances are immutable, so a table never goes stale; it lives outside
    the dataclass fields and takes no part in equality, hashing or repr.
    Every table is an immutable value.  The tables: value_bounds, jumps,
    flats, inverse_domain and generalized_inverse here; step_of_slopes and
    associated_measure in measure.  Each is kept under its function's name
    with one leading underscore (its key); a build that raises keeps nothing.
    The undecorated body is the builder, __wrapped__, looked up on every miss
    so that a test can count or replace it.
    """
    key = "_" + build.__name__.lstrip("_")

    @functools.wraps(build)
    def table(g):
        value = g.__dict__.get(key)
        if value is None:
            value = g.__dict__[key] = table.__wrapped__(g)
        return value

    table.key = key
    return table


def _between(xs, lo, hi) -> tuple[int, int]:
    """(i, j) such that xs[i:j] are the points of the sorted rationals xs
    strictly between the extended reals lo and hi.  For xs = g.xs, the
    segments i..j of g are then those that meet the open interval (lo, hi)."""
    i = bisect_right(xs, lo) if is_finite(lo) else 0
    j = bisect_left(xs, hi) if is_finite(hi) else len(xs)
    return i, j


def validate(g: PiecewiseMonotone) -> PiecewiseMonotone:
    """g rebuilt through the public constructors, which re-check every
    representation invariant; equal to g exactly when g is canonical."""
    return PiecewiseMonotone(g.domain, tuple(zip(g.xs, g.lefts, g.rights)), g.slopes, g.anchor)


# ---------------------------------------------------------------------------
# segments as columns


@_cached
def value_bounds(g: PiecewiseMonotone) -> tuple:
    """(inf, sup) of g over its regular domain, the extended reals g(lo+)
    and g(hi-) at the ends of the domain (built once per instance)."""
    lo, hi, xs = g.domain.lo, g.domain.hi, g.xs
    # the first segment runs to lo from (x0, v0), the last to hi from (x1, v1)
    (x0, v0), (x1, v1) = ((xs[0], g.lefts[0]), (xs[-1], g.rights[-1])) if xs else (g.anchor,) * 2
    s, t = g.slopes[0], g.slopes[-1]
    return (v0 - s * (x0 - lo) if is_finite(lo) else (v0 if s == 0 else NEG_INF),
            v1 + t * (hi - x1) if is_finite(hi) else (v1 if t == 0 else POS_INF))


def _segment_columns(g: PiecewiseMonotone) -> tuple:
    """The columns of g's open affine pieces, left to right: starts a, ends
    b, and the limits u = g(a+) and v = g(b-); piece i has slope g.slopes[i]."""
    m, M = value_bounds(g)
    return (g.domain.lo, *g.xs), (*g.xs, g.domain.hi), (m, *g.rights), (*g.lefts, M)


def _level_x(g: PiecewiseMonotone, i: int, t):
    """The x where the rising segment i of g reaches the finite level t, from
    its left knot, else its right knot, else g's anchor (a lone segment)."""
    x, v = (g.xs[i - 1], g.rights[i - 1]) if i else (g.xs[0], g.lefts[0]) if g.xs else g.anchor
    return x + (t - v) / g.slopes[i]


# ---------------------------------------------------------------------------
# evaluation


def evaluate(g: PiecewiseMonotone, x, version: Version = RIGHT):
    """G_l(x) or G_r(x), exactly, at a rational x; outside the domain per
    the embedding (an infinite value there)."""
    x = as_q(x)
    lo, hi = g.domain.lo, g.domain.hi
    if is_finite(lo) and x <= lo:
        return value_bounds(g)[0] if x == lo and version is RIGHT else NEG_INF
    if is_finite(hi) and x >= hi:
        return value_bounds(g)[1] if x == hi and version is LEFT else POS_INF
    xs = g.xs
    i = bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        return g.lefts[i] if version is LEFT else g.rights[i]
    if i:
        return g.rights[i - 1] + g.slopes[i] * (x - xs[i - 1])
    x0, v0 = (xs[0], g.lefts[0]) if xs else g.anchor
    return v0 + g.slopes[0] * (x - x0)


def limits_at(g: PiecewiseMonotone, x) -> tuple:
    return evaluate(g, x, LEFT), evaluate(g, x, RIGHT)


# ---------------------------------------------------------------------------
# threshold scans (exact sup / inf of version level sets)


def last_x_with_right_le(g: PiecewiseMonotone, c):
    """sup{x : G_r(x) <= c} over the extended line.  Only one segment can
    cross the level c: the last that starts at or below it."""
    if c is NEG_INF:
        return g.domain.lo
    if c is POS_INF:
        return POS_INF
    m, M = value_bounds(g)
    if m > c:
        return g.domain.lo
    k = bisect_right(g.rights, c)
    last = k == len(g.xs)
    if g.slopes[k] == 0 or (M if last else g.lefts[k]) <= c:
        return g.domain.hi if last else g.xs[k]
    return _level_x(g, k, c)


def first_x_with_left_ge(g: PiecewiseMonotone, c):
    """inf{x : G_l(x) >= c} over the extended line.  Only one segment can
    cross the level c: the first that ends at or above it."""
    if c is POS_INF:
        return g.domain.hi
    if c is NEG_INF:
        return NEG_INF
    m, M = value_bounds(g)
    if M < c:
        return g.domain.hi
    j = bisect_left(g.lefts, c)
    if g.slopes[j] == 0 or (g.rights[j - 1] if j else m) >= c:
        return g.xs[j - 1] if j else g.domain.lo
    return _level_x(g, j, c)


# ---------------------------------------------------------------------------
# canonical intervals


@_cached
def inverse_domain(g: PiecewiseMonotone) -> Interval:
    """Regular domain of the generalized inverse class, from g alone (built
    once per instance).

    Where the domain of g has a finite endpoint the embedded function jumps
    to -inf/+inf there, so the inverse stays real (a constant tail) beyond
    the corresponding value bound; where the endpoint is infinite the
    inverse's domain stops at the value bound.
    """
    m, M = value_bounds(g)
    lo = NEG_INF if is_finite(g.domain.lo) else m
    hi = POS_INF if is_finite(g.domain.hi) else M
    return Interval(lo, hi)


def preimage_interior(g: PiecewiseMonotone, iv: Interval) -> Interval:
    """int(G^{-1}(iv)) for an open interval iv of values."""
    require_open(iv)
    if iv.is_empty:
        return EMPTY
    lo = last_x_with_right_le(g, iv.lo)
    hi = first_x_with_left_ge(g, iv.hi)
    if lo < hi:
        return Interval(lo, hi)
    return EMPTY


def mass_interval(g: PiecewiseMonotone) -> Interval:
    """M_G = int(G^{-1}(I_H)); its length is the total mass of the inverse's measure."""
    return preimage_interior(g, inverse_domain(g))


def inverse_mass_interval(g: PiecewiseMonotone) -> Interval:
    """Mass interval of the generalized inverse: the open hull of g's values."""
    return Interval(*value_bounds(g))


def supporting_interval(g: PiecewiseMonotone) -> ClosedInterval:
    """Closed convex hull of the support of the associated measure."""
    m, M = value_bounds(g)
    return ClosedInterval(last_x_with_right_le(g, m), first_x_with_left_ge(g, M))


# ---------------------------------------------------------------------------
# structure queries


@_cached
def flats(g: PiecewiseMonotone) -> tuple[tuple[Interval, object], ...]:
    """Maximal open intervals where g is constant, with the constant value
    (built once per instance)."""
    starts, ends, us, _ = _segment_columns(g)
    return tuple((Interval(starts[i], ends[i]), us[i])
                 for i, s in enumerate(g.slopes) if not s)


def constancy_set(g: PiecewiseMonotone, within: Interval | None = None) -> list[Interval]:
    """Maximal open flat pieces, optionally clipped to an open interval."""
    if within is None:
        return [iv for iv, _ in flats(g)]
    require_open(within, "clipping interval")
    clipped = ((max(iv.lo, within.lo), min(iv.hi, within.hi)) for iv, _ in flats(g))
    return [Interval(lo, hi) for lo, hi in clipped if lo < hi]


@_cached
def jumps(g: PiecewiseMonotone) -> tuple[int, ...]:
    """Indices of the interior jump knots: the i with g.lefts[i] < g.rights[i]
    (built once per instance)."""
    # limits that are one object (a sample function's, off its ties) need no comparison
    return tuple(i for i, (left, right) in enumerate(zip(g.lefts, g.rights))
                 if left is not right and left < right)


def jump_count_extended(g: PiecewiseMonotone) -> int:
    """Jumps of the embedded function, counting the +-inf jumps at finite domain ends."""
    return len(jumps(g)) + is_finite(g.domain.lo) + is_finite(g.domain.hi)


def flat_count(g: PiecewiseMonotone) -> int:
    return len(flats(g))


# ---------------------------------------------------------------------------
# generalized inverse


@_cached
def generalized_inverse(g: PiecewiseMonotone) -> PiecewiseMonotone:
    """The inverse class [H], built once per instance: rises invert, jumps
    flatten, flats jump.  Raises ConstantFunction when the inverse would be
    constant (g a pure single-jump staircase): constant classes are excluded.

    Its pieces in value order are g's rising segments mirrored, g's jumps as
    flats and the finite ends of g's domain as clamps beyond g's values.  A
    flat of g is the gap between two neighbouring pieces, so it becomes a
    jump of the inverse; a flat reaching an infinite domain end only shapes
    the inverse's domain.  Neighbouring pieces differ in slope or meet at a
    jump, so no knot is removable: the result is canonical by construction
    and skips the public constructor.
    """
    lo, hi = g.domain.lo, g.domain.hi
    starts, ends, us, _ = _segment_columns(g)
    # the columns of the pieces: the value where each starts, the x there,
    # the x where it ends, and its slope; a rise's is the reciprocal of g's
    ts, x_starts, x_ends, slopes = ([NEG_INF], [lo], [lo], [ZERO]) if is_finite(lo) else (
        [], [], [], [])
    at = set(jumps(g))
    for i, (u, a, b, s) in enumerate(zip(us, starts, ends, g.slopes)):  # segment i ends at knot i
        if s:  # a truth test, not a rational comparison
            ts.append(u)
            x_starts.append(a)
            x_ends.append(b)
            slopes.append(reciprocal(s))
        if i in at:
            ts.append(g.lefts[i])
            x_starts.append(g.xs[i])
            x_ends.append(g.xs[i])
            slopes.append(ZERO)
    if is_finite(hi):
        ts.append(value_bounds(g)[1])
        x_starts.append(hi)
        x_ends.append(hi)
        slopes.append(ZERO)
    # neighbouring pieces meet at a knot: the left limit is the x where the
    # first ends, the right limit the x where the next starts
    xs, lefts, rights = tuple(ts[1:]), tuple(x_ends[:-1]), tuple(x_starts[1:])
    slopes = tuple(slopes)
    if not any(slopes) and lefts == rights:
        raise ConstantFunction("the generalized inverse would be constant")

    anchor = None
    if not xs:
        # the mirror of g's only segment that rises
        probe = _probe_point(inverse_domain(g))
        anchor = (probe, _level_x(g, next(i for i, s in enumerate(g.slopes) if s != 0), probe))
    return _trusted(PiecewiseMonotone, domain=inverse_domain(g), slopes=slopes, anchor=anchor,
                    xs=xs, lefts=lefts, rights=rights)


def _probe_point(iv: Interval):
    """A canonical rational strictly inside a nonempty open interval."""
    lo, hi = iv.lo, iv.hi
    if is_finite(lo) and is_finite(hi):
        return (lo + hi) / 2
    if is_finite(lo):
        return lo + 1
    if is_finite(hi):
        return hi - 1
    return rat(0)


# ---------------------------------------------------------------------------
# restriction and equality


def restrict(g: PiecewiseMonotone, iv: Interval) -> PiecewiseMonotone:
    """The real part of g on an open subinterval, re-embedded."""
    require_open_nonempty(iv, "restriction interval")
    if not g.domain.contains_interval(iv):
        raise EmptyInterval("restriction interval must lie inside the regular domain")

    i, j = _between(g.xs, iv.lo, iv.hi)
    anchor = None
    if i == j:
        probe = _probe_point(iv)
        anchor = (probe, evaluate(g, probe, RIGHT))
    return PiecewiseMonotone(iv, zip(g.xs[i:j], g.lefts[i:j], g.rights[i:j]), g.slopes[i:j + 1],
                             anchor)


def versions_equal(g1: PiecewiseMonotone, g2: PiecewiseMonotone) -> bool:
    """True iff the two values denote the same class [G]."""
    if (g1.domain, g1.xs, g1.lefts, g1.rights, g1.slopes) != (
            g2.domain, g2.xs, g2.lefts, g2.rights, g2.slopes):
        return False
    if g1.xs:
        return True
    probe = _probe_point(g1.domain)
    return evaluate(g1, probe, RIGHT) == evaluate(g2, probe, RIGHT)


def extend_to_real_line(g: PiecewiseMonotone) -> PiecewiseMonotone:
    """Continue g by constants beyond finite domain ends, onto all of R.

    This realizes the zero-extension of the associated measure to the whole
    line; the interior structure is unchanged.
    """
    if g.domain == REAL_LINE:
        return g
    u, v = value_bounds(g)
    columns = [list(g.xs), list(g.lefts), list(g.rights), list(g.slopes)]
    if is_finite(g.domain.lo):
        for column, value in zip(columns, (g.domain.lo, u, u, ZERO)):
            column.insert(0, value)
    if is_finite(g.domain.hi):
        for column, value in zip(columns, (g.domain.hi, v, v, ZERO)):
            column.append(value)
    return PiecewiseMonotone(REAL_LINE, zip(*columns[:3]), columns[3])


def from_knot_data(domain: Interval, xs, jumps, slopes, anchor_x, anchor_value) -> PiecewiseMonotone:
    """Assemble a class from knot positions, jump sizes and slopes.

    anchor_x must be a continuity point (not one of xs); anchor_value is the
    function value there.
    """
    xs = [as_q(x) for x in xs]
    jumps_ = [as_q(j) for j in jumps]
    slopes = [as_q(s) for s in slopes]
    anchor_x, anchor_value = as_q(anchor_x), as_q(anchor_value)
    if len(xs) != len(jumps_) or len(slopes) != len(xs) + 1:
        raise ValueError("need one jump per knot and one slope per segment")
    if anchor_x in xs:
        raise ValueError("anchor must not sit on a knot")
    lefts, rights = _knot_limits(xs, jumps_, slopes, anchor_x, anchor_value)
    return PiecewiseMonotone(domain, zip(xs, lefts, rights), slopes,
                             None if xs else (anchor_x, anchor_value))


def _assembled(domain: Interval, xs, jumps, slopes, anchor_x, anchor_value) -> PiecewiseMonotone:
    """from_knot_data without conversion or checks, for columns of rationals
    valid by construction (the law generators'): only the knot drop."""
    lefts, rights = _knot_limits(xs, jumps, slopes, anchor_x, anchor_value)
    return _trusted(PiecewiseMonotone, **_canonical_columns(
        domain, xs, lefts, rights, slopes, None if xs else (anchor_x, anchor_value)))


def _knot_limits(xs, jumps, slopes, x0, v0) -> tuple[list, list]:
    """The columns of left and right limits at the knots of the class with
    knots xs (increasing), jump sizes jumps and segment slopes slopes whose
    right version takes the value v0 at x0.

    Walks the affine pieces outwards from x0.  x0 may sit on a knot: its
    right limit is then v0.  The walk stays on the number type: one on
    integer numerator / denominator pairs would repeat its arithmetic.
    """
    i = bisect_right(xs, x0)
    lefts, rights = [None] * len(xs), [None] * len(xs)
    cx, cv = x0, v0
    for j in range(i - 1, -1, -1):
        right = rights[j] = cv - slopes[j + 1] * (cx - xs[j])
        cv = lefts[j] = right - jumps[j] if jumps[j] else right
        cx = xs[j]
    cx, cv = x0, v0
    for j in range(i, len(xs)):
        left = lefts[j] = cv + slopes[j] * (xs[j] - cx)
        cv = rights[j] = left + jumps[j] if jumps[j] else left
        cx = xs[j]
    return lefts, rights


# ---------------------------------------------------------------------------
# grids for exhaustive piecewise-affine checks


def structural_xs(g: PiecewiseMonotone) -> list:
    """Finite x-coordinates where the structure of g changes, increasing:
    the finite ends of its domain and its knots, or its anchor when it has
    no knots."""
    inner = g.xs if g.anchor is None else (g.anchor[0],)
    return [x for x in (g.domain.lo, *inner, g.domain.hi) if is_finite(x)]


def structural_values(g: PiecewiseMonotone) -> list:
    """Finite values attained or approached at the structure points of g,
    increasing.

    Read left to right, g's bounds, its limits at the knots (or its anchor
    value when it has no knots) never decrease, so equal values are
    neighbours: one pass drops them, with no sort.
    """
    m, M = value_bounds(g)
    inner = chain.from_iterable(zip(g.lefts, g.rights)) if g.anchor is None else (g.anchor[1],)
    return _distinct(v for v in (m, *inner, M) if is_finite(v))


def _distinct(ordered) -> list:
    """The non-decreasing values of ordered, each once."""
    out = []
    for v in ordered:
        if not (out and out[-1] == v):
            out.append(v)
    return out


def refine_grid(points: list) -> list:
    """Sorted distinct points, plus midpoints, plus one step past each end."""
    pts = _distinct(sorted(points)) or [rat(0)]
    out = [pts[0] - 1]
    for a, b in zip(pts, pts[1:]):
        out += (a, (a + b) / 2)
    out += (pts[-1], pts[-1] + 1)
    return out
