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
"""

from __future__ import annotations

import enum

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from monoinv.errors import (
    ConstantFunction,
    EmptyInterval,
    NonMonotone,
    UnorderedBreakpoints,
)
from monoinv.exactnum import ONE, ZERO, as_q, rat
from monoinv.intervals import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REAL_LINE,
    Interval,
    is_finite,
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


@dataclass(frozen=True)
class Breakpoint:
    """A knot with its one-sided limits; a jump iff left < right.

    The public constructor converts ints to rationals; knots the library
    derives itself are made with _trusted.
    """

    x: object
    left: object
    right: object

    def __post_init__(self):
        object.__setattr__(self, "x", as_q(self.x))
        object.__setattr__(self, "left", as_q(self.left))
        object.__setattr__(self, "right", as_q(self.right))

    @property
    def is_jump(self):
        # a continuity knot the library builds holds one object on both sides
        return self.left is not self.right and self.left < self.right


@dataclass(frozen=True)
class PiecewiseMonotone:
    """Class [G] of a non-decreasing piecewise-affine function.

    domain    open interval where the function is real-valued
    breaks    knots strictly inside the domain, with one-sided limits
    slopes    one nonnegative rational per open segment (len(breaks) + 1)
    anchor    (x, value) pinning the function when there are no knots

    Instances are immutable and canonical (no removable knots).  The public
    constructor validates and canonicalises its arguments; invalid data
    raises the dedicated errors.  Builders whose output is canonical by
    construction (distribution_function, generalized_inverse) skip it
    through _trusted; the tests pin each such result to its rebuild through
    this constructor (validate).
    """

    domain: Interval
    breaks: tuple = ()
    slopes: tuple = (ONE,)
    anchor: tuple | None = None

    def __post_init__(self):
        require_open_nonempty(self.domain, "regular domain")
        breaks = tuple(b if isinstance(b, Breakpoint) else Breakpoint(*b) for b in self.breaks)
        slopes = tuple(as_q(s) for s in self.slopes)
        anchor = self.anchor
        if anchor is not None:
            anchor = (as_q(anchor[0]), as_q(anchor[1]))

        if len(slopes) != len(breaks) + 1:
            raise ValueError("need exactly one slope per segment")
        for s in slopes:
            if s < 0:
                raise NonMonotone(f"negative slope {s}")
        for b in breaks:
            if b.left > b.right:
                raise NonMonotone(f"downward jump at {b.x}")
        for a, b in zip(breaks, breaks[1:]):
            if not a.x < b.x:
                raise UnorderedBreakpoints("breakpoints must be strictly increasing")
        if breaks:
            if not (self.domain.lo < breaks[0].x and breaks[-1].x < self.domain.hi):
                raise UnorderedBreakpoints("breakpoints must be interior to the domain")
            for a, b, s in zip(breaks, breaks[1:], slopes[1:]):
                if b.left != a.right + s * (b.x - a.x):
                    raise NonMonotone("segment limits inconsistent with slope")

        # canonical form: remove knots that change nothing.  Whether a knot is
        # removable depends only on its own jump and its two slopes, which a
        # removal elsewhere leaves as they are, so one pass finds them all.
        removed = None
        kept, kept_slopes = [], [slopes[0]]
        for b, left, right in zip(breaks, slopes, slopes[1:]):
            if not b.is_jump and left == right:
                removed = b
            else:
                kept.append(b)
                kept_slopes.append(right)
        breaks, slopes = tuple(kept), tuple(kept_slopes)

        if breaks:
            anchor = None
        else:
            if anchor is None and removed is not None:
                anchor = (removed.x, removed.left)
            if anchor is None:
                raise ValueError("an anchor (x, value) is required when there are no breakpoints")
            if not self.domain.contains(anchor[0]):
                raise ValueError("anchor must lie inside the regular domain")

        if all(s == 0 for s in slopes) and not any(b.is_jump for b in breaks):
            raise ConstantFunction("constant classes are excluded")

        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "anchor", anchor)

    @property
    def knot_xs(self):
        return _cached(self, "_knot_xs", _build_knot_xs)


def _cached(g: PiecewiseMonotone, name: str, build):
    """The derived table `name` of g, built on first use and kept on the instance.

    Instances are immutable, so a table never goes stale; it lives outside
    the dataclass fields and takes no part in equality, hashing or repr.
    """
    table = g.__dict__.get(name)
    if table is None:
        table = g.__dict__[name] = build(g)
    return table


def _build_knot_xs(g: PiecewiseMonotone) -> tuple:
    return tuple(b.x for b in g.breaks)


def _between(xs, lo, hi) -> tuple[int, int]:
    """(i, j) such that xs[i:j] are the points of the sorted rationals xs
    strictly between the extended reals lo and hi.  For xs = g.knot_xs,
    segments(g)[i:j + 1] are then the segments of g that meet the open
    interval (lo, hi)."""
    i = bisect_right(xs, lo) if is_finite(lo) else 0
    j = bisect_left(xs, hi) if is_finite(hi) else len(xs)
    return i, j


def validate(g: PiecewiseMonotone) -> PiecewiseMonotone:
    """g rebuilt through the public constructors, which re-check every
    representation invariant; equal to g exactly when g is canonical."""
    breaks = tuple(Breakpoint(b.x, b.left, b.right) for b in g.breaks)
    return PiecewiseMonotone(g.domain, breaks, g.slopes, g.anchor)


# ---------------------------------------------------------------------------
# segment table


class Segment(NamedTuple):
    """One open affine piece: x-interval (a, b), limits u = g(a+), v = g(b-),
    each an extended real."""

    a: object
    b: object
    u: object
    v: object
    slope: object


def segments(g: PiecewiseMonotone) -> tuple[Segment, ...]:
    """The open affine pieces of g, left to right (built once per instance)."""
    return _cached(g, "_segments", _build_segments)


def _build_segments(g: PiecewiseMonotone) -> tuple[Segment, ...]:
    lo, hi = g.domain.lo, g.domain.hi
    if not g.breaks:
        ax, av = g.anchor
        s = g.slopes[0]
        if is_finite(lo):
            u = av - s * (ax - lo)
        else:
            u = av if s == 0 else NEG_INF
        if is_finite(hi):
            v = av + s * (hi - ax)
        else:
            v = av if s == 0 else POS_INF
        return (Segment(lo, hi, u, v, s),)

    out = []
    first = g.breaks[0]
    s = g.slopes[0]
    if is_finite(lo):
        u = first.left - s * (first.x - lo)
    else:
        u = first.left if s == 0 else NEG_INF
    out.append(Segment(lo, first.x, u, first.left, s))
    for bp, nxt, s in zip(g.breaks, g.breaks[1:], g.slopes[1:]):
        out.append(Segment(bp.x, nxt.x, bp.right, nxt.left, s))
    last = g.breaks[-1]
    s = g.slopes[-1]
    if is_finite(hi):
        v = last.right + s * (hi - last.x)
    else:
        v = last.right if s == 0 else POS_INF
    out.append(Segment(last.x, hi, last.right, v, s))
    return tuple(out)


def value_bounds(g: PiecewiseMonotone) -> tuple:
    """(inf, sup) of g over its regular domain."""
    segs = segments(g)
    return segs[0].u, segs[-1].v


# ---------------------------------------------------------------------------
# evaluation


def evaluate(g: PiecewiseMonotone, x, version: Version = RIGHT):
    """G_l(x) or G_r(x), exactly, at a rational x; outside the domain per
    the embedding (an infinite value there)."""
    x = as_q(x)
    lo, hi = g.domain.lo, g.domain.hi
    if is_finite(lo):
        if x < lo:
            return NEG_INF
        if x == lo:
            return NEG_INF if version is LEFT else segments(g)[0].u
    if is_finite(hi):
        if x > hi:
            return POS_INF
        if x == hi:
            return POS_INF if version is RIGHT else segments(g)[-1].v

    if not g.breaks:
        ax, av = g.anchor
        return av + g.slopes[0] * (x - ax)
    xs = g.knot_xs
    i = bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        b = g.breaks[i]
        return b.left if version is LEFT else b.right
    if i == 0:
        b = g.breaks[0]
        return b.left - g.slopes[0] * (b.x - x)
    b = g.breaks[i - 1]
    return b.right + g.slopes[i] * (x - b.x)


def limits_at(g: PiecewiseMonotone, x) -> tuple:
    return evaluate(g, x, LEFT), evaluate(g, x, RIGHT)


# ---------------------------------------------------------------------------
# threshold scans (exact sup / inf of version level sets)


def last_x_with_right_le(g: PiecewiseMonotone, c):
    """sup{x : G_r(x) <= c} over the extended line."""
    if c is NEG_INF:
        return g.domain.lo
    if c is POS_INF:
        return POS_INF
    e = g.domain.lo
    for seg in segments(g):
        if seg.u > c:
            break
        if seg.slope == 0 or seg.v <= c:
            e = seg.b
            continue
        e = _level_x(g, seg, c)  # strictly rising segment crossing level c
        break
    return e


def first_x_with_left_ge(g: PiecewiseMonotone, c):
    """inf{x : G_l(x) >= c} over the extended line."""
    if c is POS_INF:
        return g.domain.hi
    if c is NEG_INF:
        return NEG_INF
    e = g.domain.hi
    for seg in reversed(segments(g)):
        if seg.v < c:
            break
        if seg.slope == 0 or seg.u >= c:
            e = seg.a
            continue
        e = _level_x(g, seg, c)
        break
    return e


def _level_x(g: PiecewiseMonotone, seg: Segment, t):
    """The x where the rising segment seg of g reaches the finite level t."""
    if is_finite(seg.a):
        return seg.a + (t - seg.u) / seg.slope
    if is_finite(seg.b):
        return seg.b - (seg.v - t) / seg.slope
    ax, av = g.anchor  # a single segment spanning the line
    return ax + (t - av) / seg.slope


# ---------------------------------------------------------------------------
# canonical intervals


def inverse_domain(g: PiecewiseMonotone) -> Interval:
    """Regular domain of the generalized inverse class, from g alone.

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
    m, M = value_bounds(g)
    return Interval(m, M)


def supporting_interval(g: PiecewiseMonotone) -> Interval:
    """Closed convex hull of the support of the associated measure."""
    m, M = value_bounds(g)
    lo = last_x_with_right_le(g, m)
    hi = first_x_with_left_ge(g, M)
    return Interval(lo, hi, is_finite(lo), is_finite(hi))


# ---------------------------------------------------------------------------
# structure queries


def flats(g: PiecewiseMonotone) -> list[tuple[Interval, object]]:
    """Maximal open intervals where g is constant, with the constant value."""
    out = []
    for seg in segments(g):
        if seg.slope == 0:
            out.append((Interval(seg.a, seg.b), seg.u))
    return out


def constancy_set(g: PiecewiseMonotone, within: Interval | None = None) -> list[Interval]:
    """Maximal open flat pieces, optionally clipped to an open interval."""
    out = []
    for iv, _ in flats(g):
        if within is not None:
            lo = max(iv.lo, within.lo)
            hi = min(iv.hi, within.hi)
            if not lo < hi:
                continue
            iv = Interval(lo, hi)
        out.append(iv)
    return out


def jumps(g: PiecewiseMonotone) -> list[Breakpoint]:
    """Interior jump knots."""
    return [b for b in g.breaks if b.is_jump]


def jump_count_extended(g: PiecewiseMonotone) -> int:
    """Jumps of the embedded function, counting the +-inf jumps at finite domain ends."""
    n = len(jumps(g))
    if is_finite(g.domain.lo):
        n += 1
    if is_finite(g.domain.hi):
        n += 1
    return n


def flat_count(g: PiecewiseMonotone) -> int:
    return len(flats(g))


# ---------------------------------------------------------------------------
# generalized inverse


def _inverse_segments(g: PiecewiseMonotone) -> tuple[Segment, ...]:
    """The segment table of the generalized inverse of g, in value order
    (built once per instance).

    Each rising segment of g appears mirrored, each jump of g as a flat, and
    each finite end of g's domain as a clamp beyond g's values.  A flat of g
    is the gap between two neighbouring rows (prev.v < cur.u), so it becomes
    a jump of the inverse; a flat reaching an infinite domain end only
    shapes the boundary of the inverse's domain.
    """
    return _cached(g, "_inverse_segments", _build_inverse_segments)


def _build_inverse_segments(g: PiecewiseMonotone) -> tuple[Segment, ...]:
    gsegs = segments(g)
    out = []
    if is_finite(g.domain.lo):
        out.append(Segment(NEG_INF, gsegs[0].u, g.domain.lo, g.domain.lo, ZERO))
    # segment i ends at knot i; a jump there is a flat of the inverse
    for seg, b in zip(gsegs, (*g.breaks, None)):
        s = seg.slope
        if s != 0:
            # the reciprocal of s > 0, without the number type's reflected 1 / s
            out.append(Segment(seg.u, seg.v, seg.a, seg.b, rat(s.denominator, s.numerator)))
        if b is not None and b.is_jump:
            out.append(Segment(b.left, b.right, b.x, b.x, ZERO))
    if is_finite(g.domain.hi):
        out.append(Segment(gsegs[-1].v, POS_INF, g.domain.hi, g.domain.hi, ZERO))
    return tuple(out)


def generalized_inverse(g: PiecewiseMonotone) -> PiecewiseMonotone:
    """The inverse class [H]: rises invert, jumps flatten, flats jump.

    Raises ConstantFunction when the inverse would be constant (g a pure
    single-jump staircase), since constant classes are excluded.

    Canonical by construction: neighbouring rows of the inverse's segment
    table differ in slope or meet at a jump (a flat of g), so no knot is
    removable, and the result skips the public constructor.
    """
    segs = _inverse_segments(g)
    breaks = tuple(_trusted(Breakpoint, x=cur.a, left=prev.v, right=cur.u)
                   for prev, cur in zip(segs, segs[1:]))
    slopes = tuple(seg.slope for seg in segs)
    if all(s == 0 for s in slopes) and not any(b.is_jump for b in breaks):
        raise ConstantFunction("the generalized inverse would be constant")

    anchor = None
    if not breaks:
        # the mirror of g's only segment that rises
        probe = _probe_point(Interval(segs[0].a, segs[0].b))
        anchor = (probe, _level_x(g, next(seg for seg in segments(g) if seg.slope != 0), probe))
    return _trusted(PiecewiseMonotone, domain=inverse_domain(g), breaks=breaks, slopes=slopes,
                    anchor=anchor)


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
    if iv.is_empty:
        raise EmptyInterval("cannot restrict to the empty interval")
    require_open_nonempty(iv, "restriction interval")
    if not g.domain.contains_interval(iv):
        raise EmptyInterval("restriction interval must lie inside the regular domain")

    i, j = _between(g.knot_xs, iv.lo, iv.hi)
    anchor = None
    if i == j:
        probe = _probe_point(iv)
        anchor = (probe, evaluate(g, probe, RIGHT))
    return PiecewiseMonotone(iv, g.breaks[i:j], g.slopes[i:j + 1], anchor)


def versions_equal(g1: PiecewiseMonotone, g2: PiecewiseMonotone) -> bool:
    """True iff the two values denote the same class [G]."""
    if g1.domain != g2.domain or g1.breaks != g2.breaks or g1.slopes != g2.slopes:
        return False
    if g1.breaks:
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
    segs = segments(g)
    breaks = list(g.breaks)
    slopes = list(g.slopes)
    if is_finite(g.domain.lo):
        u = segs[0].u
        breaks.insert(0, Breakpoint(g.domain.lo, u, u))
        slopes.insert(0, ZERO)
    if is_finite(g.domain.hi):
        v = segs[-1].v
        breaks.append(Breakpoint(g.domain.hi, v, v))
        slopes.append(ZERO)
    return PiecewiseMonotone(REAL_LINE, tuple(breaks), tuple(slopes), None)


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
    if not xs:
        return PiecewiseMonotone(domain, (), tuple(slopes), (anchor_x, anchor_value))
    limits = _knot_limits(xs, jumps_, slopes, anchor_x, anchor_value)
    breaks = tuple(Breakpoint(x, l, r) for x, (l, r) in zip(xs, limits))
    return PiecewiseMonotone(domain, breaks, tuple(slopes), None)


def _knot_limits(xs, jumps, slopes, x0, v0) -> list[tuple]:
    """The (left, right) limits at each knot of the class with knots xs
    (increasing), jump sizes jumps and segment slopes slopes whose right
    version takes the value v0 at x0.

    Walks the affine pieces outwards from x0.  x0 may sit on a knot: its
    right limit is then v0.
    """
    i = bisect_right(xs, x0)
    limits = [None] * len(xs)
    cx, cv = x0, v0
    for j in range(i - 1, -1, -1):
        right = cv - slopes[j + 1] * (cx - xs[j])
        left = right - jumps[j] if jumps[j] else right
        limits[j] = (left, right)
        cx, cv = xs[j], left
    cx, cv = x0, v0
    for j in range(i, len(xs)):
        left = cv + slopes[j] * (xs[j] - cx)
        right = left + jumps[j] if jumps[j] else left
        limits[j] = (left, right)
        cx, cv = xs[j], right
    return limits


# ---------------------------------------------------------------------------
# grids for exhaustive piecewise-affine checks


def structural_xs(g: PiecewiseMonotone) -> list:
    """Finite x-coordinates where the structure of g changes."""
    pts = set(g.knot_xs)
    for end in (g.domain.lo, g.domain.hi):
        if is_finite(end):
            pts.add(end)
    if g.anchor is not None:
        pts.add(g.anchor[0])
    return sorted(pts)


def structural_values(g: PiecewiseMonotone) -> list:
    """Finite values attained or approached at the structure points of g."""
    vals = set()
    for b in g.breaks:
        vals.add(b.left)
        vals.add(b.right)
    m, M = value_bounds(g)
    for v in (m, M):
        if is_finite(v):
            vals.add(v)
    if g.anchor is not None:
        vals.add(g.anchor[1])
    return sorted(vals)


def refine_grid(points: list) -> list:
    """Sorted distinct points, plus midpoints, plus one step past each end."""
    pts = sorted(set(points))
    if not pts:
        pts = [rat(0)]
    out = set(pts)
    for a, b in zip(pts, pts[1:]):
        out.add((a + b) / 2)
    out.add(pts[0] - 1)
    out.add(pts[-1] + 1)
    return sorted(out)
