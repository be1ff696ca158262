"""Exact algebra of non-decreasing piecewise-affine extended-real functions.

A value of :class:`PiecewiseMonotone` stands for a whole equivalence class
of non-decreasing functions R -> [-inf, +inf] that share left and right
limits everywhere ("versions").  The real-valued part lives on an open
regular domain; left of it the function is -inf, right of it +inf.  No
value is stored at a jump: versions differ only there, and every operation
below is a class operation.

The representation is closed under generalized inversion, restriction and
the measure correspondence, so the identities of the underlying theory can
be checked segment by segment in exact rational arithmetic.
"""

from __future__ import annotations

import enum

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from monoinv.errors import (
    ConstantFunction,
    EmptyInterval,
    NonMonotone,
    UnorderedBreakpoints,
)
from monoinv.exactnum import ONE, ZERO, rat
from monoinv.intervals import (
    EMPTY,
    NEG_INF,
    POS_INF,
    ExtendedReal,
    Interval,
    as_er,
    closed_iv,
    fin,
    open_iv,
    require_open_nonempty,
)


def _q(x):
    return rat(x) if isinstance(x, int) else x


class Version(enum.Enum):
    """Which version of the class to evaluate: left- or right-continuous."""

    LEFT = "left"
    RIGHT = "right"


LEFT = Version.LEFT
RIGHT = Version.RIGHT


@dataclass(frozen=True)
class Breakpoint:
    """A knot with its one-sided limits; a jump iff left < right."""

    x: object
    left: object
    right: object

    def __post_init__(self):
        object.__setattr__(self, "x", _q(self.x))
        object.__setattr__(self, "left", _q(self.left))
        object.__setattr__(self, "right", _q(self.right))

    @property
    def is_jump(self):
        return self.left < self.right


@dataclass(frozen=True)
class PiecewiseMonotone:
    """Class [G] of a non-decreasing piecewise-affine function.

    domain    open interval where the function is real-valued
    breaks    knots strictly inside the domain, with one-sided limits
    slopes    one nonnegative rational per open segment (len(breaks) + 1)
    anchor    (x, value) pinning the function when there are no knots

    Instances are immutable, canonical (no removable knots) and validated
    on construction; invalid data raises the dedicated errors.
    """

    domain: Interval
    breaks: tuple = ()
    slopes: tuple = (ONE,)
    anchor: tuple | None = None

    def __post_init__(self):
        require_open_nonempty(self.domain, "regular domain")
        breaks = tuple(b if isinstance(b, Breakpoint) else Breakpoint(*b) for b in self.breaks)
        slopes = tuple(_q(s) for s in self.slopes)
        anchor = self.anchor
        if anchor is not None:
            anchor = (_q(anchor[0]), _q(anchor[1]))

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
            if not (self.domain.lo < fin(breaks[0].x) and fin(breaks[-1].x) < self.domain.hi):
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


def _between(xs, lo: ExtendedReal, hi: ExtendedReal) -> tuple[int, int]:
    """(i, j) such that xs[i:j] are the points of the sorted rationals xs
    strictly between lo and hi.  For xs = g.knot_xs, segments(g)[i:j + 1]
    are then the segments of g that meet the open interval (lo, hi)."""
    i = bisect_right(xs, lo.finite) if lo.is_finite else 0
    j = bisect_left(xs, hi.finite) if hi.is_finite else len(xs)
    return i, j


def validate(g: PiecewiseMonotone) -> None:
    """Re-check all representation invariants (idempotent)."""
    PiecewiseMonotone(g.domain, g.breaks, g.slopes, g.anchor)


# ---------------------------------------------------------------------------
# segment table


@dataclass(frozen=True)
class Segment:
    """One open affine piece: x-interval (a, b), limits u = g(a+), v = g(b-)."""

    a: ExtendedReal
    b: ExtendedReal
    u: ExtendedReal
    v: ExtendedReal
    slope: object


def segments(g: PiecewiseMonotone) -> tuple[Segment, ...]:
    """The open affine pieces of g, left to right (built once per instance)."""
    return _cached(g, "_segments", _build_segments)


def _build_segments(g: PiecewiseMonotone) -> tuple[Segment, ...]:
    lo, hi = g.domain.lo, g.domain.hi
    if not g.breaks:
        ax, av = g.anchor
        s = g.slopes[0]
        if lo.is_finite:
            u = fin(av - s * (ax - lo.finite))
        else:
            u = fin(av) if s == 0 else NEG_INF
        if hi.is_finite:
            v = fin(av + s * (hi.finite - ax))
        else:
            v = fin(av) if s == 0 else POS_INF
        return (Segment(lo, hi, u, v, s),)

    out = []
    first = g.breaks[0]
    s = g.slopes[0]
    if lo.is_finite:
        u = fin(first.left - s * (first.x - lo.finite))
    else:
        u = fin(first.left) if s == 0 else NEG_INF
    out.append(Segment(lo, fin(first.x), u, fin(first.left), s))
    for bp, nxt, s in zip(g.breaks, g.breaks[1:], g.slopes[1:]):
        out.append(Segment(fin(bp.x), fin(nxt.x), fin(bp.right), fin(nxt.left), s))
    last = g.breaks[-1]
    s = g.slopes[-1]
    if hi.is_finite:
        v = fin(last.right + s * (hi.finite - last.x))
    else:
        v = fin(last.right) if s == 0 else POS_INF
    out.append(Segment(fin(last.x), hi, fin(last.right), v, s))
    return tuple(out)


def value_bounds(g: PiecewiseMonotone) -> tuple[ExtendedReal, ExtendedReal]:
    """(inf, sup) of g over its regular domain."""
    segs = segments(g)
    return segs[0].u, segs[-1].v


# ---------------------------------------------------------------------------
# evaluation


def evaluate(g: PiecewiseMonotone, x, version: Version = RIGHT) -> ExtendedReal:
    """G_l(x) or G_r(x), exactly; outside the domain per the embedding."""
    x = _q(x)
    lo, hi = g.domain.lo, g.domain.hi
    if lo.is_finite:
        if x < lo.finite:
            return NEG_INF
        if x == lo.finite:
            return NEG_INF if version is LEFT else segments(g)[0].u
    if hi.is_finite:
        if x > hi.finite:
            return POS_INF
        if x == hi.finite:
            return POS_INF if version is RIGHT else segments(g)[-1].v

    if not g.breaks:
        ax, av = g.anchor
        return fin(av + g.slopes[0] * (x - ax))
    xs = g.knot_xs
    i = bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        b = g.breaks[i]
        return fin(b.left if version is LEFT else b.right)
    if i == 0:
        b = g.breaks[0]
        return fin(b.left - g.slopes[0] * (b.x - x))
    b = g.breaks[i - 1]
    return fin(b.right + g.slopes[i] * (x - b.x))


def limits_at(g: PiecewiseMonotone, x) -> tuple[ExtendedReal, ExtendedReal]:
    return evaluate(g, x, LEFT), evaluate(g, x, RIGHT)


# ---------------------------------------------------------------------------
# threshold scans (exact sup / inf of version level sets)


def last_x_with_right_le(g: PiecewiseMonotone, c: ExtendedReal) -> ExtendedReal:
    """sup{x : G_r(x) <= c} over the extended line."""
    c = as_er(c)
    if c == NEG_INF:
        return g.domain.lo
    if c == POS_INF:
        return POS_INF
    e = g.domain.lo
    for seg in segments(g):
        if seg.u > c:
            break
        if seg.slope == 0 or seg.v <= c:
            e = seg.b
            continue
        # strictly rising segment crossing level c
        if seg.a.is_finite:
            e = fin(seg.a.finite + (c.finite - seg.u.finite) / seg.slope)
        else:
            e = fin(seg.b.finite - (seg.v.finite - c.finite) / seg.slope)
        break
    return e


def first_x_with_left_ge(g: PiecewiseMonotone, c: ExtendedReal) -> ExtendedReal:
    """inf{x : G_l(x) >= c} over the extended line."""
    c = as_er(c)
    if c == POS_INF:
        return g.domain.hi
    if c == NEG_INF:
        return NEG_INF
    e = g.domain.hi
    for seg in reversed(segments(g)):
        if seg.v < c:
            break
        if seg.slope == 0 or seg.u >= c:
            e = seg.a
            continue
        if seg.b.is_finite:
            e = fin(seg.b.finite - (seg.v.finite - c.finite) / seg.slope)
        else:
            e = fin(seg.a.finite + (c.finite - seg.u.finite) / seg.slope)
        break
    return e


# ---------------------------------------------------------------------------
# canonical intervals


def regular_domain(g: PiecewiseMonotone) -> Interval:
    return g.domain


def inverse_domain(g: PiecewiseMonotone) -> Interval:
    """Regular domain of the generalized inverse class, from g alone.

    Where the domain of g has a finite endpoint the embedded function jumps
    to -inf/+inf there, so the inverse stays real (a constant tail) beyond
    the corresponding value bound; where the endpoint is infinite the
    inverse's domain stops at the value bound.
    """
    m, M = value_bounds(g)
    lo = NEG_INF if g.domain.lo.is_finite else m
    hi = POS_INF if g.domain.hi.is_finite else M
    return open_iv(lo, hi)


def preimage_interior(g: PiecewiseMonotone, iv: Interval) -> Interval:
    """int(G^{-1}(iv)) for an open interval iv of values."""
    if iv.is_empty:
        return EMPTY
    lo = last_x_with_right_le(g, iv.lo)
    hi = first_x_with_left_ge(g, iv.hi)
    if lo < hi:
        return open_iv(lo, hi)
    return EMPTY


def mass_interval(g: PiecewiseMonotone) -> Interval:
    """M_G = int(G^{-1}(I_H)); its length is the total mass of the inverse's measure."""
    return preimage_interior(g, inverse_domain(g))


def inverse_mass_interval(g: PiecewiseMonotone) -> Interval:
    """Mass interval of the generalized inverse: the open hull of g's values."""
    m, M = value_bounds(g)
    return open_iv(m, M)


def supporting_interval(g: PiecewiseMonotone) -> Interval:
    """Closed convex hull of the support of the associated measure."""
    m, M = value_bounds(g)
    lo = last_x_with_right_le(g, m)
    hi = first_x_with_left_ge(g, M)
    return closed_iv(lo, hi)


# ---------------------------------------------------------------------------
# structure queries


def flats(g: PiecewiseMonotone) -> list[tuple[Interval, object]]:
    """Maximal open intervals where g is constant, with the constant value."""
    out = []
    for seg in segments(g):
        if seg.slope == 0:
            out.append((open_iv(seg.a, seg.b), seg.u.finite))
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
            iv = open_iv(lo, hi)
        out.append(iv)
    return out


def jumps(g: PiecewiseMonotone) -> list[Breakpoint]:
    """Interior jump knots."""
    return [b for b in g.breaks if b.is_jump]


def jump_count_extended(g: PiecewiseMonotone) -> int:
    """Jumps of the embedded function, counting the +-inf jumps at finite domain ends."""
    n = len(jumps(g))
    if g.domain.lo.is_finite:
        n += 1
    if g.domain.hi.is_finite:
        n += 1
    return n


def flat_count(g: PiecewiseMonotone) -> int:
    return len(flats(g))


# ---------------------------------------------------------------------------
# generalized inverse


def _inverse_tokens(g: PiecewiseMonotone):
    """Walk g and emit the inverse's profile.

    Returns (domain, segs, knots) where segs are
    (t_lo: ER, t_hi: ER, slope, anchor_t, anchor_x) in value order and
    knots are (t, left_x, right_x) for the interior jumps of the inverse.
    Flats of g whose value falls on the boundary of the inverse's domain
    become boundary behaviour rather than knots.
    """
    dom = inverse_domain(g)
    m, M = value_bounds(g)
    lo, hi = g.domain.lo, g.domain.hi
    segs = []
    knots = []

    if lo.is_finite:
        # below every value of g the inverse sticks at the left domain edge
        segs.append((NEG_INF, m, ZERO, m.finite, lo.finite))

    gsegs = segments(g)
    for i, seg in enumerate(gsegs):
        if seg.slope == 0:
            # a flat reaching an infinite domain end only shapes the boundary of dom
            if seg.a != NEG_INF and seg.b != POS_INF:
                knots.append((seg.u.finite, seg.a.finite, seg.b.finite))
        else:
            inv_slope = 1 / seg.slope
            if seg.a.is_finite:
                anchor_t, anchor_x = seg.u.finite, seg.a.finite
            elif seg.b.is_finite:
                anchor_t, anchor_x = seg.v.finite, seg.b.finite
            else:
                anchor_x, anchor_t = g.anchor
            segs.append((seg.u, seg.v, inv_slope, anchor_t, anchor_x))
        if i < len(gsegs) - 1:
            # segment i ends at knot i; a jump there is a flat of the inverse
            b = g.breaks[i]
            if b.is_jump:
                segs.append((fin(b.left), fin(b.right), ZERO, b.left, b.x))

    if hi.is_finite:
        segs.append((M, POS_INF, ZERO, M.finite, hi.finite))

    return dom, segs, knots


def generalized_inverse(g: PiecewiseMonotone) -> PiecewiseMonotone:
    """The inverse class [H]: rises invert, jumps flatten, flats jump.

    Raises ConstantFunction when the inverse would be constant (g a pure
    single-jump staircase), since constant classes are excluded.
    """
    dom, segs, knots = _inverse_tokens(g)
    has_rise = any(s != 0 for _, _, s, _, _ in segs)
    if not has_rise and not knots:
        raise ConstantFunction("the generalized inverse would be constant")

    def x_at(seg, t):
        _, _, slope, anchor_t, anchor_x = seg
        return anchor_x + slope * (t - anchor_t)

    breaks = []
    slopes = [segs[0][2]]
    jump_at = {t: (lx, rx) for t, lx, rx in knots}
    for prev, cur in zip(segs, segs[1:]):
        t = prev[1]
        assert t == cur[0] and t.is_finite
        tq = t.finite
        if tq in jump_at:
            lx, rx = jump_at[tq]
        else:
            lx = rx = x_at(prev, tq)
        breaks.append(Breakpoint(tq, lx, rx))
        slopes.append(cur[2])

    anchor = None
    if not breaks:
        t_lo, t_hi, slope, anchor_t, anchor_x = segs[0]
        probe = _probe_point(open_iv(t_lo, t_hi))
        anchor = (probe, anchor_x + slope * (probe - anchor_t))
    return PiecewiseMonotone(dom, tuple(breaks), tuple(slopes), anchor)


def _probe_point(iv: Interval):
    """A canonical rational strictly inside a nonempty open interval."""
    lo, hi = iv.lo, iv.hi
    if lo.is_finite and hi.is_finite:
        return (lo.finite + hi.finite) / 2
    if lo.is_finite:
        return lo.finite + 1
    if hi.is_finite:
        return hi.finite - 1
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
        anchor = (probe, evaluate(g, probe, RIGHT).finite)
    return PiecewiseMonotone(iv, g.breaks[i:j], g.slopes[i:j + 1], anchor)


def versions_equal(g1: PiecewiseMonotone, g2: PiecewiseMonotone) -> bool:
    """True iff the two values denote the same class [G]."""
    if g1.domain != g2.domain or g1.breaks != g2.breaks or g1.slopes != g2.slopes:
        return False
    if g1.breaks:
        return True
    probe = _probe_point(g1.domain)
    return evaluate(g1, probe, RIGHT) == evaluate(g2, probe, RIGHT)


def equal_up_to_shift(g1: PiecewiseMonotone, g2: PiecewiseMonotone) -> bool:
    """True iff g1 and g2 differ by a constant on a common domain."""
    if g1.domain != g2.domain or g1.slopes != g2.slopes:
        return False
    if g1.knot_xs != g2.knot_xs:
        return False
    if g1.breaks:
        d = g1.breaks[0].left - g2.breaks[0].left
        return all(
            a.left - b.left == d and a.right - b.right == d
            for a, b in zip(g1.breaks, g2.breaks)
        )
    return True


def extend_to_real_line(g: PiecewiseMonotone) -> PiecewiseMonotone:
    """Continue g by constants beyond finite domain ends, onto all of R.

    This realizes the zero-extension of the associated measure to the whole
    line; the interior structure is unchanged.
    """
    from monoinv.intervals import REAL_LINE

    if g.domain == REAL_LINE:
        return g
    segs = segments(g)
    breaks = list(g.breaks)
    slopes = list(g.slopes)
    if g.domain.lo.is_finite:
        u = segs[0].u.finite
        breaks.insert(0, Breakpoint(g.domain.lo.finite, u, u))
        slopes.insert(0, ZERO)
    if g.domain.hi.is_finite:
        v = segs[-1].v.finite
        breaks.append(Breakpoint(g.domain.hi.finite, v, v))
        slopes.append(ZERO)
    return PiecewiseMonotone(REAL_LINE, tuple(breaks), tuple(slopes), None)


def from_knot_data(domain: Interval, xs, jumps, slopes, anchor_x, anchor_value) -> PiecewiseMonotone:
    """Assemble a class from knot positions, jump sizes and slopes.

    anchor_x must be a continuity point (not one of xs); anchor_value is the
    function value there.  Limits at every knot are derived by walking the
    affine pieces outwards from the anchor.
    """
    xs = [_q(x) for x in xs]
    jumps_ = [_q(j) for j in jumps]
    slopes = [_q(s) for s in slopes]
    anchor_x, anchor_value = _q(anchor_x), _q(anchor_value)
    if len(xs) != len(jumps_) or len(slopes) != len(xs) + 1:
        raise ValueError("need one jump per knot and one slope per segment")
    if anchor_x in xs:
        raise ValueError("anchor must not sit on a knot")
    if not xs:
        return PiecewiseMonotone(domain, (), tuple(slopes), (anchor_x, anchor_value))

    i = bisect_left(xs, anchor_x)
    limits = [None] * len(xs)
    cx, cv = anchor_x, anchor_value
    for j in range(i - 1, -1, -1):
        right = cv - slopes[j + 1] * (cx - xs[j])
        left = right - jumps_[j]
        limits[j] = (left, right)
        cx, cv = xs[j], left
    cx, cv = anchor_x, anchor_value
    for j in range(i, len(xs)):
        left = cv + slopes[j] * (xs[j] - cx)
        right = left + jumps_[j]
        limits[j] = (left, right)
        cx, cv = xs[j], right
    breaks = tuple(Breakpoint(x, l, r) for x, (l, r) in zip(xs, limits))
    return PiecewiseMonotone(domain, breaks, tuple(slopes), None)


# ---------------------------------------------------------------------------
# grids for exhaustive piecewise-affine checks


def structural_xs(g: PiecewiseMonotone) -> list:
    """Finite x-coordinates where the structure of g changes."""
    pts = set(g.knot_xs)
    for end in (g.domain.lo, g.domain.hi):
        if end.is_finite:
            pts.add(end.finite)
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
        if v.is_finite:
            vals.add(v.finite)
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
