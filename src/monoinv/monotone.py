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

from bisect import bisect_left, bisect_right
from dataclasses import InitVar, dataclass, field
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
    closed_iv,
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
    """A knot with its one-sided limits, a jump iff left < right: an input
    form of PiecewiseMonotone, and the form `breaks` lists its knots in.
    The constructor converts ints to rationals."""

    x: object
    left: object
    right: object

    def __post_init__(self):
        for name in ("x", "left", "right"):
            object.__setattr__(self, name, as_q(getattr(self, name)))


@dataclass(frozen=True)
class PiecewiseMonotone:
    """Class [G] of a non-decreasing piecewise-affine function.

    domain    open interval where the function is real-valued
    slopes    one nonnegative rational per open segment (len(xs) + 1)
    anchor    (x, value) pinning the function when there are no knots
    xs        knots strictly inside the domain, increasing
    lefts     g(x-) at each knot
    rights    g(x+) at each knot; the knot is a jump iff left < right

    Instances are immutable and canonical (no removable knots).  The public
    constructor takes the knots as `breaks`, Breakpoints or (x, left, right)
    triples, and checks and canonicalises their columns in _checked_columns;
    invalid data raises the dedicated errors.  `breaks` lists the knots back
    as Breakpoints.  Builders whose output is canonical by construction
    (distribution_function, generalized_inverse) skip the checks through
    _trusted; the tests pin each such result to its rebuild through this
    constructor (validate).
    """

    domain: Interval
    breaks: InitVar[tuple] = ()
    slopes: tuple = (ONE,)
    anchor: tuple | None = None
    xs: tuple = field(init=False)
    lefts: tuple = field(init=False)
    rights: tuple = field(init=False)

    def __post_init__(self, breaks):
        xs, lefts, rights = [], [], []
        for b in breaks:
            x, left, right = (b.x, b.left, b.right) if isinstance(b, Breakpoint) else b
            xs.append(as_q(x))
            lefts.append(as_q(left))
            rights.append(as_q(right))
        anchor = self.anchor
        if anchor is not None:
            anchor = (as_q(anchor[0]), as_q(anchor[1]))
        slopes = [as_q(s) for s in self.slopes]
        for name, value in _checked_columns(self.domain, xs, lefts, rights, slopes,
                                            anchor).items():
            object.__setattr__(self, name, value)


def _breaks(g: PiecewiseMonotone) -> tuple:
    """The knots of g as Breakpoints."""
    return tuple(Breakpoint(x, left, right) for x, left, right in zip(g.xs, g.lefts, g.rights))


# set after the decorator, which would read a property in the class body as
# the default of the breaks InitVar
PiecewiseMonotone.breaks = property(_breaks)


def _checked_columns(domain: Interval, xs, lefts, rights, slopes, anchor) -> dict:
    """The fields after domain of the canonical class with these columns of
    rationals, in the order __init__ sets them, once every invariant holds.

    Canonical form drops the knots that change nothing.  Whether a knot is
    removable depends only on its own jump and its two slopes, which a
    removal elsewhere leaves as they are, so one pass finds them all.  The
    public constructor, from_knot_data, restrict and extend_to_real_line
    share these checks.
    """
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
    return {"slopes": (slopes[0], *(slopes[j + 1] for j in keep)), "anchor": anchor,
            "xs": tuple(xs[j] for j in keep), "lefts": tuple(lefts[j] for j in keep),
            "rights": tuple(rights[j] for j in keep)}


def _from_columns(domain: Interval, xs, lefts, rights, slopes, anchor) -> PiecewiseMonotone:
    """The canonical class with these columns of rationals, checked as the
    public constructor checks them but without any Breakpoint."""
    return _trusted(PiecewiseMonotone, domain=domain,
                    **_checked_columns(domain, xs, lefts, rights, slopes, anchor))


def _cached(g: PiecewiseMonotone, name: str, build):
    """The derived table `name` of g, built on first use and kept on the instance.

    Instances are immutable, so a table never goes stale; it lives outside
    the dataclass fields and takes no part in equality, hashing or repr.
    """
    table = g.__dict__.get(name)
    if table is None:
        table = g.__dict__[name] = build(g)
    return table


def _between(xs, lo, hi) -> tuple[int, int]:
    """(i, j) such that xs[i:j] are the points of the sorted rationals xs
    strictly between the extended reals lo and hi.  For xs = g.xs,
    segments(g)[i:j + 1] are then the segments of g that meet the open
    interval (lo, hi)."""
    i = bisect_right(xs, lo) if is_finite(lo) else 0
    j = bisect_left(xs, hi) if is_finite(hi) else len(xs)
    return i, j


def validate(g: PiecewiseMonotone) -> PiecewiseMonotone:
    """g rebuilt through the public constructors, which re-check every
    representation invariant; equal to g exactly when g is canonical."""
    return PiecewiseMonotone(g.domain, g.breaks, g.slopes, g.anchor)


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
    xs, lefts, rights, slopes = g.xs, g.lefts, g.rights, g.slopes
    # the first segment runs to lo from (x0, v0), the last to hi from (x1, v1)
    (x0, v0), (x1, v1) = ((xs[0], lefts[0]), (xs[-1], rights[-1])) if xs else (g.anchor,) * 2
    s = slopes[0]
    u = v0 - s * (x0 - lo) if is_finite(lo) else (v0 if s == 0 else NEG_INF)
    s = slopes[-1]
    v = v1 + s * (hi - x1) if is_finite(hi) else (v1 if s == 0 else POS_INF)
    if not xs:
        return (Segment(lo, hi, u, v, s),)
    return (Segment(lo, xs[0], u, lefts[0], slopes[0]),
            *map(Segment, xs, xs[1:], rights, lefts[1:], slopes[1:]),
            Segment(xs[-1], hi, rights[-1], v, s))


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

    xs = g.xs
    if not xs:
        ax, av = g.anchor
        return av + g.slopes[0] * (x - ax)
    i = bisect_left(xs, x)
    if i < len(xs) and xs[i] == x:
        return g.lefts[i] if version is LEFT else g.rights[i]
    if i == 0:
        return g.lefts[0] - g.slopes[0] * (xs[0] - x)
    return g.rights[i - 1] + g.slopes[i] * (x - xs[i - 1])


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
    return Interval(*value_bounds(g))


def supporting_interval(g: PiecewiseMonotone) -> Interval:
    """Closed convex hull of the support of the associated measure."""
    m, M = value_bounds(g)
    return closed_iv(last_x_with_right_le(g, m), first_x_with_left_ge(g, M))


# ---------------------------------------------------------------------------
# structure queries


def flats(g: PiecewiseMonotone) -> list[tuple[Interval, object]]:
    """Maximal open intervals where g is constant, with the constant value."""
    return [(Interval(seg.a, seg.b), seg.u) for seg in segments(g) if seg.slope == 0]


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


def jumps(g: PiecewiseMonotone) -> list[int]:
    """Indices of the interior jump knots: the i with g.lefts[i] < g.rights[i]."""
    return [i for i, (left, right) in enumerate(zip(g.lefts, g.rights)) if left < right]


def jump_count_extended(g: PiecewiseMonotone) -> int:
    """Jumps of the embedded function, counting the +-inf jumps at finite domain ends."""
    return len(jumps(g)) + is_finite(g.domain.lo) + is_finite(g.domain.hi)


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
    xs, lefts, rights = g.xs, g.lefts, g.rights
    out = []
    if is_finite(g.domain.lo):
        out.append(Segment(NEG_INF, gsegs[0].u, g.domain.lo, g.domain.lo, ZERO))
    # segment i ends at knot i; a jump there is a flat of the inverse
    for i, seg in enumerate(gsegs):
        s = seg.slope
        if s != 0:
            # the reciprocal of s > 0, without the number type's reflected 1 / s
            out.append(Segment(seg.u, seg.v, seg.a, seg.b, rat(s.denominator, s.numerator)))
        if i < len(xs) and lefts[i] < rights[i]:
            out.append(Segment(lefts[i], rights[i], xs[i], xs[i], ZERO))
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
    slopes = tuple(seg.slope for seg in segs)
    lefts = tuple(seg.v for seg in segs[:-1])
    rights = tuple(seg.u for seg in segs[1:])
    if all(s == 0 for s in slopes) and lefts == rights:
        raise ConstantFunction("the generalized inverse would be constant")

    anchor = None
    if len(segs) == 1:
        # the mirror of g's only segment that rises
        probe = _probe_point(Interval(segs[0].a, segs[0].b))
        anchor = (probe, _level_x(g, next(seg for seg in segments(g) if seg.slope != 0), probe))
    return _trusted(PiecewiseMonotone, domain=inverse_domain(g), slopes=slopes, anchor=anchor,
                    xs=tuple(seg.a for seg in segs[1:]), lefts=lefts, rights=rights)


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

    i, j = _between(g.xs, iv.lo, iv.hi)
    anchor = None
    if i == j:
        probe = _probe_point(iv)
        anchor = (probe, evaluate(g, probe, RIGHT))
    return _from_columns(iv, g.xs[i:j], g.lefts[i:j], g.rights[i:j], g.slopes[i:j + 1], anchor)


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
    segs = segments(g)
    columns = [list(g.xs), list(g.lefts), list(g.rights), list(g.slopes)]
    if is_finite(g.domain.lo):
        u = segs[0].u
        for column, value in zip(columns, (g.domain.lo, u, u, ZERO)):
            column.insert(0, value)
    if is_finite(g.domain.hi):
        v = segs[-1].v
        for column, value in zip(columns, (g.domain.hi, v, v, ZERO)):
            column.append(value)
    return _from_columns(REAL_LINE, *columns, None)


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
    return _from_columns(domain, xs, lefts, rights, slopes,
                         None if xs else (anchor_x, anchor_value))


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
    """Finite x-coordinates where the structure of g changes."""
    pts = [*g.xs, g.domain.lo, g.domain.hi]
    if g.anchor is not None:
        pts.append(g.anchor[0])
    return sorted({x for x in pts if is_finite(x)})


def structural_values(g: PiecewiseMonotone) -> list:
    """Finite values attained or approached at the structure points of g."""
    vals = [*g.lefts, *g.rights, *value_bounds(g)]
    if g.anchor is not None:
        vals.append(g.anchor[1])
    return sorted({v for v in vals if is_finite(v)})


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
