"""Locally finite Borel measures on an open interval, exactly.

A measure here is a finite list of atoms, held as two columns (locations
and masses), plus the density of its absolutely continuous part, a step
class on the carrier (0 where there is no mass).
This class is closed under the correspondence with non-decreasing
functions, under Lebesgue decomposition (the singular part is purely atomic
by construction) and under pushforward along piecewise-affine monotone
maps, so equality of measures is a structural comparison of canonical forms.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from monoinv import monotone as mono
from monoinv.errors import (
    AmbiguousComposition,
    AnchorOutsideCarrier,
    CarrierMismatch,
    InternalInconsistency,
    NotAbsolutelyContinuous,
    NotLocallyFinite,
    PreconditionFailed,
    VersionAmbiguous,
    ZeroMeasure,
)
from monoinv.exactnum import ONE, ZERO, as_q
from monoinv.intervals import (
    POS_INF,
    Interval,
    is_finite,
    require_open,
    require_open_nonempty,
)
from monoinv.monotone import (
    LEFT,
    RIGHT,
    PiecewiseMonotone,
    _trusted,
    evaluate,
    inverse_domain,
    jumps,
    preimage_interior,
)


def _checked_atom(x, mass) -> tuple:
    """(x, mass) as rationals, once mass > 0."""
    x, mass = as_q(x), as_q(mass)
    if mass <= 0:
        raise ValueError("atom mass must be positive")
    return x, mass


@dataclass(frozen=True, init=False)
class PiecewiseMeasure:
    """Atoms plus an absolutely continuous part on an open carrier interval.

    Canonical form: the atoms as columns, atom_xs increasing with their
    atom_masses, and abs_density, the density of the absolutely continuous
    part as a step class on the carrier, 0 between pieces.  The zero measure
    has no atoms and the zero density.  The public constructor takes atoms
    as (x, mass) and uniform pieces as (interval, density) tuples, validates
    them (positive masses and densities, open nonempty pieces inside the
    carrier, disjoint) and canonicalises in one stable sort and one linear
    pass each; sorting input that is already sorted costs n-1 comparisons.
    The pieces become cells there, in _density_step.  The library's own
    builders (associated_measure, lebesgue_decompose, lebesgue_on, pushforward,
    samples.samples_to_measure) skip it (_measure); the tests pin each to its
    public rebuild.  The columns are the only way to read the atoms and pieces back.
    """

    carrier: Interval
    atom_xs: tuple
    atom_masses: tuple
    abs_density: StepFunction

    def __init__(self, carrier: Interval, atoms=(), pieces=()):
        require_open_nonempty(carrier, "carrier")
        atoms = [_checked_atom(*a) for a in atoms]
        checked = []
        for iv, d in pieces:
            d = as_q(d)
            require_open_nonempty(iv, "uniform piece")
            if d <= 0:
                raise ValueError("piece density must be positive")
            checked.append((iv, d))

        for x, _ in atoms:
            if not carrier.contains(x):
                raise CarrierMismatch(f"atom at {x} outside carrier {carrier}")
        atoms.sort(key=itemgetter(0))
        xs, masses = [], []
        for x, mass in atoms:
            if xs and xs[-1] == x:
                masses[-1] += mass
            else:
                xs.append(x)
                masses.append(mass)

        # disjoint pieces have distinct left ends, and two pieces with the
        # same left end fail the disjointness check whatever their order
        checked.sort(key=lambda p: p[0].lo)
        for iv, _ in checked:
            if not carrier.contains_interval(iv):
                raise CarrierMismatch(f"piece {iv} outside carrier {carrier}")
        for (p, _), (q, _) in zip(checked, checked[1:]):
            if q.lo < p.hi:
                raise ValueError("uniform pieces must be pairwise disjoint")

        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "atom_xs", tuple(xs))
        object.__setattr__(self, "atom_masses", tuple(masses))
        object.__setattr__(self, "abs_density", _density_step(
            carrier, [(iv.lo, iv.hi, d) for iv, d in checked]))

    @property
    def is_zero(self):
        return not self.atom_xs and self.abs_density.values == (ZERO,)


def _measure(carrier: Interval, atom_xs, atom_masses, abs_density) -> PiecewiseMeasure:
    """The measure with these canonical columns, made without any check."""
    return _trusted(PiecewiseMeasure, carrier=carrier, atom_xs=atom_xs,
                    atom_masses=atom_masses, abs_density=abs_density)


def _density_step(carrier: Interval, pieces) -> StepFunction:
    """The density that is d on each (lo, hi, d) of pieces and 0 elsewhere,
    as a step class on carrier: the one place pieces become cells.

    The pieces are sorted, disjoint, of positive density and inside the
    carrier, so only the first piece's lower end and the last piece's upper
    end can be an end of the carrier.  Touching pieces of equal density
    join in the cell merge.
    """
    knots, values = [], [ZERO]
    for lo, hi, d in pieces:
        if knots and knots[-1] == lo:
            values[-1] = d  # the piece starts where the previous one ended
        elif knots or carrier.contains(lo):
            knots.append(lo)
            values.append(d)
        else:
            values[-1] = d  # the first piece starts at the carrier's end
        knots.append(hi)
        values.append(ZERO)
    if knots and not carrier.contains(knots[-1]):
        knots.pop()
        values.pop()
    return _canonical_step(carrier, knots, values)


@dataclass(frozen=True)
class StepFunction:
    """An a.e. class of piecewise-constant nonnegative functions.

    No values are stored at the knots; adjacent cells with equal value are
    merged, so equality of step functions is equality of a.e. classes.  The
    public constructor validates and merges; the library's own builders
    skip the validation (_trusted, _canonical_step, _density_step).
    """

    carrier: Interval
    knots: tuple = ()
    values: tuple = (ZERO,)

    def __post_init__(self):
        require_open_nonempty(self.carrier, "carrier")
        knots = tuple(as_q(k) for k in self.knots)
        values = tuple(as_q(v) for v in self.values)
        if len(values) != len(knots) + 1:
            raise ValueError("need one value per cell")
        for v in values:
            if v < 0:
                raise ValueError("step values must be nonnegative")
        for a, b in zip(knots, knots[1:]):
            if not a < b:
                raise ValueError("knots must be strictly increasing")
        if knots and not (self.carrier.contains(knots[0]) and self.carrier.contains(knots[-1])):
            raise ValueError("knots must be interior to the carrier")
        knots, values = _merge_cells(knots, values)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

    def cells(self):
        """(lo, hi, value) triples covering the carrier, left to right, once."""
        return zip(chain((self.carrier.lo,), self.knots),
                   chain(self.knots, (self.carrier.hi,)), self.values)

    def value_at(self, t):
        """Value of the cell containing t; t must not sit on a knot."""
        t = as_q(t)
        if not self.carrier.contains(t):
            raise ValueError(f"{t} outside carrier")
        i = bisect_left(self.knots, t)
        if i < len(self.knots) and self.knots[i] == t:
            raise ValueError(f"{t} is a knot; the class has no value there")
        return self.values[i]


def _merge_cells(knots, values) -> tuple[tuple, tuple]:
    """The knots and values of a step class with equal neighbouring cells joined."""
    ks, vs = [], [values[0]]
    for k, v in zip(knots, values[1:]):
        if v == vs[-1]:
            continue
        ks.append(k)
        vs.append(v)
    return tuple(ks), tuple(vs)


def _canonical_step(carrier: Interval, knots, values) -> StepFunction:
    """The step class of valid cells that may repeat a value; of the public
    constructor's work only the cell merge is left to do."""
    knots, values = _merge_cells(knots, values)
    return _trusted(StepFunction, carrier=carrier, knots=knots, values=values)


def step_compose(f: StepFunction, g: PiecewiseMonotone) -> StepFunction:
    """The a.e. class of f o g on int(g^{-1}(carrier of f)).

    Well-defined after refining at the preimages of f's knots, except when
    g is constant at a knot value of f on a set of positive length: the
    class has no value there and AmbiguousComposition is raised.
    """
    target = preimage_interior(g, f.carrier)
    if target.is_empty:
        raise CarrierMismatch("g never enters the carrier of f")

    starts, ends, us, vs = mono._segment_columns(g)
    cut = {g.xs[i] for i in jumps(g) if target.contains(g.xs[i])}
    first, last = mono._between(g.xs, target.lo, target.hi)
    for seg in range(first, last + 1):  # the segments that meet the target
        for end in (max(starts[seg], target.lo), min(ends[seg], target.hi)):
            if is_finite(end) and target.contains(end):
                cut.add(end)
        if g.slopes[seg] == 0:
            continue
        i, j = mono._between(f.knots, us[seg], vs[seg])
        for k in f.knots[i:j]:
            x = mono._level_x(g, seg, k)
            if target.contains(x):
                cut.add(x)

    knots = sorted(cut)
    bounds = [target.lo, *knots, target.hi]
    values = []
    for a, b in zip(bounds, bounds[1:]):
        probe = mono._probe_point(Interval(a, b))
        seg = bisect_right(g.xs, probe)
        if g.slopes[seg] == 0:
            c = us[seg]
            i = bisect_left(f.knots, c)
            if i < len(f.knots) and f.knots[i] == c:
                raise AmbiguousComposition(
                    f"g is constant at the knot value {c} of f on a set of positive length")
            values.append(f.value_at(c))
        else:
            values.append(f.value_at(evaluate(g, probe, RIGHT)))
    return StepFunction(target, tuple(knots), tuple(values))


# ---------------------------------------------------------------------------
# measure <-> distribution function


@mono._cached
def associated_measure(g: PiecewiseMonotone) -> PiecewiseMeasure:
    """Atoms from the jumps of g; the density of the absolutely continuous
    part is the step class of g's slopes (0 on its flats).  Built once per
    instance."""
    at = jumps(g)
    return _measure(g.domain, tuple(g.xs[i] for i in at),
                    tuple(g.rights[i] - g.lefts[i] for i in at), step_of_slopes(g))


def measure_of_open(m: PiecewiseMeasure, lo, hi):
    """Exact mass of an open interval (lo, hi); POS_INF when infinite.

    Bisection finds the atoms inside (lo, hi) and the cells of the density
    that meet it, so a probe costs the log of the measure's size plus the
    number of atoms and cells it covers.
    """
    iv = Interval(lo, hi)
    if iv.is_empty:
        return ZERO
    total = ZERO
    i, j = mono._between(m.atom_xs, iv.lo, iv.hi)
    for mass in m.atom_masses[i:j]:
        total = total + mass
    dens = m.abs_density
    # cells i..j meet (lo, hi); clipped to it, they run between these ends
    i, j = mono._between(dens.knots, iv.lo, iv.hi)
    ends = (max(iv.lo, dens.carrier.lo), *dens.knots[i:j], min(iv.hi, dens.carrier.hi))
    for a, b, v in zip(ends, ends[1:], dens.values[i:j + 1]):
        if v != 0 and a < b:
            if not (is_finite(a) and is_finite(b)):
                return POS_INF
            total = total + v * (b - a)
    return total


def distribution_function(m: PiecewiseMeasure, z) -> PiecewiseMonotone:
    """The right-continuous distribution function anchored to 0 at z.

    Changing z shifts the result by a constant; the associated measure of
    the result is m again.  The knots come from one linear merge of m's
    atoms with its density's knots, both already sorted in canonical form.
    Each knot carries an atom or changes the density (neighbouring cells of
    a step class differ), so none is removable and the result skips the
    public constructor.
    """
    z = as_q(z)
    if m.is_zero:
        raise ZeroMeasure("the zero measure corresponds to the excluded constant class")
    if not m.carrier.contains(z):
        raise AnchorOutsideCarrier(f"anchor {z} outside carrier {m.carrier}")

    knots, values = m.abs_density.knots, m.abs_density.values
    atom_xs, masses = m.atom_xs, m.atom_masses
    # merge the atoms into the knots, both sorted; a point that only carries
    # an atom keeps the slope of the cell it falls in
    pts, sizes, slopes = [], [], [values[0]]
    ai, na = 0, len(atom_xs)
    for k, v in zip(knots, values[1:]):
        while ai < na and atom_xs[ai] < k:
            pts.append(atom_xs[ai])
            sizes.append(masses[ai])
            slopes.append(slopes[-1])
            ai += 1
        if ai < na and atom_xs[ai] == k:
            sizes.append(masses[ai])
            ai += 1
        else:
            sizes.append(ZERO)
        pts.append(k)
        slopes.append(v)
    pts += atom_xs[ai:]
    sizes += masses[ai:]
    slopes += [slopes[-1]] * (na - ai)

    lefts, rights = mono._knot_limits(pts, sizes, slopes, z, ZERO)
    # without knots, one cell of positive density spans the carrier
    return _trusted(PiecewiseMonotone, domain=m.carrier, slopes=tuple(slopes),
                    anchor=None if pts else (z, ZERO),
                    xs=tuple(pts), lefts=tuple(lefts), rights=tuple(rights))


# ---------------------------------------------------------------------------
# decomposition, density, absolute continuity


def lebesgue_decompose(m: PiecewiseMeasure) -> tuple[PiecewiseMeasure, PiecewiseMeasure]:
    """Unique split into an absolutely continuous and a purely atomic part."""
    return (_measure(m.carrier, (), (), m.abs_density),
            _measure(m.carrier, m.atom_xs, m.atom_masses, _density_step(m.carrier, ())))


def density(m: PiecewiseMeasure) -> StepFunction:
    """The Radon-Nikodym derivative w.r.t. Lebesgue measure, as a step class."""
    if m.atom_xs:
        raise NotAbsolutelyContinuous("the measure has atoms")
    return m.abs_density


def lebesgue_on(iv: Interval, carrier: Interval) -> PiecewiseMeasure:
    """Lebesgue measure restricted to an open interval iv, carried on an open
    carrier that contains iv."""
    require_open(iv)
    require_open_nonempty(carrier, "carrier")
    if not carrier.contains_interval(iv):
        raise CarrierMismatch(f"interval {iv} outside carrier {carrier}")
    pieces = () if iv.is_empty else ((iv.lo, iv.hi, ONE),)
    return _measure(carrier, (), (), _density_step(carrier, pieces))


def _gallop(xs, x, lo: int) -> int:
    """bisect_left(xs, x, lo) in 2 log2(d) comparisons for the answer lo + d."""
    step, hi = 1, lo
    while hi < len(xs) and xs[hi] < x:
        lo, hi, step = hi + 1, hi + step, 2 * step
    return bisect_left(xs, x, lo, min(hi, len(xs)))


def is_abs_cont_wrt(a: PiecewiseMeasure, b: PiecewiseMeasure) -> bool:
    """Exact decision of a << b on the representable class.

    Atoms of a must coincide with atoms of b, and b's density must be
    positive almost everywhere a's is.  For each cell of a, a galloping search finds the last
    of b's cells that meet it: O(log d) comparisons for d cells, each tested for 0 by truth value.
    """
    if a.carrier is not b.carrier and a.carrier != b.carrier:
        raise CarrierMismatch("absolute continuity needs a common carrier")
    if a.atom_xs and not set(a.atom_xs) <= set(b.atom_xs):
        return False
    a_knots, b_knots, bv = a.abs_density.knots, b.abs_density.knots, b.abs_density.values
    j, n = 0, len(b_knots)  # b's cells j.. end above the start of a's current cell
    for i, v in enumerate(a.abs_density.values):
        k = _gallop(b_knots, a_knots[i], j) if i < len(a_knots) else n
        if v and not all(bv[j:k + 1]):  # b's cells j..k meet a's cell i
            return False
        j = k + (k < n and b_knots[k] == a_knots[i])
    return True


# ---------------------------------------------------------------------------
# pushforward


def pushforward(m: PiecewiseMeasure, t: PiecewiseMonotone) -> PiecewiseMeasure:
    """Image measure of m under the real restriction of t.

    Atoms move to their image point (masses add on collision); a cell of
    positive density maps segment by segment: through a rising piece of
    slope s the density divides by s, through a flat it collapses to an
    atom at the flat's value.
    """
    if not t.domain.contains_interval(m.carrier):
        raise CarrierMismatch("carrier of the measure must lie inside the domain of the map")
    jump_xs = {t.xs[i] for i in jumps(t)}
    out_atoms = defaultdict(lambda: ZERO)  # masses add on collision
    for x, mass in zip(m.atom_xs, m.atom_masses):
        if x in jump_xs:
            raise VersionAmbiguous(
                f"atom at {x} sits on a jump of the map; the image depends on the version")
        out_atoms[evaluate(t, x, RIGHT)] += mass

    starts, ends, us, vs = mono._segment_columns(t)
    out_pieces = []
    for c_lo, c_hi, d in m.abs_density.cells():
        if d == 0:
            continue
        i, j = mono._between(t.xs, c_lo, c_hi)
        for seg in range(i, j + 1):
            lo = max(c_lo, starts[seg])
            hi = min(c_hi, ends[seg])
            if t.slopes[seg] == 0:
                if not (is_finite(lo) and is_finite(hi)):
                    raise NotLocallyFinite(
                        "a flat of infinite length carries infinite mass to one point")
                out_atoms[us[seg]] += d * (hi - lo)
            else:
                # the columns hold the limits at the segment's own ends
                u = evaluate(t, lo, RIGHT) if starts[seg] < lo else us[seg]
                v = evaluate(t, hi, LEFT) if hi < ends[seg] else vs[seg]
                out_pieces.append((u, v, d / t.slopes[seg]))

    carrier = inverse_domain(t)
    atom_xs = tuple(sorted(out_atoms))
    # the images lie in the closed hull of t's values; only an atom at the
    # value of a flat reaching an infinite end of t's domain can land on the
    # boundary of the carrier, and there is at most one at each end
    for x in atom_xs[:1] + atom_xs[-1:]:
        if not carrier.contains(x):
            raise CarrierMismatch(f"atom at {x} outside carrier {carrier}")
    # the images of disjoint cells are disjoint; sorted, they may touch
    out_pieces.sort()
    return _measure(carrier, atom_xs, tuple(out_atoms[x] for x in atom_xs),
                    _density_step(carrier, out_pieces))


# ---------------------------------------------------------------------------
# absolute continuity of the generalized inverse, and the inverse rule


@mono._cached
def step_of_slopes(g: PiecewiseMonotone) -> StepFunction:
    """The slopes of g as a step class on its regular domain: the density of
    the absolutely continuous part of the associated measure.  Built once
    per instance."""
    return _canonical_step(g.domain, g.xs, g.slopes)


@mono._cached
def inverse_slope_step(g: PiecewiseMonotone) -> StepFunction:
    """Slopes of the generalized inverse of g, as a step class on the
    inverse's regular domain (the density of the inverse's abs. cont. part).
    Built once per instance."""
    xs, _, _, slopes = mono._inverse_columns(g)
    return _canonical_step(inverse_domain(g), xs, slopes)


def gen_inverse_abs_cont(g: PiecewiseMonotone, iv: Interval) -> bool:
    """Is the generalized inverse of g absolutely continuous on the open
    interval iv?

    Decided by three independent characterizations which a theorem makes
    equivalent: (1) the inverse has no jump inside iv, (2) g has no flat of
    positive length inside M = int(G^{-1}(iv)), (3) Lebesgue measure
    restricted to M is absolutely continuous w.r.t. the associated measure.
    Disagreement raises InternalInconsistency.
    """
    require_open_nonempty(iv, "interval")
    if not inverse_domain(g).contains_interval(iv):
        raise PreconditionFailed("interval must lie inside the inverse's regular domain")

    flats = mono.flats(g)
    r1 = not any(iv.contains(value) for _, value in flats)

    m_int = preimage_interior(g, iv)
    r2 = not any(max(flat.lo, m_int.lo) < min(flat.hi, m_int.hi) for flat, _ in flats)

    r3 = is_abs_cont_wrt(lebesgue_on(m_int, g.domain), associated_measure(g))

    if not (r1 == r2 == r3):
        raise InternalInconsistency(
            f"absolute-continuity characterizations disagree: {r1}, {r2}, {r3}")
    return r1


def inverse_rule_check(g: PiecewiseMonotone) -> tuple[StepFunction, StepFunction] | None:
    """Both sides of the inverse-function rule on the mass interval M of g.

    The rule q' = 1 / (F' o q), read on the distribution function's side,
    says g' = 1 / (h' o g) on M, h' being the density of the generalized
    inverse.  Returns the step classes (h' o g, 1 / g') on M, computed by
    step_compose and from g's slopes; they are equal iff the rule holds.
    None when M is empty.  Requires the inverse to be absolutely continuous
    on its whole domain, so that g rises on every piece of M.
    """
    if not gen_inverse_abs_cont(g, inverse_domain(g)):
        raise PreconditionFailed("the generalized inverse is not absolutely continuous")
    m_int = mono.mass_interval(g)
    if m_int.is_empty:
        return None
    i, j = mono._between(g.xs, m_int.lo, m_int.hi)
    reciprocal = StepFunction(m_int, g.xs[i:j], tuple(1 / s for s in g.slopes[i:j + 1]))
    return step_compose(inverse_slope_step(g), g), reciprocal
