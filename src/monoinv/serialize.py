"""JSON-friendly exact serialization, and parsing of DistributionSpec documents.

All rationals travel as strings ('p/q' in lowest terms, bare integers
without the denominator); infinite endpoints as 'inf'/'-inf'.  Numbers are
never emitted as JSON floats, so serialized values round-trip bit-exactly.
"""

from __future__ import annotations

from monoinv.errors import CarrierMismatch, ParseError, SpecError
from monoinv.exactnum import fmt_ratio, parse_ratio, shown
from monoinv.intervals import NEG_INF, POS_INF, REAL_LINE, ClosedInterval, Interval, is_finite
from monoinv.measure import PiecewiseMeasure, StepFunction
from monoinv.monotone import PiecewiseMonotone


def er_to_str(x) -> str:
    if x is NEG_INF:
        return "-inf"
    if x is POS_INF:
        return "inf"
    return fmt_ratio(x)


def str_to_er(s: str):
    t = s.strip().lower()
    if t in ("-inf", "-infinity"):
        return NEG_INF
    if t in ("inf", "+inf", "infinity"):
        return POS_INF
    return parse_ratio(s)


def interval_to_json(iv: Interval | ClosedInterval) -> dict:
    """{"lo", "hi"}; a closed interval adds whether each end is closed (each
    finite end is) unless both ends are infinite."""
    if iv.__class__ is Interval and iv.is_empty:
        return {"empty": True}
    out = {"lo": er_to_str(iv.lo), "hi": er_to_str(iv.hi)}
    if iv.__class__ is ClosedInterval and (is_finite(iv.lo) or is_finite(iv.hi)):
        out["lo_closed"] = is_finite(iv.lo)
        out["hi_closed"] = is_finite(iv.hi)
    return out


class Rows:
    """A JSON list made lazily from columns, for the streaming report writer:
    each row is a tuple of number strings, an object with these keys, or one
    number string when keys is None."""

    def __init__(self, keys, rows):
        self.keys, self.rows = keys, rows


def _rows(keys, rows, lazy):
    """The rows as Rows when lazy, else as a list of plain JSON values."""
    if lazy:
        return Rows(keys, rows)
    return list(rows) if keys is None else [dict(zip(keys, row)) for row in rows]


def monotone_to_json(g: PiecewiseMonotone, lazy: bool = False) -> dict:
    texts = map(fmt_ratio, g.lefts)  # as drawn; a limit object on both sides of a knot, once
    out = {
        "domain": interval_to_json(g.domain),
        "breakpoints": _rows(("x", "left", "right"), (
            (fmt_ratio(x), t, t if right is left else fmt_ratio(right))
            for x, left, right, t in zip(g.xs, g.lefts, g.rights, texts)), lazy),
        "slopes": _rows(None, map(fmt_ratio, g.slopes), lazy),
    }
    if g.anchor is not None:
        out["anchor"] = {"x": fmt_ratio(g.anchor[0]), "value": fmt_ratio(g.anchor[1])}
    return out


def _piece_rows(dens: StepFunction):
    """(a, b, density) of each nonzero cell; each knot bounds one (cells differ), formatted once."""
    a, last = er_to_str(dens.carrier.lo), len(dens.knots)
    for i, d in enumerate(dens.values):
        b = fmt_ratio(dens.knots[i]) if i < last else er_to_str(dens.carrier.hi)
        if d:
            yield a, b, fmt_ratio(d)
        a = b


def measure_to_spec_json(m: PiecewiseMeasure, lazy: bool = False) -> dict:
    """Canonical DistributionSpec form; feeding it back reproduces m."""
    return {
        "carrier": interval_to_json(m.carrier),
        "atoms": atoms_to_json(m, lazy),
        "uniform_pieces": _rows(("a", "b", "density"), _piece_rows(m.abs_density), lazy),
    }


def atoms_to_json(m: PiecewiseMeasure, lazy: bool = False) -> list | Rows:
    return _rows(("x", "mass"), zip(map(fmt_ratio, m.atom_xs), map(fmt_ratio, m.atom_masses)),
                 lazy)


def step_to_json(f: StepFunction, lazy: bool = False) -> dict:
    return {
        "carrier": interval_to_json(f.carrier),
        "knots": _rows(None, map(fmt_ratio, f.knots), lazy),
        "values": _rows(None, map(fmt_ratio, f.values), lazy),
    }


def modal_to_json(mi) -> list | None:
    if mi is None:
        return None
    return [er_to_str(mi.lo), er_to_str(mi.hi)]


# ---------------------------------------------------------------------------
# DistributionSpec parsing


def _number(raw, what, parse=parse_ratio):
    """The string raw read by parse; what names the field in the error."""
    if not isinstance(raw, str):
        kind = "" if parse is str_to_er else " ('p/q' or decimal)"
        raise ParseError(f"{what} must be a string{kind}, got {shown(raw)}")
    try:
        return parse(raw)
    except ParseError as e:
        raise ParseError(f"bad {what}: {e}") from e


def _list_field(doc, key):
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{key} must be a list")
    return value


def spec_to_measure(doc) -> PiecewiseMeasure:
    """Build the measure described by a DistributionSpec document."""
    if not isinstance(doc, dict):
        raise ParseError("spec must be a JSON object")
    carrier = REAL_LINE
    if doc.get("carrier") is not None:
        c = doc["carrier"]
        if not isinstance(c, dict):
            raise ParseError("carrier must be an object with lo/hi")
        lo = _number(c.get("lo", "-inf"), "carrier.lo", str_to_er)
        hi = _number(c.get("hi", "inf"), "carrier.hi", str_to_er)
        try:  # after the ends are read: a ParseError is a ValueError too
            carrier = Interval(lo, hi)
        except ValueError as e:
            raise SpecError(f"bad carrier: {e}") from e
        if carrier.is_empty:
            raise SpecError("carrier is empty")

    atoms = []
    for i, a in enumerate(_list_field(doc, "atoms")):
        if not isinstance(a, dict) or "x" not in a or "mass" not in a:
            raise ParseError(f"atom #{i} needs fields x and mass")
        x = _number(a["x"], f"atom #{i} x")
        mass = _number(a["mass"], f"atom #{i} mass")
        if mass <= 0:
            raise SpecError(f"atom #{i} has nonpositive mass")
        atoms.append((x, mass))

    pieces = []
    for i, p in enumerate(_list_field(doc, "uniform_pieces")):
        if not isinstance(p, dict) or "a" not in p or "b" not in p:
            raise ParseError(f"piece #{i} needs fields a and b")
        if ("mass" in p) == ("density" in p):
            raise SpecError(f"piece #{i} needs exactly one of mass or density")
        lo = _number(p["a"], f"piece #{i} a", str_to_er)
        hi = _number(p["b"], f"piece #{i} b", str_to_er)
        if not lo < hi:
            raise SpecError(f"piece #{i} has a >= b")
        key = "mass" if "mass" in p else "density"
        d = _number(p[key], f"piece #{i} {key}")
        if d <= 0:
            raise SpecError(f"piece #{i} has nonpositive {key}")
        if key == "mass":
            if not (is_finite(lo) and is_finite(hi)):
                raise SpecError(f"piece #{i}: mass on an infinite piece; give a density")
            d = d / (hi - lo)
        pieces.append((Interval(lo, hi), d))

    if not atoms and not pieces:
        raise SpecError("the spec describes the zero measure")
    try:
        return PiecewiseMeasure(carrier, tuple(atoms), tuple(pieces))
    except (ValueError, CarrierMismatch) as e:
        raise SpecError(str(e)) from e
