"""JSON-friendly exact serialization, and parsing of DistributionSpec documents.

All rationals travel as strings ('p/q' in lowest terms, bare integers
without the denominator); infinite endpoints as 'inf'/'-inf'.  Numbers are
never emitted as JSON floats, so serialized values round-trip bit-exactly.
"""

from __future__ import annotations

from monoinv.errors import CarrierMismatch
from monoinv.exactnum import fmt_ratio, parse_ratio
from monoinv.intervals import NEG_INF, POS_INF, REAL_LINE, Interval, is_finite
from monoinv.measure import PiecewiseMeasure, StepFunction
from monoinv.monotone import PiecewiseMonotone


class _ParseError(Exception):
    """Exit 1: the input could not be read as a spec or sample file."""


class _SpecError(Exception):
    """Exit 2: the input parses but does not describe a valid measure."""


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


def interval_to_json(iv: Interval) -> dict:
    if iv.is_empty:
        return {"empty": True}
    out = {"lo": er_to_str(iv.lo), "hi": er_to_str(iv.hi)}
    if iv.lo_closed or iv.hi_closed:
        out["lo_closed"] = iv.lo_closed
        out["hi_closed"] = iv.hi_closed
    return out


def monotone_to_json(g: PiecewiseMonotone) -> dict:
    out = {
        "domain": interval_to_json(g.domain),
        "breakpoints": [
            {"x": fmt_ratio(b.x), "left": fmt_ratio(b.left), "right": fmt_ratio(b.right)}
            for b in g.breaks
        ],
        "slopes": [fmt_ratio(s) for s in g.slopes],
    }
    if g.anchor is not None:
        out["anchor"] = {"x": fmt_ratio(g.anchor[0]), "value": fmt_ratio(g.anchor[1])}
    return out


def measure_to_spec_json(m: PiecewiseMeasure) -> dict:
    """Canonical DistributionSpec form; feeding it back reproduces m."""
    return {
        "carrier": interval_to_json(m.carrier),
        "atoms": [{"x": fmt_ratio(a.x), "mass": fmt_ratio(a.mass)} for a in m.atoms],
        "uniform_pieces": [
            {"a": er_to_str(lo), "b": er_to_str(hi), "density": fmt_ratio(d)}
            for lo, hi, d in m.abs_density.cells() if d != 0
        ],
    }


def step_to_json(f: StepFunction) -> dict:
    return {
        "carrier": interval_to_json(f.carrier),
        "knots": [fmt_ratio(k) for k in f.knots],
        "values": [fmt_ratio(v) for v in f.values],
    }


def modal_to_json(mi) -> list | None:
    if mi is None:
        return None
    return [er_to_str(mi.lo), er_to_str(mi.hi)]


# ---------------------------------------------------------------------------
# DistributionSpec parsing


def _number(raw, what):
    if not isinstance(raw, str):
        raise _ParseError(f"{what} must be a string ('p/q' or decimal), got {raw!r}")
    try:
        return parse_ratio(raw)
    except ValueError as e:
        raise _ParseError(f"bad {what}: {e}") from e


def _endpoint(raw, what):
    if not isinstance(raw, str):
        raise _ParseError(f"{what} must be a string, got {raw!r}")
    try:
        return str_to_er(raw)
    except ValueError as e:
        raise _ParseError(f"bad {what}: {e}") from e


def _list_field(doc, key):
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise _ParseError(f"{key} must be a list")
    return value


def spec_to_measure(doc) -> PiecewiseMeasure:
    """Build the measure described by a DistributionSpec document."""
    if not isinstance(doc, dict):
        raise _ParseError("spec must be a JSON object")
    carrier = REAL_LINE
    if doc.get("carrier") is not None:
        c = doc["carrier"]
        if not isinstance(c, dict):
            raise _ParseError("carrier must be an object with lo/hi")
        try:
            carrier = Interval(_endpoint(c.get("lo", "-inf"), "carrier.lo"),
                               _endpoint(c.get("hi", "inf"), "carrier.hi"))
        except ValueError as e:
            raise _SpecError(f"bad carrier: {e}") from e
        if carrier.is_empty:
            raise _SpecError("carrier is empty")

    atoms = []
    for i, a in enumerate(_list_field(doc, "atoms")):
        if not isinstance(a, dict) or "x" not in a or "mass" not in a:
            raise _ParseError(f"atom #{i} needs fields x and mass")
        x = _number(a["x"], f"atom #{i} x")
        mass = _number(a["mass"], f"atom #{i} mass")
        if mass <= 0:
            raise _SpecError(f"atom #{i} has nonpositive mass")
        atoms.append((x, mass))

    pieces = []
    for i, p in enumerate(_list_field(doc, "uniform_pieces")):
        if not isinstance(p, dict) or "a" not in p or "b" not in p:
            raise _ParseError(f"piece #{i} needs fields a and b")
        has_mass = "mass" in p
        has_density = "density" in p
        if has_mass == has_density:
            raise _SpecError(f"piece #{i} needs exactly one of mass or density")
        lo = _endpoint(p["a"], f"piece #{i} a")
        hi = _endpoint(p["b"], f"piece #{i} b")
        if not lo < hi:
            raise _SpecError(f"piece #{i} has a >= b")
        iv = Interval(lo, hi)
        if has_density:
            d = _number(p["density"], f"piece #{i} density")
            if d <= 0:
                raise _SpecError(f"piece #{i} has nonpositive density")
        else:
            mass = _number(p["mass"], f"piece #{i} mass")
            if mass <= 0:
                raise _SpecError(f"piece #{i} has nonpositive mass")
            if not (is_finite(lo) and is_finite(hi)):
                raise _SpecError(f"piece #{i}: mass on an infinite piece; give a density")
            d = mass / (hi - lo)
        pieces.append((iv, d))

    if not atoms and not pieces:
        raise _SpecError("the spec describes the zero measure")
    try:
        return PiecewiseMeasure(carrier, tuple(atoms), tuple(pieces))
    except (ValueError, CarrierMismatch) as e:
        raise _SpecError(str(e)) from e
