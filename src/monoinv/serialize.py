"""JSON-friendly exact serialization.

All rationals travel as strings ('p/q' in lowest terms, bare integers
without the denominator); infinite endpoints as 'inf'/'-inf'.  Numbers are
never emitted as JSON floats, so serialized values round-trip bit-exactly.
"""

from __future__ import annotations

from monoinv.exactnum import fmt_ratio, parse_ratio
from monoinv.intervals import NEG_INF, POS_INF, Interval
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
            {
                "a": er_to_str(p.interval.lo),
                "b": er_to_str(p.interval.hi),
                "density": fmt_ratio(p.density),
            }
            for p in m.pieces
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
