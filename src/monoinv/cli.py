"""Command-line interface.

Subcommands: classify, invert, decompose, qdensity, ingest, verify.
Reports are JSON with all exact quantities as 'p/q' strings and contain no
timestamps, so identical inputs give byte-identical output; --stamp wraps
the body in an envelope that carries the timestamp outside of it.  Once the
analysis is done, a report is written to its sink as it is formatted, in blocks.

A sample file (--samples) is read by monoinv.samples.

Exit codes, each carried by its error class (monoinv.errors) for the
library's errors:
  0  success (classify: the distribution is unimodal)
  1  unreadable / unparseable input (bad JSON shapes, bytes that are not
     UTF-8, JSON nested too deeply, numbers of over 4,300 digits), or an
     --out file that cannot be written; verify: an unknown law id, --n or
     --max-knots below 1, --max-knots over 2,001, or a non-integer MONOINV_SEED;
     invert / qdensity: --plot-points below 1, or a plotted value beyond a float's range
  2  invalid specification (overlapping pieces, nonpositive mass, zero
     measure, bad anchor, too few samples); invert: a pure atom, whose
     quantile function is constant
  3  classify: not unimodal
  4  qdensity: no quantile density exists (inverse not absolutely continuous)
  5  verify: at least one law failed
  6  an internal consistency check failed: a bug in monoinv, not in the input
"""

from __future__ import annotations

import datetime
import json
import os
import sys

from itertools import islice

import click

from monoinv.errors import ConstantFunction, MonoinvError, ParseError, SpecError
from monoinv.exactnum import fmt_ratio, rat
from monoinv.intervals import POS_INF, REAL_LINE, Interval, is_finite
from monoinv.laws import GenConfig, LAW_IDS, run_law
from monoinv.measure import PiecewiseMeasure, associated_measure, distribution_function
from monoinv.monotone import (
    PiecewiseMonotone,
    _probe_point,
    generalized_inverse,
    inverse_domain,
    inverse_mass_interval,
    limits_at,
    mass_interval,
    structural_xs,
    supporting_interval,
)
from monoinv.serialize import (  # spec_to_measure is re-exported
    Rows,
    _number,
    atoms_to_json,
    interval_to_json,
    measure_to_spec_json,
    modal_to_json,
    monotone_to_json,
    spec_to_measure,
    step_to_json,
)
from monoinv.samples import (
    _degenerate,
    read_samples,
    read_text,
    samples_to_function,
    samples_to_measure,
    samples_to_spec,
)
from monoinv.unimodal import classify, quantile_density


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


# ---------------------------------------------------------------------------
# input handling


class _LongInt:
    """A JSON integer of more than 100 digits, left unconverted: no spec field
    takes a JSON number, and refusing one by name stays one short line."""

    def __repr__(self):
        return "a number of more than 100 digits"


def _json_int(s):
    """json.load's hook for an integer literal, whose conversion takes time
    quadratic in its length (a float literal converts in linear time)."""
    return _LongInt() if len(s.lstrip("-")) > 100 else int(s)


def _load_json(path):
    try:
        return json.loads(read_text(path), parse_int=_json_int)
    except RecursionError as e:
        raise ParseError(f"cannot read {path}: JSON nested too deeply") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e


def _default_anchor(carrier: Interval):
    return rat(0) if carrier.contains(rat(0)) else _probe_point(carrier)


_quote = json.encoder.encode_basestring_ascii
_BLOCK_ROWS = 256  # rows per write of a Rows: few writes, and a block's text stays small


def _write_json(o, write, indent="\n"):
    """Write o as json.dumps(o, indent=2) lays it out, byte for byte, for
    dicts with str keys, lists, tuples, iterators, Rows, str, bool, None, int
    and float; indent starts o's own line.  A list is written as its items
    are drawn, the rows of a Rows in blocks of _BLOCK_ROWS rows, one string each."""
    if isinstance(o, str):
        return write(_quote(o))
    if o is None or isinstance(o, (bool, int, float)):
        return write(json.dumps(o))
    inner, sep, close = indent + "  ", *("{}" if isinstance(o, dict) else "[]")
    if isinstance(o, Rows):  # its fields are number strings, which need no escaping
        rows, quote = iter(o.rows), '"'  # a block of one-string rows is a single join
        if o.keys is not None:
            row = "{" + ",".join(inner + "  " + _quote(k) + ': "%s"' for k in o.keys) + inner + "}"
            rows, quote = map(row.__mod__, rows), ""
        while block := list(islice(rows, _BLOCK_ROWS)):
            write(sep + inner + quote + (quote + "," + inner + quote).join(block) + quote)
            sep = ","
    else:
        for key, item in o.items() if close == "}" else ((None, item) for item in o):
            write(sep + inner + ("" if key is None else _quote(key) + ": "))
            _write_json(item, write, inner)
            sep = ","
    write(indent + close if sep == "," else sep + close)


def _emit(body, out, stamp):
    if stamp:
        body = {"body": body, "stamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    if not out:
        _write_json(body, sys.stdout.write)
        return click.echo()  # the final newline, and a flush
    try:
        with open(out, "w", encoding="utf-8") as fh:
            _write_json(body, fh.write)
            fh.write("\n")
    except OSError as e:
        _fail(1, f"cannot write {out}: {e}")


def _plot_window(g: PiecewiseMonotone) -> tuple:
    lo, hi = g.domain.lo, g.domain.hi
    pts = structural_xs(g)
    if not is_finite(lo):
        lo = (pts[0] if pts else rat(0)) - 1
    if not is_finite(hi):
        hi = (pts[-1] if pts else rat(0)) + 1
    return lo, hi


def _csv_value(v):
    if is_finite(v):
        return repr(float(v))
    return "inf" if v is POS_INF else "-inf"


def _plot_rows(g: PiecewiseMonotone, npoints: int):
    lo, hi = _plot_window(g)
    rows = ["x,left,right"]
    for i in range(npoints + 1):
        x = lo + (hi - lo) * i / npoints
        l, r = limits_at(g, x)
        rows.append(f"{float(x)!r},{_csv_value(l)},{_csv_value(r)}")
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# report assembly


def _interval_block(g: PiecewiseMonotone | None, f: PiecewiseMonotone | None = None) -> dict:
    """Regular domain I, mass interval M and supporting interval S of g.  A
    None g stands for the generalized inverse of f where that is constant,
    which has no supporting interval."""
    if g is None:
        return {"I": interval_to_json(inverse_domain(f)),
                "M": interval_to_json(inverse_mass_interval(f)), "S": {"empty": True}}
    return {"I": interval_to_json(g.domain), "M": interval_to_json(mass_interval(g)),
            "S": interval_to_json(supporting_interval(g))}


def _classification_block(c) -> dict:
    return {
        "cdf_unimodal": c.cdf_unimodal,
        "modes": modal_to_json(c.modes),
        "dens_unimodal_abs_part": c.dens_unimodal_abs_part,
        "quantile_unimodal": c.quantile_unimodal,
        "quantile_modes": modal_to_json(c.quantile_modes),
        "atom_at_mode": None if c.atom_at_mode is None else dict(
            zip(("x", "mass"), map(fmt_ratio, c.atom_at_mode))),
        "qf_absolutely_continuous": c.qf_absolutely_continuous,
    }


def _report(m: PiecewiseMeasure, anchor, **blocks) -> dict:
    """A command's report: the input echoed as a spec, the anchor, then the
    command's own blocks in order."""
    return {"echo": measure_to_spec_json(m, lazy=True), "anchor": fmt_ratio(anchor), **blocks}


def _decomposition_block(m: PiecewiseMeasure) -> dict:
    return {
        "atoms": atoms_to_json(m, lazy=True),
        "abs_density": step_to_json(m.abs_density, lazy=True),
    }


def _classify_report(m: PiecewiseMeasure, anchor, f: PiecewiseMonotone) -> tuple[dict, bool]:
    c = classify(f)
    warnings = []
    if m.carrier != REAL_LINE:
        warnings.append("classification applies to the measure extended by zero to the whole line")
    if c.quantile_density is None:
        qdens = None
        warnings.append("the generalized inverse has an interior jump; no quantile density exists")
    else:
        qdens = step_to_json(c.quantile_density, lazy=True)
    try:
        q = generalized_inverse(f)
    except ConstantFunction:
        q = None
    report = _report(
        m, anchor,
        classification=_classification_block(c),
        intervals={"F": _interval_block(f), "Q": _interval_block(q, f)},
        decomposition=_decomposition_block(m),
        quantile_density=qdens,
        warnings=warnings,
    )
    return report, c.cdf_unimodal


# ---------------------------------------------------------------------------
# commands


def _input_options(fn):
    fn = click.option("--spec", "spec_path", type=click.Path(), default=None,
                      help="DistributionSpec JSON file")(fn)
    fn = click.option("--samples", "samples_path", type=click.Path(), default=None,
                      help="sample file, one decimal per line")(fn)
    fn = click.option("--header", is_flag=True, help="skip the first sample line")(fn)
    fn = click.option("--allow-degenerate", is_flag=True,
                      help="accept single-valued samples as a pure atom")(fn)
    fn = click.option("--anchor", "anchor_str", default=None,
                      help="anchor point for the distribution function, as p/q")(fn)
    fn = click.option("--out", type=click.Path(), default=None, help="write the report here")(fn)
    fn = click.option("--stamp", is_flag=True,
                      help="wrap the report with a timestamp envelope")(fn)
    return fn


def _emit_or_plot(report, out, stamp, plot_points, g: PiecewiseMonotone):
    """Emit the report; with --plot-points N print N+1 CSV rows of g instead
    (the report then goes only to --out).  Exits."""
    if plot_points is not None:
        if plot_points < 1:
            _fail(1, "--plot-points must be at least 1")
        try:
            rows = _plot_rows(g, plot_points)
        except OverflowError:
            _fail(1, "--plot-points: a plotted value is beyond the range of a float")
        if out:
            _emit(report, out, stamp)
        click.echo(rows, nl=False)
    else:
        _emit(report, out, stamp)
    sys.exit(0)


def _prepared(spec_path, samples_path, header, allow_degenerate, anchor_str, function=True):
    """The input's measure, the anchor and, with function, the distribution
    function anchored to 0 there (else None).  Sample runs of two or more
    values go straight to that function, and the measure is its own."""
    if (spec_path is None) == (samples_path is None):
        _fail(1, "give exactly one of --spec FILE or --samples FILE")
    runs = None
    if spec_path is not None:
        m = spec_to_measure(_load_json(spec_path))
    else:
        runs = read_samples(samples_path, header)
        if _degenerate(runs, allow_degenerate) or not function:
            m, runs = samples_to_measure(runs), None
    carrier = REAL_LINE if runs else m.carrier
    anchor = _number(anchor_str, "--anchor") if anchor_str else _default_anchor(carrier)
    if not carrier.contains(anchor):
        raise SpecError(f"anchor {fmt_ratio(anchor)} outside carrier")
    if not function:
        return m, anchor, None
    f = distribution_function(m, anchor) if runs is None else samples_to_function(runs, anchor)
    return (m if runs is None else associated_measure(f)), anchor, f


class _Main(click.Group):
    """A library error ends any command with one `error:` line and its
    class's exit code, through sys.exit: with standalone_mode=False click
    would re-raise a ClickException, not exit."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except MonoinvError as e:
            _fail(e.exit_code, e.prefix + str(e))


@click.group(cls=_Main)
def main():
    """Exact classification of piecewise-affine distributions and replay of
    the monotone-inverse calculus."""
    # reports print every digit of their exact values, and sums of inputs
    # with long coprime denominators pass Python's default int-to-str limit
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


@main.command("classify")
@_input_options
def cmd_classify(spec_path, samples_path, header, allow_degenerate, anchor_str, out, stamp):
    """Classify unimodality; exit 0 when unimodal, 3 when not."""
    m, anchor, f = _prepared(spec_path, samples_path, header, allow_degenerate, anchor_str)
    report, unimodal = _classify_report(m, anchor, f)
    _emit(report, out, stamp)
    sys.exit(0 if unimodal else 3)


@main.command("invert")
@_input_options
@click.option("--plot-points", type=int, default=None,
              help="emit N+1 CSV evaluation rows of the inverse instead of the JSON report")
def cmd_invert(spec_path, samples_path, header, allow_degenerate, anchor_str, out, stamp,
               plot_points):
    """Compute the generalized inverse of the distribution function.

    Exits 2 on a pure atom (single-valued samples, even with
    --allow-degenerate): its quantile function is constant, a class the
    library excludes.
    """
    m, anchor, f = _prepared(spec_path, samples_path, header, allow_degenerate, anchor_str)
    q = generalized_inverse(f)
    report = _report(m, anchor, inverse=monotone_to_json(q, lazy=True),
                     intervals={"F": _interval_block(f), "Q": _interval_block(q)})
    _emit_or_plot(report, out, stamp, plot_points, q)


@main.command("decompose")
@_input_options
def cmd_decompose(spec_path, samples_path, header, allow_degenerate, anchor_str, out, stamp):
    """Split the measure into its absolutely continuous and atomic parts."""
    m, anchor, _ = _prepared(spec_path, samples_path, header, allow_degenerate, anchor_str,
                             function=False)
    _emit(_report(m, anchor, decomposition=_decomposition_block(m)), out, stamp)
    sys.exit(0)


@main.command("qdensity")
@_input_options
@click.option("--plot-points", type=int, default=None,
              help="emit N+1 CSV evaluation rows of the distribution function")
def cmd_qdensity(spec_path, samples_path, header, allow_degenerate, anchor_str, out, stamp,
                 plot_points):
    """Emit the quantile density; exit 4 when it does not exist."""
    m, anchor, f = _prepared(spec_path, samples_path, header, allow_degenerate, anchor_str)
    q = quantile_density(f)
    _emit_or_plot(_report(m, anchor, quantile_density=step_to_json(q, lazy=True)), out, stamp,
                  plot_points, f)


@main.command("ingest")
@click.option("--samples", "samples_path", type=click.Path(), required=True,
              help="sample file, one decimal per line")
@click.option("--header", is_flag=True, help="skip the first sample line")
@click.option("--allow-degenerate", is_flag=True,
              help="accept single-valued samples as a pure atom")
@click.option("--out", type=click.Path(), default=None)
@click.option("--stamp", is_flag=True)
def cmd_ingest(samples_path, header, allow_degenerate, out, stamp):
    """Turn samples into the linear-interpolation empirical spec."""
    runs = read_samples(samples_path, header)
    _degenerate(runs, allow_degenerate)
    spec = samples_to_spec(runs)
    spec_to_measure(spec)  # sanity: the emitted spec must itself be valid
    _emit(spec, out, stamp)
    sys.exit(0)


@main.command("verify")
@click.option("--law", "law_id", default="all", help="law id or 'all'")
@click.option("--n", "n", type=int, default=1000, help="instances per law")
@click.option("--seed", type=int, default=None,
              help="generator seed (default: MONOINV_SEED or 0)")
@click.option("--max-knots", type=int, default=12)
@click.option("--out", type=click.Path(), default=None)
@click.option("--stamp", is_flag=True)
def cmd_verify(law_id, n, seed, max_knots, out, stamp):
    """Replay the exact identities on generated instances; exit 5 on failure."""
    if n < 1:
        _fail(1, "--n must be at least 1")
    if max_knots < 1:
        _fail(1, "--max-knots must be at least 1")
    most = GenConfig().knot_limit
    if max_knots > most:
        _fail(1, f"--max-knots must be at most {most}")
    if seed is None:
        try:
            seed = int(os.environ.get("MONOINV_SEED", "0"))
        except ValueError:
            _fail(1, f"MONOINV_SEED must be an integer, got {os.environ['MONOINV_SEED']!r}")
    cfg = GenConfig(seed=seed, max_knots=max_knots)
    law_list = list(LAW_IDS) if law_id == "all" else [law_id]
    reports = [run_law(law, n, cfg) for law in law_list]
    body = {
        "seed": seed,
        "max_knots": max_knots,
        "n": n,
        "laws": [r.to_json() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    _emit(body, out, stamp)
    sys.exit(0 if body["passed"] else 5)


if __name__ == "__main__":
    main()
