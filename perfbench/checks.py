"""Per-op correctness checks, run after the timed loop.

`check_op` returns None for a correct op and a one-line reason otherwise.

Everything the benchmark can derive from its own input is computed
independently of the program, in exact arithmetic, from the sample file:
the samples are 6-decimal strings, read as integers of 10**-6.  From them
the checks build the ingested spec and the canonical echo (atoms at tied
samples with mass (count - 1)/(n - 1), one piece between each pair of
consecutive distinct samples, adjacent pieces of equal density merged), and
compare the program's output with them string for string.  Total masses are
summed with `fractions.Fraction`.  Echoes of up to ROUND_TRIP_MAX_POINTS
samples are also fed back through the program's own spec parser, which
must reproduce them; larger echoes are only compared with the independent
canonical form, because re-parsing them costs more than the op itself.
"""

from __future__ import annotations

import json

from collections import Counter
from fractions import Fraction
from math import gcd

EXPECTED_EXIT = {
    "classify": {0, 3},
    "qdensity": {0, 4},
    "invert": {0},
    "ingest": {0},
    "decompose": {0},
    "verify": {0},
}

ROUND_TRIP_MAX_POINTS = 4000
SCALE = 10**6


class CheckFailure(Exception):
    pass


def _require(cond, reason):
    if not cond:
        raise CheckFailure(reason)


def fmt(num: int, den: int) -> str:
    """The program's canonical rational string: 'p/q' in lowest terms, or 'p'."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _q(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or 1))


class Sample:
    """A generated sample file, as integers of 10**-6, and what follows from it."""

    def __init__(self, path: str):
        with open(path, encoding="ascii") as fh:
            lines = fh.read().split()
        values = []
        for line in lines:
            whole, _, frac = line.partition(".")
            _require(len(frac) == 6, f"sample {line!r} is not a 6-decimal string")
            values.append(int(whole + frac))
        self.n = len(values)
        self.counts = Counter(values)
        self.distinct = sorted(self.counts)

    def atoms(self) -> list[dict]:
        return [{"x": fmt(x, SCALE), "mass": fmt(c - 1, self.n - 1)}
                for x, c in sorted(self.counts.items()) if c > 1]

    def ingested_spec(self) -> dict:
        unit = fmt(1, self.n - 1)
        return {
            "carrier": {"lo": "-inf", "hi": "inf"},
            "atoms": self.atoms(),
            "uniform_pieces": [{"a": fmt(a, SCALE), "b": fmt(b, SCALE), "mass": unit}
                               for a, b in zip(self.distinct, self.distinct[1:])],
        }

    def canonical_echo(self) -> dict:
        pieces = []
        d = self.distinct
        i = 0
        while i + 1 < len(d):
            j = i + 1
            # density (1/(n-1)) / gap is equal exactly when the gaps are equal
            while j + 1 < len(d) and d[j + 1] - d[j] == d[i + 1] - d[i]:
                j += 1
            pieces.append({"a": fmt(d[i], SCALE), "b": fmt(d[j], SCALE),
                           "density": fmt(SCALE, (self.n - 1) * (d[i + 1] - d[i]))})
            i = j
        return {"carrier": {"lo": "-inf", "hi": "inf"}, "atoms": self.atoms(),
                "uniform_pieces": pieces}


def total_mass(spec) -> Fraction:
    total = sum((_q(a["mass"]) for a in spec["atoms"]), Fraction(0))
    for p in spec["uniform_pieces"]:
        if "mass" in p:
            total += _q(p["mass"])
        else:
            _require("inf" not in p["a"] + p["b"], "infinite piece in a sample spec")
            total += _q(p["density"]) * (_q(p["b"]) - _q(p["a"]))
    return total


def _check_echo(report, sample: Sample):
    echo = report["echo"]
    _require(echo == sample.canonical_echo(), "echo differs from the sample's canonical spec")
    _require(total_mass(echo) == 1, f"echo has total mass {total_mass(echo)}, not 1")
    _require(report["anchor"] == "0", f"default anchor is {report['anchor']}, not 0")
    if sample.n <= ROUND_TRIP_MAX_POINTS:
        from monoinv.cli import spec_to_measure
        from monoinv.serialize import measure_to_spec_json

        _require(measure_to_spec_json(spec_to_measure(echo)) == echo,
                 "echo does not round-trip")


def _check_atoms(entries, sample: Sample, what):
    _require(entries == sample.atoms(), f"{what} atoms differ from the tied samples")


def check_classify(code, report, sample):
    c = report["classification"]
    _require((code == 0) == (c["cdf_unimodal"] is True),
             f"exit {code} disagrees with cdf_unimodal={c['cdf_unimodal']}")
    _require(c["cdf_unimodal"] == c["quantile_unimodal"],
             "cdf_unimodal != quantile_unimodal (main equivalence)")
    # The sample spec puts a piece of positive mass between every pair of
    # consecutive distinct samples, and every generated sample has many
    # distinct values: F has no flat inside its support, the generalized
    # inverse no interior jump, so the quantile function is absolutely
    # continuous and `qdensity` exits 0 (check_qdensity).
    _require(c["qf_absolutely_continuous"] is True,
             "qf_absolutely_continuous is not true, but the sample has no interior gap")
    _require(not (len(sample.atoms()) >= 2 and c["cdf_unimodal"]), "two atoms, yet unimodal")
    _check_atoms(report["decomposition"]["atoms"], sample, "classify")
    _check_echo(report, sample)


def check_invert(code, report, sample):
    domain = report["inverse"]["domain"]
    _require("inf" not in domain["lo"] + domain["hi"], "inverse domain is unbounded")
    _require(_q(domain["hi"]) - _q(domain["lo"]) == 1,
             "inverse domain does not have length 1 (the total mass)")
    _check_echo(report, sample)


def check_qdensity(code, report, sample):
    # no interior gap, so a quantile density exists (see check_classify)
    _require(code == 0, f"qdensity exit {code}, but the sample has no interior gap")
    _require(len(report["quantile_density"]["values"]) >= 1, "empty quantile density")
    _check_echo(report, sample)


def check_ingest(code, spec, sample):
    _require(total_mass(spec) == 1, f"ingested spec has total mass {total_mass(spec)}, not 1")
    _require(spec == sample.ingested_spec(), "ingested spec differs from the samples")


def check_decompose(code, report, sample):
    _check_atoms(report["decomposition"]["atoms"], sample, "decompose")
    _check_echo(report, sample)


def check_verify(record, code, body):
    _require(body.get("passed") is True, "verify body not passed")
    _require(body.get("n") == record["size"] and body.get("seed") == record["vseed"],
             "verify ran other arguments than requested")
    laws = body.get("laws", [])
    _require([law.get("law") for law in laws] == [record["variant"]],
             f"verify reported laws {[law.get('law') for law in laws]}")
    for law in laws:
        _require(law.get("passed") is True and not law.get("failures"),
                 f"law {law.get('law')} failed")
        _require(law.get("shrunk") is None, f"law {law.get('law')} has a shrunk witness")
        _require(0 <= law.get("eligible", -1) <= law.get("instances", -1),
                 "eligible count out of range")


_SAMPLE_CHECKS = {
    "classify": check_classify,
    "invert": check_invert,
    "qdensity": check_qdensity,
    "ingest": check_ingest,
    "decompose": check_decompose,
}


def eligible_of(report) -> int:
    return sum(law["eligible"] for law in report["laws"])


def check_op(record, report=None):
    """Check one op record from the worker; None when correct, else the reason.

    `report` is the parsed output; when omitted it is read from the record's
    output file.
    """
    command, code = record["command"], record["exit"]
    if record.get("error"):
        return f"exception escaped the command: {record['error']}"
    if code not in EXPECTED_EXIT[command]:
        tail = (record.get("stderr") or "").strip().splitlines()[-1:]
        return f"exit {code} not in {sorted(EXPECTED_EXIT[command])}: {' '.join(tail)}"
    try:
        if report is None and not (command == "qdensity" and code == 4):
            with open(record["out"], encoding="utf-8") as fh:
                report = json.load(fh)
        if command == "verify":
            check_verify(record, code, report)
        else:
            _SAMPLE_CHECKS[command](code, report, Sample(record["sample"]))
    except CheckFailure as e:
        return str(e)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as e:
        return f"malformed output: {type(e).__name__}: {e}"
    return None
