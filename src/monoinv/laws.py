"""Randomized exhaustive checking of the library's exact identities.

Each law is an identity that holds as a theorem on the piecewise-affine
class.  Instances are generated deterministically from a seed, every check
is an exact rational computation, and a failing instance is shrunk to a
minimal witness.  A law with failures is a bug in the implementation, not
noise.

Independence discipline: where a result offers several characterizations,
the corresponding law computes each through structurally different code
paths (measure probes vs. structural scans vs. materialized inverses) and
compares the verdicts.
"""

from __future__ import annotations

import random

from bisect import bisect_left
from dataclasses import dataclass, field

from monoinv import monotone as mono
from monoinv import serialize
from monoinv.errors import (
    ConstantFunction,
    PreconditionFailed,
    UnknownLaw,
)
from monoinv.exactnum import ZERO, rat
from monoinv.intervals import REAL_LINE, Interval
from monoinv.measure import (
    PiecewiseMeasure,
    associated_measure,
    density,
    gen_inverse_abs_cont,
    inverse_rule_check,
    is_abs_cont_wrt,
    lebesgue_decompose,
    lebesgue_on,
    measure_of_open,
    pushforward,
    step_of_slopes,
)
from monoinv.monotone import (
    LEFT,
    RIGHT,
    PiecewiseMonotone,
    constancy_set,
    evaluate,
    extend_to_real_line,
    flat_count,
    from_knot_data,
    generalized_inverse,
    inverse_domain,
    inverse_mass_interval,
    jump_count_extended,
    jumps,
    mass_interval,
    refine_grid,
    structural_values,
    structural_xs,
    value_bounds,
    versions_equal,
)
from monoinv.unimodal import (
    classify,
    is_quasi_concave,
    qf_shape_check,
)

@dataclass(frozen=True)
class GenConfig:
    """Knobs of the instance generator; identical seeds give identical runs."""

    seed: int = 0
    max_knots: int = 12
    force_unimodal: bool = False
    value_bound: int = 1000

    @property
    def knot_limit(self) -> int:  # _rand_xs draws distinct numerators in ±value_bound
        return 2 * self.value_bound + 1

    def __post_init__(self):
        if self.max_knots < 1:
            raise ValueError("max_knots must be at least 1")
        if self.max_knots > self.knot_limit:
            raise ValueError(f"max_knots must be at most {self.knot_limit}")


class _Skip(Exception):
    """Instance does not satisfy the law's precondition."""


class LawFailure(AssertionError):
    def __init__(self, expected, got, note=""):
        super().__init__(f"{note}: expected {expected}, got {got}" if note else
                         f"expected {expected}, got {got}")
        self.expected = expected
        self.got = got
        self.note = note


@dataclass
class CheckReport:
    law: str
    instances: int
    eligible: int
    failures: list = field(default_factory=list)
    shrunk: dict | None = None

    @property
    def passed(self):
        return not self.failures

    def to_json(self):
        return {
            "law": self.law,
            "instances": self.instances,
            "eligible": self.eligible,
            "failures": self.failures,
            "shrunk": self.shrunk,
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# instance generation


def _rand_rat(rng, bound, den_max=8):
    return rat(rng.randint(-bound, bound), rng.randint(1, den_max))


def _rand_slope(rng):
    if rng.random() < 0.35:
        return ZERO
    return rat(rng.randint(1, 16), rng.randint(1, 6))


def _rand_domain(rng, xs, kind):
    if kind == "real":
        return REAL_LINE
    pick = rng.randrange(4)
    lo_ref = xs[0] if xs else rat(0)
    hi_ref = xs[-1] if xs else rat(0)
    lo = lo_ref - rng.randint(1, 3)
    hi = hi_ref + rng.randint(1, 3)
    if pick == 0:
        return REAL_LINE
    if pick == 1:
        return Interval(lo, REAL_LINE.hi)
    if pick == 2:
        return Interval(REAL_LINE.lo, hi)
    return Interval(lo, hi)


def _rand_xs(rng, cfg, k):
    if k == 0:
        return []
    den = rng.choice([1, 1, 2, 3, 4, 6])
    nums = rng.sample(range(-cfg.value_bound, cfg.value_bound + 1), k)
    return [rat(n, den) for n in sorted(nums)]


def _assemble(rng, cfg, domain, xs, jump_sizes, slopes):
    if xs:
        anchor_x = mono._probe_point(Interval(domain.lo, xs[0]))
    else:
        anchor_x = mono._probe_point(domain)
    anchor_value = _rand_rat(rng, min(cfg.value_bound, 50))
    return mono._assembled(domain, xs, jump_sizes, slopes, anchor_x, anchor_value)


def _random_instance(rng, cfg, domain_kind, finite_mass):
    k = rng.randint(0, cfg.max_knots)
    if finite_mass and k < 2:
        k = 2
    xs = _rand_xs(rng, cfg, k)
    slopes = [_rand_slope(rng) for _ in range(k + 1)]
    jump_sizes = [
        rat(rng.randint(1, 12), rng.randint(1, 6))
        if rng.random() < 0.35 else ZERO
        for _ in range(k)
    ]
    if finite_mass:
        slopes[0] = ZERO
        slopes[-1] = ZERO
    if all(s == 0 for s in slopes) and all(j == 0 for j in jump_sizes):
        if k:
            jump_sizes[k // 2] = rat(1)
        else:
            slopes[len(slopes) // 2] = rat(1)
    domain = _rand_domain(rng, xs, domain_kind)
    return _assemble(rng, cfg, domain, xs, jump_sizes, slopes)


def _unimodal_instance(rng, cfg, finite_mass=True, perturb=False):
    """Slopes non-decreasing then non-increasing, at most one jump placed at
    a knot adjacent to the peak segment; the construction itself guarantees
    the mode-shape, so the classifier acts as the oracle."""
    low = 2 if finite_mass else 0
    k = rng.randint(low, max(cfg.max_knots, low))
    xs = _rand_xs(rng, cfg, k)
    peak = rng.randint(0, k)
    up = sorted(_rand_slope(rng) for _ in range(peak + 1))
    down = sorted(
        (_rand_slope(rng) for _ in range(k - peak)), reverse=True)
    cap = up[-1]
    down = [min(d, cap) for d in down]
    slopes = up + down
    if finite_mass:
        # zero end slopes keep the non-decreasing-then-non-increasing shape
        slopes[0] = ZERO
        slopes[-1] = ZERO
    jump_sizes = [ZERO] * k
    if k and rng.random() < 0.55:
        if all(s == 0 for s in slopes):
            j = rng.randrange(k)
        else:
            cands = [j for j in (peak - 1, peak) if 0 <= j < k]
            j = rng.choice(cands) if cands else None
        if j is not None:
            jump_sizes[j] = rat(rng.randint(1, 10), rng.randint(1, 4))
    if perturb:
        if k and rng.random() < 0.5:
            jump_sizes[rng.randrange(k)] = rat(rng.randint(1, 5))
        else:
            slopes[rng.randrange(len(slopes))] = _rand_slope(rng)
    if all(s == 0 for s in slopes) and all(j == 0 for j in jump_sizes):
        if k:
            jump_sizes[rng.randrange(k)] = rat(1)
        else:
            slopes[0] = rat(1)
    return _assemble(rng, cfg, REAL_LINE, xs, jump_sizes, slopes)


def _gen_any(rng, cfg):
    return _random_instance(rng, cfg, "any", finite_mass=False)


def _gen_cdf_like(rng, cfg):
    """Distribution functions on the whole line with finite total mass;
    mixes plainly random, exactly unimodal, and near-unimodal shapes."""
    r = rng.random()
    if r < 0.4:
        return _unimodal_instance(rng, cfg, finite_mass=True)
    if r < 0.6:
        return _unimodal_instance(rng, cfg, finite_mass=True, perturb=True)
    return _random_instance(rng, cfg, "real", finite_mass=True)


def _gen_locally_finite(rng, cfg):
    r = rng.random()
    if r < 0.04:
        s = rat(rng.randint(1, 5), rng.randint(1, 3))
        return mono._assembled(REAL_LINE, [], [], [s], rat(0), _rand_rat(rng, 10))
    if r < 0.45:
        return _unimodal_instance(rng, cfg, finite_mass=False)
    if r < 0.6:
        return _unimodal_instance(rng, cfg, finite_mass=False, perturb=True)
    return _random_instance(rng, cfg, "real", finite_mass=False)


def gen_monotone(cfg: GenConfig) -> PiecewiseMonotone:
    """One deterministic instance honoring the configuration flags."""
    rng = random.Random(cfg.seed)
    if cfg.force_unimodal:
        return _unimodal_instance(rng, cfg, finite_mass=True)
    return _gen_any(rng, cfg)


# ---------------------------------------------------------------------------
# the laws


def _materialized_inverse(g):
    try:
        return generalized_inverse(g)
    except ConstantFunction:
        return None


def _check_galois(g):
    h = _materialized_inverse(g)
    if h is None:
        raise _Skip
    xs = refine_grid(structural_xs(g) + structural_values(h))
    ts = refine_grid(structural_values(g) + structural_xs(h))
    hr = [evaluate(h, t, RIGHT) for t in ts]
    for k in range(1, len(ts)):
        if hr[k - 1] > hr[k]:
            raise LawFailure(f"H_r({ts[k - 1]}) <= H_r({ts[k]})",
                             f"{hr[k - 1]} > {hr[k]}", "H_r non-decreasing on the t grid")
    # over the sorted t grid, G_l(x) > t holds on a prefix, and so does
    # x > H_r(t) once H_r is non-decreasing there: every (x, t) pair agrees
    # iff the two prefixes have the same length.  On the totally ordered
    # extended line the weak form (<= on both sides) is the pointwise
    # negation of the strict form, so it holds with it.
    for x in xs:
        glx = evaluate(g, x, LEFT)
        na, nb = bisect_left(ts, glx), bisect_left(hr, x)
        if na != nb:
            # the smallest t of the grid on which the two sides disagree
            t, hrt = ts[min(na, nb)], hr[min(na, nb)]
            raise LawFailure(
                f"G_l({x}) > {t} <=> {x} > H_r({t})",
                f"{glx} > {t} is {glx > t} but {x} > {hrt} is {x > hrt}",
                "strict form")


def _check_double_inv(g):
    h = _materialized_inverse(g)
    if h is None:
        raise _Skip
    g2 = generalized_inverse(h)
    if not versions_equal(g2, g):
        raise LawFailure(serialize.monotone_to_json(g), serialize.monotone_to_json(g2),
                         "double inverse is a different class")
    if jump_count_extended(g) != flat_count(h):
        raise LawFailure(jump_count_extended(g), flat_count(h),
                         "jump count of g vs flat count of inverse")
    if flat_count(g) != jump_count_extended(h):
        raise LawFailure(flat_count(g), jump_count_extended(h),
                         "flat count of g vs jump count of inverse")


def _check_push_fwd(g):
    h = _materialized_inverse(g)
    if h is None:
        raise _Skip
    mu_g = associated_measure(g)
    got = pushforward(lebesgue_on(inverse_mass_interval(g), inverse_domain(g)), h)
    if got != mu_g:
        raise LawFailure(serialize.measure_to_spec_json(mu_g),
                         serialize.measure_to_spec_json(got),
                         "inverse pushes its uniform measure to the associated measure")
    mu_h = associated_measure(h)
    got2 = pushforward(lebesgue_on(mass_interval(g), g.domain), g)
    if got2 != mu_h:
        raise LawFailure(serialize.measure_to_spec_json(mu_h),
                         serialize.measure_to_spec_json(got2),
                         "g pushes its uniform measure to the inverse measure")


def _continuity_of_inverse(g):
    h = _materialized_inverse(g)
    cont = True if h is None else not jumps(h)
    return h, cont


def _check_push_cont(g):
    h, cont1 = _continuity_of_inverse(g)
    m_int = mass_interval(g)
    cont2 = not constancy_set(g, within=m_int)
    if cont1 != cont2:
        raise LawFailure(cont1, cont2,
                         "continuity of the inverse vs strict increase on the mass interval")
    if not cont1:
        return
    want = lebesgue_on(m_int, g.domain)
    if h is None:
        if not m_int.is_empty:
            raise LawFailure("empty mass interval", serialize.interval_to_json(m_int),
                             "constant inverse forces an empty mass interval")
        return
    got = pushforward(associated_measure(h), h)
    if got != want:
        raise LawFailure(serialize.measure_to_spec_json(want),
                         serialize.measure_to_spec_json(got),
                         "continuous inverse pushes its measure to restricted Lebesgue")


def _check_cont_equiv(g):
    h, cont1 = _continuity_of_inverse(g)
    m_int = mass_interval(g)
    cont2 = not constancy_set(g, within=m_int)

    mu = associated_measure(g)
    cont3 = True
    if not m_int.is_empty:
        # partition of the mass interval by all structure points inside it;
        # every cell of a strictly increasing g carries positive mass
        cuts = ([m_int.lo]
                + [p for p in structural_xs(g) if m_int.contains(p)]
                + [m_int.hi])
        for a, b in zip(cuts, cuts[1:]):
            if a < b and measure_of_open(mu, a, b) == ZERO:
                cont3 = False
                break
    if not (cont1 == cont2 == cont3):
        raise LawFailure("agreement", (cont1, cont2, cont3),
                         "continuity / strict increase / injectivity disagree")
    if not cont1 or h is None:
        return
    # left inverse on the mass interval, for every version pairing
    pts = [p for p in refine_grid(structural_xs(g)) if m_int.contains(p)]
    for x in pts:
        for v1 in (LEFT, RIGHT):
            t = evaluate(g, x, v1)
            for v2 in (LEFT, RIGHT):
                back = evaluate(h, t, v2)
                if back != x:
                    raise LawFailure(x, back, f"inverse of g({x}) at t={t}")
    image = Interval(*value_bounds(h))
    if image != m_int:
        raise LawFailure(serialize.interval_to_json(m_int),
                         serialize.interval_to_json(image),
                         "interior of the inverse's image vs mass interval")


def _check_rn_lemma(g):
    m = associated_measure(g)
    abs_part, sing = lebesgue_decompose(m)
    dens = density(abs_part)
    rhos = [
        lebesgue_on(g.domain, g.domain),
        lebesgue_on(mass_interval(g), g.domain),
        PiecewiseMeasure(g.domain, (), tuple((Interval(lo, hi), rat(1))
                                             for lo, hi, v in m.abs_density.cells() if v != 0)),
    ]
    for rho in rhos:
        # m << rho: predicate vs probe of rho's null gaps
        route_a = is_abs_cont_wrt(m, rho)
        route_b = not m.atom_xs and all(
            measure_of_open(m, lo, hi) == ZERO
            for lo, hi, v in rho.abs_density.cells()
            if v == 0
        )
        if route_a != route_b:
            raise LawFailure(route_a, route_b, "m << rho routes disagree")
        # rho << m: predicate vs positivity of the density of the abs part
        route_c = is_abs_cont_wrt(rho, m)
        route_d = all(
            measure_of_open(rho, a, b) == ZERO
            for a, b, v in dens.cells()
            if v == 0
        )
        if route_c != route_d:
            raise LawFailure(route_c, route_d, "rho << m routes disagree")
        # rho << m iff rho << abs part
        route_e = is_abs_cont_wrt(rho, abs_part)
        if route_c != route_e:
            raise LawFailure(route_c, route_e, "rho << m vs rho << m_abs")


def _check_ac_equiv(g):
    ih = inverse_domain(g)
    cands = [ih]
    vals = [v for v in structural_values(g) if ih.contains(v)]
    for pair in zip(vals, vals[1:]):
        if pair[0] < pair[1]:
            cands.append(Interval(pair[0], pair[1]))
    if len(vals) >= 2 and vals[0] < vals[-1]:
        cands.append(Interval(vals[0], vals[-1]))
    for iv in cands[:6]:
        gen_inverse_abs_cont(g, iv)  # raises InternalInconsistency on any disagreement


def _check_inv_rule(g):
    try:
        rule = inverse_rule_check(g)
    except PreconditionFailed:  # the inverse is not absolutely continuous
        raise _Skip from None
    if rule is not None and rule[0] != rule[1]:
        composed, reciprocal = rule
        raise LawFailure(serialize.step_to_json(reciprocal), serialize.step_to_json(composed),
                         "inverse-function rule: 1/g' vs h' o g on the mass interval")


def _check_qf_ac(g, c=None):
    """c, when given, is classify(g)."""
    if c is None:
        c = classify(g)
    if not c.cdf_unimodal:
        raise _Skip
    h = _materialized_inverse(extend_to_real_line(g))
    if h is None:
        return
    if jumps(h):
        raise LawFailure("no interior jumps of the inverse",
                         [str(h.xs[i]) for i in jumps(h)],
                         "unimodal generator must have absolutely continuous inverse")


def _check_main_equiv(g, c=None):
    """c, when given, is classify(g)."""
    if c is None:
        c = classify(g)
    route_a = c.cdf_unimodal
    route_b = c.quantile_unimodal
    h = _materialized_inverse(extend_to_real_line(g))
    route_c = True if h is None else qf_shape_check(h)[0]
    if not (route_a == route_b == route_c):
        raise LawFailure("three equivalent unimodality verdicts",
                         {"shape": route_a, "quantile_density": route_b,
                          "inverse_shape": route_c},
                         "main equivalence")


def _check_decomp(g):
    c = classify(g)
    if not c.cdf_unimodal:
        raise _Skip
    atom_xs = associated_measure(g).atom_xs
    if len(atom_xs) > 1:
        raise LawFailure("at most one atom", len(atom_xs), "singular part of a unimodal measure")
    if atom_xs:
        # a scan of its own: with classify's hull, the atom check would only
        # restate classify's own hull.contains(x)
        ok, modal = is_quasi_concave(step_of_slopes(g))
        if not ok:
            raise LawFailure("quasi-concave density part", "not quasi-concave", "decomposition")
        if not modal.contains(atom_xs[0]):
            raise LawFailure(f"atom inside {modal}", str(atom_xs[0]),
                             "atom must sit at a mode of the density part")


def _check_gen_locfin(g):
    # the locally finite generalization: both laws on measures of infinite mass
    c = classify(g)
    _check_main_equiv(g, c)
    try:
        _check_qf_ac(g, c)
    except _Skip:
        pass


_REGISTRY = {
    "GALOIS": (_gen_any, _check_galois),
    "DOUBLE_INV": (_gen_any, _check_double_inv),
    "PUSH_FWD": (_gen_any, _check_push_fwd),
    "PUSH_CONT": (_gen_any, _check_push_cont),
    "CONT_EQUIV": (_gen_any, _check_cont_equiv),
    "RN_LEMMA": (_gen_any, _check_rn_lemma),
    "AC_EQUIV": (_gen_any, _check_ac_equiv),
    "INV_RULE": (_gen_any, _check_inv_rule),
    "QF_AC": (_gen_cdf_like, _check_qf_ac),
    "MAIN_EQUIV": (_gen_cdf_like, _check_main_equiv),
    "DECOMP": (_gen_cdf_like, _check_decomp),
    "GEN_LOCFIN": (_gen_locally_finite, _check_gen_locfin),
}
LAW_IDS = tuple(_REGISTRY)


# ---------------------------------------------------------------------------
# shrinking


def _decompose(g):
    xs = list(g.xs)
    jsizes = [right - left for left, right in zip(g.lefts, g.rights)]
    slopes = list(g.slopes)
    if g.anchor is not None:
        ax, av = g.anchor
    else:
        ax = mono._probe_point(Interval(g.domain.lo, xs[0]))
        av = evaluate(g, ax, RIGHT)
    return g.domain, xs, jsizes, slopes, ax, av


def _candidates(g):
    domain, xs, jsizes, slopes, ax, av = _decompose(g)
    for j in range(len(xs)):
        yield (domain, xs[:j] + xs[j + 1:], jsizes[:j] + jsizes[j + 1:],
               slopes[:j] + slopes[j + 1:], ax, av)
    for j in range(len(xs)):
        if jsizes[j] != 0:
            yield (domain, xs, jsizes[:j] + [ZERO] + jsizes[j + 1:], slopes, ax, av)
        if jsizes[j] != 0 and jsizes[j] != 1:
            yield (domain, xs, jsizes[:j] + [rat(1)] + jsizes[j + 1:], slopes, ax, av)
    for i in range(len(slopes)):
        if slopes[i] != 0:
            yield (domain, xs, jsizes, slopes[:i] + [ZERO] + slopes[i + 1:], ax, av)
        if slopes[i] != 0 and slopes[i] != 1:
            yield (domain, xs, jsizes, slopes[:i] + [rat(1)] + slopes[i + 1:], ax, av)
    if av != 0:
        yield (domain, xs, jsizes, slopes, ax, ZERO)
    ints = [rat(int(x)) for x in xs]
    if ints != xs and len(set(ints)) == len(ints) and ints == sorted(ints):
        if all(domain.contains(x) for x in ints) and ax not in ints:
            yield (domain, ints, jsizes, slopes, ax, av)


def _size(g):
    """Knot count, then the total size of the numbers in g's columns."""
    return len(g.xs), sum(abs(q.numerator) + q.denominator
                          for q in (*g.slopes, *g.xs, *g.lefts, *g.rights))


def shrink(g: PiecewiseMonotone, still_fails) -> PiecewiseMonotone:
    """Greedy structural shrinking; every step re-checks the failure."""
    current = g
    for _ in range(300):
        improved = False
        for parts in _candidates(current):
            try:
                cand = from_knot_data(*parts)
            except Exception:
                continue
            if _size(cand) >= _size(current):
                continue
            if still_fails(cand):
                current = cand
                improved = True
                break
        if not improved:
            break
    return current


# ---------------------------------------------------------------------------
# runner


def _law_salt(law_id):
    return int.from_bytes(law_id.encode("ascii"), "big") % 1_000_000_007


def run_law(law_id: str, n: int, cfg: GenConfig, negate: bool = False) -> CheckReport:
    """Run n generated instances through a law's exact check.

    Deterministic for a given (law, n, seed).  With negate=True the check
    is inverted, to prove the harness can fail (a passing instance is then
    a 'failure' and gets shrunk).
    """
    if law_id not in _REGISTRY:
        raise UnknownLaw(f"unknown law {law_id!r}; known: {', '.join(LAW_IDS)}")
    gen, check = _REGISTRY[law_id]
    report = CheckReport(law=law_id, instances=n, eligible=0)
    first_witness = None

    def violates(instance):
        try:
            check(instance)
        except _Skip:
            return False
        except Exception:
            return not negate
        return negate

    for i in range(n):
        rng = random.Random(cfg.seed * 1_000_003 + i * 7919 + _law_salt(law_id))
        g = gen(rng, cfg)
        try:
            check(g)
            outcome = None
        except _Skip:
            continue
        except LawFailure as f:
            outcome = (str(f.expected), str(f.got), f.note)
        except Exception as e:
            outcome = ("no exception", f"{type(e).__name__}: {e}", "unexpected error")
        report.eligible += 1
        if negate:
            outcome = (("law violation", "law held", "negated mode")
                       if outcome is None else None)
        if outcome is not None:
            if len(report.failures) < 10:
                report.failures.append({
                    "instance": serialize.monotone_to_json(g),
                    "expected": outcome[0],
                    "got": outcome[1],
                    "note": outcome[2],
                })
            if first_witness is None:
                first_witness = g
    if first_witness is not None:
        small = shrink(first_witness, violates)
        report.shrunk = serialize.monotone_to_json(small)
    return report
