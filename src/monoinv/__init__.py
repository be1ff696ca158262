"""monoinv: exact piecewise-affine monotone function algebra.

Non-decreasing functions as version classes, their generalized inverses,
the correspondence with locally finite measures, Radon-Nikodym machinery,
and unimodality classification, all in exact rational arithmetic.
"""

from monoinv.exactnum import BACKEND, Q, fmt_ratio, parse_ratio, rat
from monoinv.intervals import (
    EMPTY,
    NEG_INF,
    POS_INF,
    REAL_LINE,
    Interval,
    closed_iv,
    is_finite,
    open_iv,
)
from monoinv.monotone import (
    LEFT,
    RIGHT,
    PiecewiseMonotone,
    Version,
    constancy_set,
    evaluate,
    extend_to_real_line,
    from_knot_data,
    generalized_inverse,
    inverse_domain,
    inverse_mass_interval,
    jumps,
    mass_interval,
    restrict,
    supporting_interval,
    validate,
    versions_equal,
)
from monoinv.measure import (
    PiecewiseMeasure,
    StepFunction,
    associated_measure,
    density,
    distribution_function,
    gen_inverse_abs_cont,
    inverse_rule_check,
    is_abs_cont_wrt,
    lebesgue_decompose,
    lebesgue_on,
    measure_of_open,
    pushforward,
    step_compose,
    step_of_slopes,
)
from monoinv.unimodal import (
    Classification,
    ModalInterval,
    classify,
    is_quasi_concave,
    is_quasi_convex,
    qf_shape_check,
    quantile_density,
)
from monoinv.laws import CheckReport, GenConfig, LAW_IDS, gen_monotone, run_law

__version__ = "0.1.0"
