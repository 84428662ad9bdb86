"""Exact rational arithmetic for Pierce expansions and their error-sum functions.

The package computes Pierce digits and convergents of rationals in [0, 1],
evaluates the error-sum functions on points and on digit sequences (exactly
for finite data, with certified rational enclosures for streams), exposes
the exact geometry of fundamental intervals, and builds the desk-scale
analyses on top: the -1/8 integral, variation growth, intermediate-value
root brackets, and box-counting dimension estimates for the graph.
"""

from .analysis import (
    CountReport,
    CoverReport,
    CoverSum,
    DegenerateFitError,
    IntegralReport,
    RootBracket,
    SlopeFit,
    VariationReport,
    box_count_empirical,
    box_count_sweep,
    calibrate_product_bound,
    count_bounded_products,
    dimension_slope,
    factorial_bounds_check,
    hausdorff_cover_sum,
    integrate_esum,
    ivt_root,
    lambda_cover_counts,
    variation_over_partition,
)
from .core import (
    INF,
    MAX_DEPTH,
    DepthOverflowError,
    DigitStream,
    DomainError,
    Rat,
    ResourceLimitError,
    as_rational,
    constant_stream,
    convergent,
    digit1,
    estar_digits,
    evaluate_digits,
    expand,
    shift,
    shift_power,
)
from .errorsum import (
    CylinderExtrema,
    JumpReport,
    cylinder_extrema,
    estar,
    esum,
    esum_stream,
    jumps_at,
    oscillation,
    preimage_pair,
)
from .intervals import (
    FundInterval,
    Partition,
    fundamental_interval,
    interval_length,
    locate,
    partition,
)
from .sequences import (
    DEFAULT_DEPTH,
    Enclosure,
    PierceSeq,
    hat,
    hat_prime,
    is_realizable,
    phi,
    phi_partial,
    rho,
    rho_seq,
    truncate,
)

__version__ = "0.1.0"
