"""A pin of what ``import piercesum`` exports: a change edits it and is named in CHANGES.md."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: the names without a leading underscore that a fresh ``import piercesum`` binds, submodules too
PUBLIC_NAMES = """
CountReport CoverReport CoverSum CylinderExtrema DEFAULT_DEPTH DegenerateFitError
DepthOverflowError DigitStream DomainError Enclosure FundInterval INF IntegralReport
JumpReport MAX_DEPTH Partition PierceSeq Rat ResourceLimitError RootBracket SlopeFit
VariationReport analysis as_rational box_count_empirical box_count_sweep
calibrate_product_bound certify constant_stream convergent core count_bounded_products
cylinder_extrema digit1 dimension_slope errorsum estar estar_digits esum esum_stream
evaluate_digits expand factorial_bounds_check fundamental_interval hat hat_prime
hausdorff_cover_sum integrate_esum interval_length intervals is_realizable ivt_root
jumps_at lambda_cover_counts locate oscillation partition phi phi_partial preimage_pair
rho rho_seq sequences shift shift_power truncate variation_over_partition
""".split()


def test_public_names_are_pinned():
    # a fresh interpreter, since a test that imports piercesum.cli binds ``cli`` here too
    script = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import piercesum; "
        "print(*sorted(n for n in dir(piercesum) if n[0] != '_'))"
    )
    names = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert names.stdout.split() == PUBLIC_NAMES, names.stderr
