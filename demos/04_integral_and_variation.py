"""The integral of the error sum, unbounded variation, and IVT brackets.

The integral over [0,1] is exactly -1/8; Riemann sums converge to it
quickly.  Oscillations over order-n intervals add up to exactly n, so no
total-variation bound survives.  Between any two suitable points, a
branch-and-bound over fundamental intervals pins a solution of E(x) = y.
"""

from fractions import Fraction as F

from piercesum import esum, integrate_esum, ivt_root, variation_over_partition

for exponent in (10, 14, 18):
    rep = integrate_esum(2**exponent)
    print(
        f"grid 2^{exponent:>2}: estimate {float(rep.estimate):+.9f}   "
        f"deviation from -1/8: {float(rep.deviation):+.2e}"
    )

print("\noscillation sums over order-n partitions (exactly n each):")
for n in range(1, 6):
    rep = variation_over_partition(n)
    capped = variation_over_partition(n, digit_cap=12)
    print(
        f"  n={n}: total {rep.total}, digits<=12 part {capped.capped_sum} "
        f"+ n*residual {n * capped.residual_mass} (recombines exactly)"
    )

# bracket a point where E(x) = -1/10 between 0.36 and 0.39
a, b, y = F(9, 25), F(39, 100), F(-1, 10)
print(f"\nE({a}) = {esum(a)} < {y} < E({b}) = {esum(b)}")
bracket = ivt_root(a, b, y, width_tol=F(1, 10**12))
print(f"bracket: {bracket.interval}")
print(f"         width {float(bracket.interval.length):.2e}, digits {bracket.interval.sigma}")
print(f"         E* range [{bracket.value_min}, {bracket.value_max}] contains {y}")
