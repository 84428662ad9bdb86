"""The integral of the error sum, unbounded variation, and IVT brackets.

The integral over [0,1] is exactly -1/8.  E(x) + E(1 - x) = -x below 1/2,
so the left Riemann sum on N points is exactly -1/8 + 1/(4N) for even N
and -1/8 + 1/(8N^2) for odd N.  Oscillations over order-n intervals add
up to exactly n, so no total-variation bound survives.  Between any two
suitable points, a branch-and-bound over fundamental intervals pins a
solution of E(x) = y.
"""

from fractions import Fraction as F

from piercesum import esum, integrate_esum, ivt_root, variation_over_partition

print("left Riemann sums R(N), exact, against the parity formula:")
grids = [(f"2^{e:>2}", 2**e) for e in (10, 14, 18)] + [("3^ 7", 3**7), ("3^11", 3**11)]
for label, grid in grids:
    rep = integrate_esum(grid)
    formula = F(-1, 8) + (F(1, 4 * grid) if grid % 2 == 0 else F(1, 8 * grid**2))
    print(f"  grid {label}: R(N) = {rep.estimate}   formula {formula}   equal: {rep.estimate == formula}")

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
