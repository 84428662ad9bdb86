"""The error-sum functions: exact values, stream enclosures, and the two routes.

E(x) adds up every deviation x - s_n(x); on digit sequences the closed
form sum (-1)^n n/(d1...d_{n+1}) computes it exactly.  Infinite sequences
(digit streams) give certified rational enclosures instead.
"""

from fractions import Fraction as F

from piercesum import (
    PierceSeq,
    constant_stream,
    estar,
    esum,
    esum_stream,
    expand,
    phi,
    truncate,
)

for x in [F(3, 8), F(1, 2), F(13, 47), F(355, 1131)]:
    print(f"E({x}) = {esum(x)}   (digits {expand(x)})")

# the extreme value -1/2 is approached but never attained by points:
# it belongs to the non-realizable sequence (1, 2)
print(f"\nE*((1,2)) = {estar((1, 2)).lo}  (the global minimum over sequences)")
print(f"E*((2,3)) = {estar((2, 3)).lo}")

# both routes agree exactly on finite sequences: the closed form, and the
# defining series of deviations of phi(sigma) from phi of its truncations
sigma = (2, 5, 9, 40)
value = phi(sigma).lo
series = sum((value - phi(truncate(sigma, n)).lo for n in range(1, len(sigma))), F(0))
assert estar(sigma).lo == series
print(f"closed form == defining series on {sigma}: {estar(sigma).lo}")

# E does not commute with evaluation: (2,3) evaluates to 1/3, whose own
# expansion is just (3)
v = phi((2, 3)).lo
print(f"\nphi((2,3)) = {v}, E({v}) = {esum(v)} != E*((2,3)) = {estar((2, 3)).lo}")

# the digits of 1 - 1/e are 1, 2, 3, ...; enclosures tighten factorially
stream = PierceSeq.from_stream(constant_stream("one-minus-inv-e"))
for depth in (5, 10, 20):
    enc = esum_stream(stream, depth=depth)
    print(f"depth {depth:>2}: E(1 - 1/e) in {enc}  (width {enc.width})")
print("reference 2/e - 1 = -0.26424111765711535680...")
