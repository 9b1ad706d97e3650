"""
Partition families and identity verification
============================================

Four families of partitions, counted straight from their definitions,
against the q-series that are supposed to generate them.  The counting
functions run a dynamic program over the multiplicities of the parts
1..n, so they are fast and share nothing with the series, which come
from nested multisums and infinite products.  Agreement below the truncation order is the whole point.
"""

from qgordon import (
    GordonParams,
    IdentitySpec,
    count_A,
    count_B,
    count_W,
    count_Wbar,
    eval_multisum_AG,
    eval_product_side,
    verify,
)

# The flat family B(k, a): frequencies obey f_1 <= a - 1 and
# f_i + f_{i+1} <= k - 1.  The congruence family A(k, a): no part
# congruent to 0 or +-a mod 2k + 1.  For (2, 2) these are the two
# sides of the first Rogers-Ramanujan identity.
gp = GordonParams(2, 2)
print("n :", *[f"{n:3d}" for n in range(13)])
print("B :", *[f"{count_B(n, gp):3d}" for n in range(13)])
print("A :", *[f"{count_A(n, gp):3d}" for n in range(13)])

# The sum side counts the same thing, coefficient by coefficient.
sum_side = eval_multisum_AG(gp, 13)
print("q :", *[f"{sum_side.coefficient(n):3d}" for n in range(13)])

# The product side for (2, 2) is 1 / ((q;q^5)(q^4;q^5)).
print("\nproduct side:", eval_product_side("AG", gp, 13))

# Parity-restricted families: W requires even parts to appear an even
# number of times, Wbar asks the same of odd parts.  Their generating
# functions depend on whether k and a share a parity.
gp = GordonParams(3, 2)
print("\n(k, a) = (3, 2)")
print("W    :", [count_W(n, gp) for n in range(12)])
print("Wbar :", [count_Wbar(n, gp) for n in range(12)])

# verify() pairs a theorem tag with (k, a) and an order, evaluates both
# sides, and reports the first discrepancy if any.
for tag in ("AG", "W_diff", "Wbar_odd_even", "Main"):
    report = verify(IdentitySpec(tag, gp, 30))
    status = "ok" if report.equal else f"FAILS at q^{report.first_discrepancy}"
    print(f"{tag:14s} (k=3, a=2) below q^30: {status}")

# The same checks are exposed on the command line:
#   qgordon verify --theorem main --k 3 --a 2 --order 40
#   qgordon sweep --kmax 4
