"""The four h-fold sumsets of a small set, computed by both engines.

For A = {a_0 < ... < a_{k-1}} and a fold count h, each sumset collects
sum(lambda_i * a_i) over coefficient vectors lambda of total weight h:
nonnegative (unrestricted), zero-one (restricted), arbitrary integer
(signed), or in {-1, 0, 1} (restricted-signed, the central object here).
"""
from sumsets import (
    SumsetKind,
    coefficient_space_size,
    dilate,
    enumerate_coefficients,
    make_set,
    sumset_layered,
    sumset_naive,
)

a = make_set([1, 3, 5])
h = 2
print(f"A = {{{a}}}, h = {h}\n")

for kind in SumsetKind:
    naive = sumset_naive(a, h, kind)
    layered = sumset_layered(a, h, kind)
    assert naive.values == layered.values
    print(f"{kind.value:>17}: {','.join(map(str, naive.values))}")
    print(f"{'':>17}  cardinality {naive.cardinality}, "
          f"{coefficient_space_size(a.k, h, kind)} coefficient vectors")

print("\nThe coefficient vectors behind the restricted-signed case:")
for vector in enumerate_coefficients(a.k, h, SumsetKind.RESTRICTED_SIGNED):
    print(f"  {vector} -> {sum(c * x for c, x in zip(vector, a))}")

# sumsets commute with dilation: computing on 7*A just scales the values
b = dilate(a, 7)
scaled = sumset_layered(b, h).values
assert scaled == tuple(7 * v for v in sumset_layered(a, h).values)
print(f"\n7*A = {{{b}}} gives exactly 7 * (2-fold sumset of A): "
      f"{','.join(map(str, scaled))}")

# signed kinds always produce symmetric value sets
values = set(sumset_layered(a, h).values)
assert values == {-v for v in values}
print("symmetry check passed: v in S iff -v in S")
