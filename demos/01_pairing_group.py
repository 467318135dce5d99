"""Tour of the composite-order pairing group.

Builds the toy 35-element group by hand, checks the algebra that everything
else rests on, then constructs a realistically-sized group and times a few
pairings.
"""

import random
import time

from ringauction.group import check_public_group, gen_group_params, group_from_primes

print("=== tiny group: p=5, q=7 ===")
params = group_from_primes(5, 7, random.Random(1))
group = params.group
print(f"n  = {group.n}  (group order, composite)")
print(f"ell = {group.ell}  (field prime, ell = 4n - 1)")
print(f"g  = {group.g}   order {group.n}")
print(f"h  = {group.h}   order {params.q}  (the q-subgroup generator)")

# Scalars act the way you'd hope: [a+b]P == [a]P + [b]P, and the full
# group order annihilates everything.
P = group.mul(3, group.g)
assert group.add(group.mul(4, P), group.mul(9, P)) == group.mul(13, P)
assert group.mul(group.n, group.g) is None
assert group.mul(params.q, group.h) is None
print("scalar arithmetic: ok")

# The pairing is bilinear and non-degenerate on the n-subgroup.
e = group.pair
base = e(group.g, group.g)
a, b = 4, 11
assert e(group.mul(a, group.g), group.mul(b, group.g)) == base ** (a * b)
assert not base.is_one()
print(f"pair(g, g) = {base.re} + {base.im}i   (order {group.n})")

# Pairing against h lands in the q-subgroup of the target group — raising
# to q kills it.  This one-way projection is what makes tracing possible.
z = e(group.h, group.mul(5, group.g))
assert (z ** params.q).is_one()
print("pair(h, .) has order dividing q: ok")

print()
print("=== generated group: 16-bit primes ===")
params16 = gen_group_params(16, 16, random.Random(42))
grp16 = params16.group
print(f"p = {params16.p}, q = {params16.q}")
print(f"n = {grp16.n}  ({grp16.n.bit_length()} bits)")
print(f"ell = {grp16.ell}  (r = {params16.r})")
# The public values alone show that the group is one gen_group_params
# could have built, and that [n]g = O.
check_public_group(grp16.n, grp16.ell, grp16.encode_point(grp16.g), grp16.encode_point(grp16.h))
assert grp16.in_group(grp16.g)
print("check_public_group and in_group(g): ok")

t0 = time.monotonic()
reps = 50
for i in range(reps):
    grp16.pair(grp16.g, grp16.mul(i + 1, grp16.g))
dt = (time.monotonic() - t0) / reps
print(f"pairing cost at this size: {dt * 1000:.2f} ms each")

print()
print("Note: these parameter sizes are for demonstration only.  Factoring a")
print("32-bit modulus is instant, so nothing here is secure — the package")
print("exists to show the protocol's structure, not to guard real money.")
