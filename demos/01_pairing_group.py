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
print(f"n  = {params.n}  (group order, composite)")
print(f"ell = {params.ell}  (field prime, ell = 4n - 1)")
print(f"g  = {params.g}   order {params.n}")
print(f"h  = {params.h}   order {params.q}  (the q-subgroup generator)")

# Scalars act the way you'd hope: [a+b]P == [a]P + [b]P, and the full
# group order annihilates everything.
P = group.mul(3, params.g)
assert group.add(group.mul(4, P), group.mul(9, P)) == group.mul(13, P)
assert group.mul(params.n, params.g) is None
assert group.mul(params.q, params.h) is None
print("scalar arithmetic: ok")

# The pairing is bilinear and non-degenerate on the n-subgroup.
e = group.pair
base = e(params.g, params.g)
a, b = 4, 11
assert e(group.mul(a, params.g), group.mul(b, params.g)) == base ** (a * b)
assert not base.is_one()
print(f"pair(g, g) = {base.re} + {base.im}i   (order {params.n})")

# Pairing against h lands in the q-subgroup of the target group — raising
# to q kills it.  This one-way projection is what makes tracing possible.
z = e(params.h, group.mul(5, params.g))
assert (z ** params.q).is_one()
print("pair(h, .) has order dividing q: ok")

print()
print("=== generated group: 16-bit primes ===")
params16 = gen_group_params(16, 16, random.Random(42))
print(f"p = {params16.p}, q = {params16.q}")
print(f"n = {params16.n}  ({params16.n.bit_length()} bits)")
print(f"ell = {params16.ell}  (r = {params16.r})")
# The public values alone show that the group is one gen_group_params
# could have built, and that [n]g = O.
grp16 = params16.group
check_public_group(grp16.n, grp16.ell, grp16.encode_point(grp16.g), grp16.encode_point(grp16.h))
assert grp16.in_group(grp16.g)
print("check_public_group and in_group(g): ok")

t0 = time.monotonic()
reps = 50
for i in range(reps):
    params16.group.pair(params16.g, params16.group.mul(i + 1, params16.g))
dt = (time.monotonic() - t0) / reps
print(f"pairing cost at this size: {dt * 1000:.2f} ms each")

print()
print("Note: these parameter sizes are for demonstration only.  Factoring a")
print("32-bit modulus is instant, so nothing here is secure — the package")
print("exists to show the protocol's structure, not to guard real money.")
