"""Revocable ring signatures, start to finish.

A ring signature convinces a verifier that *someone* in a set of public keys
signed a message without revealing who.  This variant adds a twist: the
holder of a trace key (the factorization of the group order) can strip the
blinding and name the signer after the fact.

The demo walks through signing, verifying, tampering, and tracing — and
shows why the tracing equation needs care: projecting the commitment and
then re-adding the public offset identifies nobody.
"""

import random

from ringauction.group import gen_group_params
from ringauction.ringsig import Ring, keygen, setup, sign, trace, verify

rng = random.Random(7)

params = gen_group_params(16, 16, rng)
pp, tk = setup(params, 16, rng)
print(f"group order n = {params.group.n} = {params.p} * {params.q}")
print(f"trace key: q = {tk.q} (kept by the auctioneer)")
print()

# Five key pairs; the ring is just their public halves.
keypairs = [keygen(pp, rng) for _ in range(5)]
ring = Ring(pp.group, [kp.pub_key for kp in keypairs])
signer = keypairs[2]
position = ring.keys.index(signer.pub_key)
print(f"ring of {len(ring)} keys, secret signer sits at position {position}")

message = b"I bid 450"
sig = sign(pp, ring, signer, message, rng)
print(f"signature: s1, s2 plus {len(sig.members)} member commitments")

result = verify(pp, ring, message, sig)
print(f"verify({message!r}): {'accept' if result else 'reject'}")
assert result

# Anyone can check it; nobody learns the signer from the components alone.
# Each member's commitment is blinded by fresh randomness.
wrong = verify(pp, ring, b"I bid 451", sig)
print(f"verify on altered message: {'accept' if wrong else 'reject'}  "
      f"({wrong.reason})")

# Tamper with a single point and the whole thing collapses.
from dataclasses import replace
tampered = replace(sig, s1=pp.group.add(sig.s1, pp.group.g))
print(f"verify with nudged s1: {bool(verify(pp, ring, message, tampered))}")

print()
print("--- tracing ---")
traced = trace(tk, pp, ring, message, sig)
print(f"trace() -> position {traced[0]}, correct: {traced[0] == position}")

# The trap: it is tempting to open member i by computing [q]C_i + B0 and
# comparing against pk_i.  That re-adds the offset *outside* the projection,
# so the comparison is between elements of different subgroup cosets and
# never matches an honest key.  The working test keeps everything projected:
#   [q]C_i  ==  [q](pk_i - B0)
group = pp.group
q = tk.q
naive_hits = []
for i, pub in enumerate(ring):
    candidate = group.add(group.mul(q, sig.members[i].commit), pp.commit_offset)
    if candidate == pub:
        naive_hits.append(i)
print(f"naive opening [q]C_i + B0 == pk_i matches: {naive_hits or 'nobody'}")

projected_hits = [
    i for i, pub in enumerate(ring)
    if group.mul(q, sig.members[i].commit)
    == group.mul(q, group.add(pub, group.neg(pp.commit_offset)))
]
print(f"projected test [q]C_i == [q](pk_i - B0) matches: {projected_hits}")
assert projected_hits == [position]

print()
print("trace() verifies the signature on its message first, so only a valid")
print("bid is ever opened; the projected test itself never reads the message.")
