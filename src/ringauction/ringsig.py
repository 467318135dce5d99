"""Revocable ring signatures over the composite-order pairing group.

A signature on a message under a ring of published keys consists of a pair
(s1, s2) plus one (commitment, proof) pair per ring member.  Exactly one
commitment carries the signer's key offset in the order-p component; the
order-q blinding added to every commitment makes the marked position
indistinguishable under the public verification equations.  Whoever knows
the factor q can strip the blinding — multiplying a commitment by q kills
its order-q part — and recover the signer's position without interacting
with the signer.

``well_formed`` is the one judge of a (ring, signature) pair's form, the
ring's order, distinctness and non-emptiness included: ``verify`` words its
refusal for a signature and the bulletin board for a handed bid, and
whether a point lies in G_n is ``pair``'s separate refusal.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .group import (GroupParams, InvalidPoint, Jac, PairingGroup, Point, check_public_group,
                    hash_to_bits, jacobian)


class RingSigError(Exception):
    """Base class for ring-signature failures."""


class NotAMember(RingSigError):
    """The ring does not hold the signer's published key."""


class NotVerified(RingSigError):
    """An operation that requires a valid signature received an invalid one."""


class Untraceable(RingSigError):
    """``locate_signer``'s verdict that no single ring member can be named: no
    slot passes the tracing test, or the degenerate-key filter keeps none or
    several of those that do.  The message names the slots at each step."""


@dataclass(frozen=True)
class TraceKey:
    """The tracing exponent: the order-q factor of the group order."""

    q: int


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class BidderKeyPair:
    """x is the exponent, pub_key = [x]g is published, sign_key = [x]key_base
    stays with the signer."""

    x: int
    pub_key: Point
    sign_key: Point


@dataclass(frozen=True)
class MemberProof:
    """Per-member commitment and its well-formedness proof."""

    commit: Point
    proof: Point


@dataclass(frozen=True)
class RingSignature:
    s1: Point
    s2: Point
    members: tuple[MemberProof, ...]


class Ring:
    """Ordered ring of distinct published keys, canonically sorted.

    Every key must be a canonical point (``is_on_curve``; O included, which
    the board refuses as an inactive key), else ValueError: an unreduced
    twin of a key would encode as another point or not at all.

    Input order never matters: keys are sorted by their point encoding, so
    any permutation of the same key set produces the same ring, the same
    signing transcript, and the same member alignment.
    """

    def __init__(self, group: PairingGroup, keys: Iterable[Point]) -> None:
        keys = tuple(keys)
        if not all(map(group.is_on_curve, keys)):
            raise ValueError("ring keys must be canonical points")
        pairs = sorted(((group.encode_point(key), key) for key in keys), key=lambda kv: kv[0])
        if not pairs:
            raise ValueError("a ring needs at least one key")
        for (left, _), (right, _) in zip(pairs, pairs[1:]):
            if left == right:
                raise ValueError("ring keys must be distinct")
        self.group = group
        self.encodings: tuple[bytes, ...] = tuple(encoding for encoding, _ in pairs)
        self.keys: tuple[Point, ...] = tuple(key for _, key in pairs)

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.keys)

    def __getitem__(self, index: int) -> Point:
        return self.keys[index]

    def __contains__(self, key: Point) -> bool:
        return key in self.keys

    def __eq__(self, other: object) -> bool:
        # Exact Rings whose encodings are exact tuples of exact bytes, else
        # unequal: a missing attribute, or a subclass's __eq__, decides nothing.
        mine = getattr(self, "encodings", None) if type(self) is Ring else None
        theirs = getattr(other, "encodings", None) if type(other) is Ring else None
        return (type(mine) is type(theirs) is tuple
                and all(type(encoding) is bytes for encoding in mine + theirs) and mine == theirs)

    def encoded(self) -> bytes:
        """4-byte big-endian key count, then the sorted point encodings."""
        return len(self.encodings).to_bytes(4, "big") + b"".join(self.encodings)


def canonical_encode(message: bytes, ring: Ring) -> bytes:
    """Injective binding of (message, ring): length-prefixed message followed
    by the sorted ring encoding, ``Ring``'s own, never an instance's."""
    return len(message).to_bytes(8, "big") + message + Ring.encoded(ring)


@dataclass(frozen=True)
class PublicParams:
    """Published signing parameters.

    key_base     anchor for secret signing values: sign_key = [x]key_base.
    commit_offset  subtracted from a member key inside its commitment.
    blind_base   order-q shadow of key_base ([a]h for key_base = [a]g); it
                 carries the aggregate blinding across the main equation.
    hash_base, hash_gens  generators combined by the k-bit message hash,
                 one message bit per hash generator: k = len(hash_gens).

    The exponents behind these points are used once at setup and discarded;
    the issuing authority retains only the tracing key.
    """

    group: PairingGroup
    key_base: Point
    commit_offset: Point
    blind_base: Point
    hash_base: Point
    hash_gens: tuple[Point, ...]
    _offset_keys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Signing multiplies blind_base, and verification pairs key_base first.
        self.group.precompute(self.key_base, self.blind_base)

    def offset_keys(self, ring: Ring) -> list[Point]:
        """K′ = pub - commit_offset for each ring key, kept per key: a key's
        first computation counts one addition and one negation, later ones
        nothing, and the keys new to the memo are made affine together."""
        grp, memo = self.group, self._offset_keys
        new = [pub for pub in ring if pub not in memo]
        if new:
            memo.update(zip(new, grp.to_affine(
                *(grp.add_jac(jacobian(pub), grp.neg(self.commit_offset)) for pub in new))))
        return [memo[pub] for pub in ring]


def setup(params: GroupParams, k: int, rng) -> tuple[PublicParams, TraceKey]:
    """Authority setup: publish the bases, keep only the tracing key."""
    if k < 1:
        raise ValueError("k must be at least 1")
    grp = params.group
    a = rng.randrange(grp.n)
    b0 = rng.randrange(grp.n)
    grp.precompute(grp.g)  # every mul of g, key_base's first one too, uses its table
    # h has order q, so blind_base = [a]h = [a mod q]h, on a ladder of q's length.
    key_base, commit_offset, blind_base, hash_base, *hash_gens = grp.to_affine(
        grp.mul_jac(a, grp.g), grp.mul_jac(b0, grp.g), grp.mul_jac(a % params.q, grp.h),
        *(grp.mul_jac(rng.randrange(grp.n), grp.g) for _ in range(k + 1)))
    pp = PublicParams(
        group=grp,
        key_base=key_base,
        commit_offset=commit_offset,
        blind_base=blind_base,
        hash_base=hash_base,
        hash_gens=tuple(hash_gens),
    )
    return pp, TraceKey(q=params.q)


def keygen(pp: PublicParams, rng) -> BidderKeyPair:
    """Draw a key pair; a zero exponent would publish the identity point, so
    it is resampled."""
    grp = pp.group
    while True:
        x = rng.randrange(grp.n)
        if x != 0:
            break
    pub_key, sign_key = grp.to_affine(grp.mul_jac(x, grp.g), grp.mul_jac(x, pp.key_base))
    return BidderKeyPair(x=x, pub_key=pub_key, sign_key=sign_key)


def _waters_sum(pp: PublicParams, bits: tuple[int, ...]) -> Jac:
    grp = pp.group
    acc = jacobian(pp.hash_base)
    for bit, gen in zip(bits, pp.hash_gens):
        if bit:
            acc = grp.add_jac(acc, gen)
    return acc


def sign(pp: PublicParams, ring: Ring, keypair: BidderKeyPair, message: bytes,
         rng) -> RingSignature:
    """Ring-sign ``message`` in the ring's slot for ``keypair.pub_key``
    (NotAMember if the ring does not hold it); draws one blinding exponent
    e_i per ring member, in ring order, then the randomiser r of s1 and s2.
    Points stay Jacobian and are made affine in three batches, one field
    inversion each: the commitments with the decoys' ladder bases and the
    message sum W (the signer's ladder multiplies its commitment), then the
    proofs with [r]W, [sum e_i]blind_base and s2, then s1."""
    grp = pp.group
    if keypair.pub_key not in ring:
        raise NotAMember("the ring does not hold the signer's published key")
    bits = hash_to_bits(canonical_encode(message, ring), len(pp.hash_gens))
    slots, commits, bases = [], [], []
    for pub, key in zip(ring, pp.offset_keys(ring)):
        e_i = rng.randrange(grp.n)
        commit = grp.mul_jac(e_i, grp.h)
        signer = pub == keypair.pub_key  # ring keys are distinct
        if signer:
            commit = grp.add_jac(commit, key)
        slots.append((e_i, key, signer))
        commits.append(commit)
        bases.append(grp.member_base(commit, key, signer))
    r = rng.randrange(grp.n)
    *points, waters = grp.to_affine(*commits, *bases, _waters_sum(pp, bits))
    total_blind = sum(e_i for e_i, _, _ in slots) % grp.n
    commit_pts, base_pts = points[:len(slots)], points[len(slots):]
    *proofs, r_waters, blind, s2 = grp.to_affine(
        *[grp.member_proof_jac(e_i, commit, base, key, signer)
          for (e_i, key, signer), commit, base in zip(slots, commit_pts, base_pts)],
        grp.mul_jac(r, waters), grp.mul_jac(total_blind, pp.blind_base), grp.mul_jac(r, grp.g))
    (s1,) = grp.to_affine(grp.add_jac(grp.add_jac(jacobian(keypair.sign_key), r_waters), blind))
    return RingSignature(s1=s1, s2=s2, members=tuple(map(MemberProof, commit_pts, proofs)))


def well_formed(group: PairingGroup, ring: object, sig: object) -> bool:
    """``ring`` is a ``Ring`` with a tuple of keys and one of ``bytes``
    encodings, and ``sig`` a ``RingSignature`` with a tuple of one
    ``MemberProof`` per key, each of exact type (no subclass), every point
    canonical (``is_on_curve``, which is total), and the encodings are the
    keys' own, at least one and strictly increasing, as ``Ring`` makes them
    and a replay reads them: the message hash binds the encodings and the
    equations pair over the keys.  A missing attribute is refused too."""
    try:
        return (type(ring) is Ring and type(sig) is RingSignature
                and type(ring.keys) is type(ring.encodings) is type(sig.members) is tuple
                and len(sig.members) == len(ring) > 0
                and all(type(member) is MemberProof for member in sig.members)
                and all(type(encoding) is bytes for encoding in ring.encodings)
                and all(map(group.is_on_curve, (*ring, sig.s1, sig.s2, *(
                    point for member in sig.members for point in (member.commit, member.proof)))))
                and ring.encodings == tuple(map(group.encode_point, ring.keys))
                and all(left < right for left, right in zip(ring.encodings, ring.encodings[1:])))
    except AttributeError:
        return False


def verify(pp: PublicParams, ring: Ring, message: bytes, sig: RingSignature) -> VerifyResult:
    """Public verification; returns acceptance or the first failure reason.

    A (ring, signature) pair that ``well_formed`` refuses, a ring out of
    canonical order or an instance missing an attribute included, is
    "malformed: not a signature of canonical points", before any equation.
    Then each member proof must show that its commitment is the member's
    offset key or nothing, blinded in the order-q component, and the main
    equation binds the commitments to the message.  A commitment, s1 or s2
    outside G_n is "malformed" too (``pair`` refuses it): verify never
    raises.  Member proofs must lie in G_n too, which is not checked here.
    """
    grp = pp.group
    if not well_formed(grp, ring, sig):
        return VerifyResult(False, "malformed: not a signature of canonical points")
    try:
        for index, (member, shifted) in enumerate(zip(sig.members, _shifted_commits(pp, ring, sig))):
            if grp.pair(member.commit, shifted) != grp.pair(grp.h, member.proof):
                return VerifyResult(False, f"membership-proof {index}")
        bits = hash_to_bits(canonical_encode(message, ring), len(pp.hash_gens))
        total_commit = jacobian(None)
        for member in sig.members:
            total_commit = grp.add_jac(total_commit, member.commit)
        offset_sum, waters = grp.to_affine(grp.add_jac(total_commit, pp.commit_offset),
                                           _waters_sum(pp, bits))
        lhs = grp.pair(pp.key_base, offset_sum)
        rhs = grp.pair(sig.s1, grp.g) * grp.pair(grp.neg(sig.s2), waters)
    except InvalidPoint as exc:
        return VerifyResult(False, f"malformed: {exc}")
    if lhs != rhs:
        return VerifyResult(False, "main-equation")
    return VerifyResult(True)


def _shifted_commits(pp: PublicParams, ring: Ring, sig: RingSignature) -> list[Point]:
    # C - K′ for each slot of a well-formed pair, counted as one negation and
    # one addition each, made affine together.
    grp = pp.group
    return grp.to_affine(*(grp.add_jac(jacobian(member.commit), grp.neg(key))
                           for key, member in zip(pp.offset_keys(ring), sig.members)))


def check_trace_key(tk: TraceKey, pp: PublicParams) -> None:
    """ValueError("bad trace key: ...") unless the key kills the order-q
    blinding and keeps the order-p part: [q]h == O and [q]g != O."""
    grp = pp.group
    if grp.mul_jac(tk.q, grp.h)[2] or not grp.mul_jac(tk.q, grp.g)[2]:  # Z = 0 only for O
        raise ValueError("bad trace key: [q]h must be the identity and [q]g must not")


def trace(tk: TraceKey, pp: PublicParams, ring: Ring, message: bytes, sig: RingSignature):
    """``check_trace_key``, then verify the signature on ``message``
    (NotVerified(reason) if it fails), then ``locate_signer``: the signer's
    (position, published key), or its Untraceable."""
    check_trace_key(tk, pp)
    result = verify(pp, ring, message, sig)
    if not result:
        raise NotVerified(result.reason)
    return locate_signer(tk, pp, ring, sig)


def locate_signer(tk: TraceKey, pp: PublicParams, ring: Ring, sig: RingSignature):
    """(position, published key) of the signer of a signature known to verify.
    ``tk`` is a key as produced by ``setup`` or accepted by ``trace``.  This
    is the one judge of an opening's verdict: when no single member can be
    named it raises Untraceable, whose message names the slots that pass the
    tracing test ("no ring slot passes the tracing test" when none does) and
    those the degenerate-key filter keeps ("none" when it keeps none).

    Multiplying by q annihilates the order-q blinding, so the marked slot —
    and only the marked slot, for honest signatures over distinct keys —
    satisfies [q](commit - (pub - commit_offset)) == O, which holds exactly
    when [q]commit == [q](pub - commit_offset).  A key with [q](pub -
    commit_offset) == O matches in every slot, but the membership proof puts
    its commit in G_q and a non-degenerate signer's outside it, so of several
    matches only those with [q]commit != O are kept.  A q divisible by the
    group order annihilates every slot, so it raises ValueError.
    """
    grp = pp.group
    if tk.q % grp.n == 0:
        raise ValueError("trace key is a multiple of the group order")
    # Each [q]P = O is read from the ladder's Z, with no inversion.
    matches = [index for index, shifted in enumerate(_shifted_commits(pp, ring, sig))
               if not grp.mul_jac(tk.q, shifted)[2]]
    if not matches:
        raise Untraceable("no ring slot passes the tracing test")
    kept = matches if len(matches) == 1 else [
        i for i in matches if grp.mul_jac(tk.q, sig.members[i].commit)[2]]
    if len(kept) != 1:
        slots = lambda found: ", ".join(map(str, found)) or "none"
        raise Untraceable(f"ring slots {slots(matches)} pass the tracing test; "
                          f"the degenerate-key filter keeps {slots(kept)}")
    return kept[0], ring[kept[0]]


# ---------------------------------------------------------------------------
# serialization

def serialize_signature(group: PairingGroup, sig: RingSignature) -> bytes:
    """s1, s2, then commit/proof per member: 2 + 2*len(ring) point encodings."""
    parts = [group.encode_point(sig.s1), group.encode_point(sig.s2)]
    for member in sig.members:
        parts.append(group.encode_point(member.commit))
        parts.append(group.encode_point(member.proof))
    return b"".join(parts)


def deserialize_signature(group: PairingGroup, data: bytes, ring_size: int) -> RingSignature:
    width = group.point_bytes
    expected = (2 + 2 * ring_size) * width
    if len(data) != expected:
        raise ValueError(f"signature must be exactly {expected} bytes for ring size {ring_size}")
    chunks = [data[i: i + width] for i in range(0, len(data), width)]
    points = [group.decode_point(chunk) for chunk in chunks]
    members = tuple(
        MemberProof(commit=points[2 + 2 * i], proof=points[3 + 2 * i])
        for i in range(ring_size)
    )
    return RingSignature(s1=points[0], s2=points[1], members=members)


def _hash_header(hash_gens) -> dict:
    """The header's ``hash`` entry: SHA-256 bits, one per hash generator."""
    return {"algorithm": "sha256", "k": len(hash_gens)}


def public_params_to_json(pp: PublicParams) -> bytes:
    """Canonical JSON bytes (sorted keys, no whitespace; decimal ints, hex points)."""
    grp = pp.group
    enc = lambda pt: grp.encode_point(pt).hex()
    return json.dumps({
        "n": str(grp.n),
        "ell": str(grp.ell),
        "g": enc(grp.g),
        "h": enc(grp.h),
        "key_base": enc(pp.key_base),
        "commit_offset": enc(pp.commit_offset),
        "blind_base": enc(pp.blind_base),
        "hash_base": enc(pp.hash_base),
        "hash_gens": [enc(pt) for pt in pp.hash_gens],
        "hash": _hash_header(pp.hash_gens),
    }, sort_keys=True, separators=(",", ":")).encode()


def public_params_from_json(data: bytes) -> PublicParams:
    """Inverse of public_params_to_json for untrusted input.

    ``check_public_group`` judges n, ell, g and h before any other point is
    decoded.  Raises ValueError for any missing field or field of the wrong
    shape, GroupError for a group that ``gen_group_params`` could not have
    built, and InvalidPoint (a GroupError) for a point that does not decode.
    """
    try:
        fields = json.loads(data.decode())
    except RecursionError as exc:
        raise ValueError("public parameters JSON is nested too deeply") from exc
    try:
        n = int(fields["n"])
        ell = int(fields["ell"])
        g, h = check_public_group(n, ell, bytes.fromhex(fields["g"]), bytes.fromhex(fields["h"]))
        group = PairingGroup(n, ell, g, h)
        if not fields["hash_gens"]:
            raise ValueError("no hash generators")
        if fields["hash"] != _hash_header(fields["hash_gens"]):
            raise ValueError(f"hash must be sha256 with k = {len(fields['hash_gens'])}, "
                             "one bit per generator")
        return PublicParams(
            group=group,
            key_base=group.decode_point(bytes.fromhex(fields["key_base"])),
            commit_offset=group.decode_point(bytes.fromhex(fields["commit_offset"])),
            blind_base=group.decode_point(bytes.fromhex(fields["blind_base"])),
            hash_base=group.decode_point(bytes.fromhex(fields["hash_base"])),
            hash_gens=tuple(group.decode_point(bytes.fromhex(t)) for t in fields["hash_gens"]),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed public parameters: {exc!r}") from exc
