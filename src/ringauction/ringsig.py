"""Revocable ring signatures over the composite-order pairing group.

A signature on a message under a ring of published keys consists of a pair
(s1, s2) plus one (commitment, proof) pair per ring member.  Exactly one
commitment carries the signer's key offset in the order-p component; the
order-q blinding added to every commitment makes the marked position
indistinguishable under the public verification equations.  Whoever knows
the factor q can strip the blinding — multiplying a commitment by q kills
its order-q part — and recover the signer's position without interacting
with the signer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .group import GroupParams, PairingGroup, Point, check_public_group, hash_to_bits


class RingSigError(Exception):
    """Base class for ring-signature failures."""


class NotAMember(RingSigError):
    """The signer's slot does not hold the signer's published key."""


class NotVerified(RingSigError):
    """An operation that requires a valid signature received an invalid one."""


class Untraceable(RingSigError):
    """No ring member matches the tracing test."""


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

    Input order never matters: keys are sorted by their point encoding, so
    any permutation of the same key set produces the same ring, the same
    signing transcript, and the same member alignment.
    """

    def __init__(self, group: PairingGroup, keys: Iterable[Point]) -> None:
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
        return isinstance(other, Ring) and self.encodings == other.encodings

    def __hash__(self) -> int:
        return hash(self.encodings)

    def index_of(self, pub_key: Point) -> int:
        """Position of ``pub_key`` in the canonical order (ValueError if absent)."""
        return self.keys.index(pub_key)

    def encoded(self) -> bytes:
        """4-byte big-endian key count, then the sorted point encodings."""
        return len(self.encodings).to_bytes(4, "big") + b"".join(self.encodings)


def canonical_encode(message: bytes, ring: Ring) -> bytes:
    """Injective binding of (message, ring): length-prefixed message followed
    by the sorted ring encoding."""
    return len(message).to_bytes(8, "big") + message + ring.encoded()


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

    def __post_init__(self) -> None:
        # Signing multiplies blind_base, and verification pairs key_base first.
        self.group.precompute(self.key_base, self.blind_base)

    def is_consistent(self) -> bool:
        """pair(key_base, h) == pair(g, blind_base) ties blind_base to
        key_base without revealing their shared exponent."""
        grp = self.group
        return grp.pair(self.key_base, grp.h) == grp.pair(grp.g, self.blind_base)


def setup(params: GroupParams, k: int, rng) -> tuple[PublicParams, TraceKey]:
    """Authority setup: publish the bases, keep only the tracing key."""
    if k < 1:
        raise ValueError("k must be at least 1")
    grp = params.group
    a = rng.randrange(grp.n)
    b0 = rng.randrange(grp.n)
    key_base = grp.mul(a, grp.g)
    commit_offset = grp.mul(b0, grp.g)
    blind_base = grp.mul(a, grp.h)
    hash_base = grp.mul(rng.randrange(grp.n), grp.g)
    hash_gens = tuple(grp.mul(rng.randrange(grp.n), grp.g) for _ in range(k))
    pp = PublicParams(
        group=grp,
        key_base=key_base,
        commit_offset=commit_offset,
        blind_base=blind_base,
        hash_base=hash_base,
        hash_gens=hash_gens,
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
    return BidderKeyPair(x=x, pub_key=grp.mul(x, grp.g), sign_key=grp.mul(x, pp.key_base))


def _waters_sum(pp: PublicParams, bits: tuple[int, ...]) -> Point:
    grp = pp.group
    acc = pp.hash_base
    for bit, gen in zip(bits, pp.hash_gens):
        if bit:
            acc = grp.add(acc, gen)
    return acc


def sign(pp: PublicParams, ring: Ring, signer_index: int, keypair: BidderKeyPair,
         message: bytes, rng) -> RingSignature:
    """Ring-sign ``message``; ``ring[signer_index]`` must be the signer's key.

    Draws one blinding exponent e_i per ring member, in ring order, then the
    randomiser r of s1 and s2."""
    grp = pp.group
    if not 0 <= signer_index < len(ring):
        raise NotAMember(f"index {signer_index} outside ring of size {len(ring)}")
    if ring[signer_index] != keypair.pub_key:
        raise NotAMember("ring slot does not hold the signer's published key")
    bits = hash_to_bits(canonical_encode(message, ring), len(pp.hash_gens))
    neg_offset = grp.neg(pp.commit_offset)
    members = []
    total_blind = 0
    for index, pub in enumerate(ring):
        e_i = rng.randrange(grp.n)
        total_blind = (total_blind + e_i) % grp.n
        offset_key = grp.add(pub, neg_offset)
        blind_pt = grp.mul(e_i, grp.h)
        if index == signer_index:
            commit = grp.add(offset_key, blind_pt)
            proof = grp.mul(e_i, commit)  # marked slot: inner point equals the commitment
        else:
            commit = blind_pt
            proof = grp.mul(e_i, grp.add(grp.neg(offset_key), blind_pt))
        members.append(MemberProof(commit=commit, proof=proof))
    r = rng.randrange(grp.n)
    s1 = grp.add(
        keypair.sign_key,
        grp.add(grp.mul(r, _waters_sum(pp, bits)), grp.mul(total_blind, pp.blind_base)),
    )
    s2 = grp.mul(r, grp.g)
    return RingSignature(s1=s1, s2=s2, members=tuple(members))


def structure_problem(pp: PublicParams, ring: Ring, sig: RingSignature) -> str | None:
    """The cheap shape check: one member proof per ring key and every
    component on the curve.  Returns the first problem, or None."""
    grp = pp.group
    if len(sig.members) != len(ring):
        return "malformed: member count does not match ring size"
    points = [sig.s1, sig.s2]
    for member in sig.members:
        points.append(member.commit)
        points.append(member.proof)
    for pt in points:
        if not grp.is_on_curve(pt):
            return "malformed: component off the curve"
    return None


def verify(pp: PublicParams, ring: Ring, message: bytes, sig: RingSignature) -> VerifyResult:
    """Public verification; returns acceptance or the first failure reason.

    After the shape check, each member proof must show that its commitment
    is the member's offset key or nothing, blinded in the order-q component;
    then the main equation binds the commitments to the message.
    """
    problem = structure_problem(pp, ring, sig)
    if problem:
        return VerifyResult(False, problem)
    grp = pp.group
    neg_offset = grp.neg(pp.commit_offset)
    for index, (pub, member) in enumerate(zip(ring, sig.members)):
        offset_key = grp.add(pub, neg_offset)
        shifted = grp.add(member.commit, grp.neg(offset_key))
        if grp.pair(member.commit, shifted) != grp.pair(grp.h, member.proof):
            return VerifyResult(False, f"membership-proof {index}")
    bits = hash_to_bits(canonical_encode(message, ring), len(pp.hash_gens))
    total_commit: Point = None
    for member in sig.members:
        total_commit = grp.add(total_commit, member.commit)
    lhs = grp.pair(pp.key_base, grp.add(pp.commit_offset, total_commit))
    rhs = grp.pair(sig.s1, grp.g) * grp.pair(grp.neg(sig.s2), _waters_sum(pp, bits))
    if lhs != rhs:
        return VerifyResult(False, "main-equation")
    return VerifyResult(True)


def trace(tk: TraceKey, pp: PublicParams, ring: Ring, message: bytes, sig: RingSignature):
    """Verify the signature on ``message`` (NotVerified(reason) if it fails),
    then return ``locate_signer``'s result.  The key must kill the order-q
    blinding and keep the order-p part: ValueError("bad trace key: ...")
    if [q]h != O or [q]g == O, raised before any verification."""
    grp = pp.group
    if grp.mul(tk.q, grp.h) is not None or grp.mul(tk.q, grp.g) is None:
        raise ValueError("bad trace key: [q]h must be the identity and [q]g must not")
    result = verify(pp, ring, message, sig)
    if not result:
        raise NotVerified(result.reason)
    return locate_signer(tk, pp, ring, sig)


def locate_signer(tk: TraceKey, pp: PublicParams, ring: Ring, sig: RingSignature):
    """(position, published key) of the signer of a signature known to verify,
    or None when no single member matches.  ``tk`` is a key as produced by
    ``setup`` or accepted by ``trace``.

    Multiplying by q annihilates the order-q blinding, so the marked slot —
    and only the marked slot, for honest signatures over distinct keys —
    satisfies [q](commit - (pub - commit_offset)) == O, which holds exactly
    when [q]commit == [q](pub - commit_offset).  A q divisible by the group
    order annihilates every slot, so it raises ValueError.
    """
    grp = pp.group
    if tk.q % grp.n == 0:
        raise ValueError("trace key is a multiple of the group order")
    neg_offset = grp.neg(pp.commit_offset)
    matches = []
    for index, (pub, member) in enumerate(zip(ring, sig.members)):
        shifted = grp.add(member.commit, grp.neg(grp.add(pub, neg_offset)))
        if grp.mul(tk.q, shifted) is None:
            matches.append(index)
    if len(matches) == 1:
        index = matches[0]
        return index, ring[index]
    return None


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


def public_params_to_dict(pp: PublicParams) -> dict:
    """JSON-ready form of the public parameters (decimal ints, hex points)."""
    grp = pp.group
    enc = lambda pt: grp.encode_point(pt).hex()
    return {
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
    }


def public_params_from_dict(data: dict) -> PublicParams:
    """Inverse of public_params_to_dict for untrusted input.

    ``check_public_group`` judges n, ell, g and h before any other point is
    decoded.  Raises ValueError for any missing field or field of the wrong
    shape, GroupError for a group that ``gen_group_params`` could not have
    built, and InvalidPoint (a GroupError) for a point that does not decode.
    """
    try:
        n = int(data["n"])
        ell = int(data["ell"])
        g, h = check_public_group(n, ell, bytes.fromhex(data["g"]), bytes.fromhex(data["h"]))
        group = PairingGroup(n, ell, g, h)
        if not data["hash_gens"]:
            raise ValueError("no hash generators")
        if data["hash"] != _hash_header(data["hash_gens"]):
            raise ValueError(f"hash must be sha256 with k = {len(data['hash_gens'])}, "
                             "one bit per generator")
        return PublicParams(
            group=group,
            key_base=group.decode_point(bytes.fromhex(data["key_base"])),
            commit_offset=group.decode_point(bytes.fromhex(data["commit_offset"])),
            blind_base=group.decode_point(bytes.fromhex(data["blind_base"])),
            hash_base=group.decode_point(bytes.fromhex(data["hash_base"])),
            hash_gens=tuple(group.decode_point(bytes.fromhex(t)) for t in data["hash_gens"]),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed public parameters: {exc!r}") from exc


def public_params_to_json(pp: PublicParams) -> bytes:
    """Canonical JSON bytes (sorted keys, no whitespace) for transcripts."""
    return json.dumps(public_params_to_dict(pp), sort_keys=True, separators=(",", ":")).encode()


def public_params_from_json(data: bytes) -> PublicParams:
    try:
        obj = json.loads(data.decode())
    except RecursionError as exc:
        raise ValueError("public parameters JSON is nested too deeply") from exc
    return public_params_from_dict(obj)
