"""Registration authority, key-possession proofs, the bulletin board and
its records.

The bulletin board is the single public artifact of the protocol: an
append-only sequenced log of key publications, evictions, posted bids and
winner announcements.  ``BulletinBoard`` is that log and the one fold of all
four kinds: the live board and the public replay both write it through
``append`` alone, so a board takes exactly the records a replay accepts.
A record is a plain ``(kind, payload)`` pair; its seq is its position, and
a posted bid's one handle; a bid's payload is posted once, and the board
encodes a bid handed to it.  The text form of the records is the
transcript's, which ``harness`` alone writes and reads.  There is no black
list: an eviction is a record, and the evicted key leaves the active view
for good, so the board alone records who has been evicted.

The registration manager privately keeps the (published key -> identity)
table and nothing else; an identity registers one key, ever.  Nothing on the
board links a key to an identity, so a replay cannot check that rule.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, replace
from typing import Callable, Container, NamedTuple

from .group import InvalidPoint, PairingGroup, Point, check_point_bytes
from .ringsig import (
    PublicParams,
    Ring,
    RingSignature,
    VerifyResult,
    deserialize_signature,
    serialize_signature,
    verify,
)

KEY_PUBLISHED = "key-published"
KEY_EVICTED = "key-evicted"
BID_POSTED = "bid-posted"
WINNER_ANNOUNCED = "winner-announced"
ENTRY_KINDS = (KEY_PUBLISHED, KEY_EVICTED, BID_POSTED, WINNER_ANNOUNCED)
RING_KEY_INACTIVE = "ring key not in the active view"
KEY_WAS_EVICTED = "publishing a key that was evicted"
BID_REPOSTED = "bid payload already posted"
BID_AFTER_WINNER = "bid posted after its auction's winner"
SEQ_WIDTH = 8  # a winner record's reference to its bid

_FIELD_WIDTH = 8
BID_MESSAGE_LEN = 3 * _FIELD_WIDTH


class RegistryError(Exception):
    """Base class for registration failures."""


class DuplicateKey(RegistryError):
    """The key, or the identity, already has a record (active or evicted)."""


class InvalidProof(RegistryError):
    """The possession proof or the key itself failed checks."""


class UnknownKey(RegistryError):
    """No record exists for the key."""


class AlreadyEvicted(RegistryError):
    """The key was evicted before."""


class MalformedBid(RegistryError):
    """A serialized bid payload failed to parse."""


class MalformedBoard(RegistryError):
    """A board record failed to parse or the board's fold refuses it.

    ``reason`` says what is wrong; ``seq`` (its position) and ``line`` (from a
    parser) locate the failing record, else None.  With a line number the
    message reads ``line N: reason``.
    """

    def __init__(self, reason: str, *, line: int | None = None,
                 seq: int | None = None) -> None:
        super().__init__(reason if line is None else f"line {line}: {reason}")
        self.reason = reason
        self.line = line
        self.seq = seq


# ---------------------------------------------------------------------------
# possession proofs

@dataclass(frozen=True)
class RegistrationProof:
    """Schnorr-style proof of knowledge of the key exponent, bound to the key
    and the claimed identity through the scalar hash (strong Fiat–Shamir)."""

    a_resp: int  # hash of key ‖ commitment ‖ identity (points are fixed-width)
    b_resp: int  # masked exponent response


def make_registration(x: int, pub_key: Point, identity: bytes,
                      group: PairingGroup, rng) -> RegistrationProof:
    """Prove knowledge of x for pub_key = [x]g; a proof for another key fails to verify."""
    t = rng.randrange(group.n)
    commitment = group.mul(t, group.g)
    statement = group.encode_point(pub_key) + group.encode_point(commitment) + identity
    a_resp = group.hash_to_zn(statement)
    b_resp = (t + x * a_resp) % group.n
    return RegistrationProof(a_resp=a_resp, b_resp=b_resp)


def verify_registration(pub_key: Point, identity: bytes,
                        proof: RegistrationProof, group: PairingGroup) -> bool:
    """Recompute the commitment as [b]g - [a]pub_key and re-derive the hash."""
    if pub_key is None or not group.is_on_curve(pub_key):
        return False
    if not (0 <= proof.a_resp < group.n and 0 <= proof.b_resp < group.n):
        return False
    (commitment,) = group.to_affine(group.add_jac(
        group.mul_jac(proof.b_resp, group.g),
        group.neg(group.mul(proof.a_resp, pub_key)),
    ))
    statement = group.encode_point(pub_key) + group.encode_point(commitment) + identity
    return proof.a_resp == group.hash_to_zn(statement)


# ---------------------------------------------------------------------------
# bid records

def encode_bid_message(auction_id: int, round_no: int, price: int) -> bytes:
    """The bytes a bid signature commits to: auction, round and price as
    fixed-width big-endian integers.  Binding auction and round prevents a
    signature from being replayed in another context."""
    parts = []
    for name, value in (("auction_id", auction_id), ("round", round_no), ("price", price)):
        if type(value) is not int or not 0 <= value < 1 << (8 * _FIELD_WIDTH):
            raise ValueError(f"{name} is not an int in range")
        parts.append(value.to_bytes(_FIELD_WIDTH, "big"))
    return b"".join(parts)


def decode_bid_message(data: bytes) -> tuple[int, int, int]:
    if len(data) != BID_MESSAGE_LEN:
        raise MalformedBid("bad bid message length")
    return (int.from_bytes(data[:_FIELD_WIDTH], "big"),
            int.from_bytes(data[_FIELD_WIDTH: 2 * _FIELD_WIDTH], "big"),
            int.from_bytes(data[2 * _FIELD_WIDTH: BID_MESSAGE_LEN], "big"))


@dataclass(frozen=True)
class Bid:
    auction_id: int
    round_no: int
    price: int
    ring: Ring
    signature: RingSignature

    def message_bytes(self) -> bytes:
        return encode_bid_message(self.auction_id, self.round_no, self.price)


def serialize_bid_payload(bid: Bid) -> bytes:
    """Canonical board payload: message bytes, ring encoding, signature."""
    return (
        bid.message_bytes()
        + bid.ring.encoded()
        + serialize_signature(bid.ring.group, bid.signature)
    )


class BidHead(NamedTuple):
    """A checked bid payload whose points (ring keys, signature) stay encoded."""

    auction_id: int
    round_no: int
    price: int
    ring: tuple[bytes, ...]
    signature: bytes  # 2 + 2*len(ring) point encodings


def read_bid_head(group, data: bytes, known: Container[bytes] = ()) -> BidHead:
    """Every check of a bid payload, in one pass decoding nothing: each point
    is checked to decode (``check_point_bytes``), but for the ring keys that
    ``known`` holds, such as a board's active view."""
    if len(data) < BID_MESSAGE_LEN + 4:
        raise MalformedBid("payload too short")
    count = int.from_bytes(data[BID_MESSAGE_LEN: BID_MESSAGE_LEN + 4], "big")
    if count < 1:
        raise MalformedBid("empty ring")
    width, ell = group.point_bytes, group.ell
    sig_start = BID_MESSAGE_LEN + 4 + count * width
    if len(data) != sig_start + (2 + 2 * count) * width:
        raise MalformedBid("payload length does not match ring size")
    keys = [data[at: at + width] for at in range(BID_MESSAGE_LEN + 4, sig_start, width)]
    if keys != sorted(keys):
        raise MalformedBid("ring keys are not in canonical order")
    ring, signature = tuple(keys), data[sig_start:]
    try:
        for key in ring:
            if key not in known:
                check_point_bytes(key, ell)
        if len(set(ring)) < count:
            raise MalformedBid("ring keys must be distinct")
        check_point_bytes(signature, ell, 2 + 2 * count)
    except InvalidPoint as exc:
        raise MalformedBid(str(exc)) from exc
    return BidHead(*decode_bid_message(data[:BID_MESSAGE_LEN]), ring, signature)


def _head_of(group, handed: Bid) -> tuple[BidHead, Bid, bytes]:
    # read_bid_head's verdict, read from the bid: its Ring rebuilt from the
    # keys encodes as the handed one, one member per key, every point
    # canonical (its encoding decodes back to it), every field in range.
    try:
        bid = replace(handed, ring=Ring(group, handed.ring.keys))
        payload = serialize_bid_payload(bid)
        sig = bid.signature
        points = [*bid.ring, sig.s1, sig.s2,
                  *(point for member in sig.members for point in (member.commit, member.proof))]
        canonical = (bid.ring.encodings == handed.ring.encodings
                     and len(sig.members) == len(bid.ring) and all(map(group.is_on_curve, points)))
    except (ValueError, OverflowError, TypeError, AttributeError) as exc:
        raise MalformedBid(str(exc)) from exc  # a repeated key, a value out of range, a wrong type
    if not canonical:
        raise MalformedBid("not a bid of canonical points")
    head = BidHead(bid.auction_id, bid.round_no, bid.price, bid.ring.encodings,
                   payload[BID_MESSAGE_LEN + 4 + len(bid.ring) * group.point_bytes:])
    return head, bid, payload


def decode_bid(group, head: BidHead, decode_key: Callable[[bytes], Point]) -> Bid:
    """The bid of ``head``, decoded; each ring key through ``decode_key``."""
    try:
        ring = Ring(group, [decode_key(key) for key in head.ring])
        signature = deserialize_signature(group, head.signature, len(ring))
    except (InvalidPoint, ValueError) as exc:
        raise MalformedBid(str(exc)) from exc
    return Bid(auction_id=head.auction_id, round_no=head.round_no, price=head.price,
               ring=ring, signature=signature)


# ---------------------------------------------------------------------------
# bulletin board

class BulletinBoard:
    """The append-only sequenced public log.  ``append``, its one write, live
    and on replay, folds the next record and stores it as a plain
    ``(kind, payload)`` pair (its seq is its position), or raises
    MalformedBoard and changes nothing but the memos of ``bid`` and
    ``verified``:

    - a published key must decode to a finite point other than (0, 0) and
      be neither active nor evicted before; an evicted key must be active;
    - a posted bid must read (``read_bid_head``), repeat no posted payload,
      come before its auction's winner, price at least 1 and have every ring
      key active (``heads``);
    - an announced winner must repeat the payload of the posted bid it
      names, verify, be its auction's first and be the auction's ``leader``
      (``winners``).

    A bid may be handed to ``append`` as its ``Bid``, whose points the fold
    checks canonical in place of reading bytes, and which it encodes once;
    ell must be prime, as the byte check is exact only then.
    ``entries`` (the stored pairs, as the harness's transcript reader yields
    them), ``active_keys`` and ``active_view`` hand out snapshots.
    """

    def __init__(self, pp: PublicParams) -> None:
        self.pp = pp
        self.group = pp.group
        self._entries: list[tuple[str, bytes]] = []  # (kind, payload)
        self.active: set[bytes] = set()
        self._evicted: set[bytes] = set()  # the keys that key-evicted records removed
        self.heads: dict[int, BidHead] = {}
        self._ranked: dict[int, list[tuple[int, int]]] = {}  # auction -> sorted (-price, seq)
        self._bids: dict[int, Bid] = {}  # by seq: handed in, or decoded by ``bid``
        self._posted: set[bytes] = set()  # every posted bid's payload
        self.results: dict[int, VerifyResult] = {}
        self.winners: dict[int, tuple[int, int, int]] = {}
        self._decode_key = functools.cache(self.group.decode_point)  # each ring key once

    def append(self, kind: str, payload: bytes | Bid) -> int:
        """Fold the next record and store it (a bid may be its ``Bid``); its seq."""
        seq = len(self._entries)
        if kind == KEY_PUBLISHED:
            try:
                check_point_bytes(payload, self.group.ell)
            except InvalidPoint as exc:
                raise MalformedBoard(f"unreadable key: {exc}", seq=seq) from exc
            if not any(payload[:-1]):  # x = 0: the identity, or (0, 0) of order 2
                raise MalformedBoard("order-2 point published as a key" if payload[-1] else
                                     "identity point published as a key", seq=seq)
            if payload in self.active:
                raise MalformedBoard("key is already active", seq=seq)
            if payload in self._evicted:
                raise MalformedBoard(KEY_WAS_EVICTED, seq=seq)
            self.active.add(payload)
        elif kind == KEY_EVICTED:
            if payload not in self.active:
                raise MalformedBoard("evicting a key that is not active", seq=seq)
            self.active.remove(payload)
            self._evicted.add(payload)
        elif kind == BID_POSTED:
            try:
                if isinstance(payload, Bid):
                    head, bid, payload = _head_of(self.group, payload)
                else:
                    head, bid = read_bid_head(self.group, payload, self.active), None
            except MalformedBid as exc:
                raise MalformedBoard(f"unreadable bid: {exc}", seq=seq) from exc
            if payload in self._posted:
                raise MalformedBoard(BID_REPOSTED, seq=seq)
            if head.auction_id in self.winners:
                raise MalformedBoard(BID_AFTER_WINNER, seq=seq)
            if head.price < 1:
                raise MalformedBoard("non-positive price", seq=seq)
            if not self.active.issuperset(head.ring):
                raise MalformedBoard(RING_KEY_INACTIVE, seq=seq)
            self.heads[seq] = head
            self._posted.add(payload)
            bisect.insort(self._ranked.setdefault(head.auction_id, []), (-head.price, seq))
            if bid is not None:
                self._bids[seq] = bid
        elif kind == WINNER_ANNOUNCED:
            if len(payload) < SEQ_WIDTH:
                raise MalformedBoard("winner record too short", seq=seq)
            ref = int.from_bytes(payload[:SEQ_WIDTH], "big")
            head = self.heads.get(ref)
            if head is None:
                raise MalformedBoard("winner references an unknown bid", seq=seq)
            if payload[SEQ_WIDTH:] != self._entries[ref][1]:
                raise MalformedBoard("winner payload differs from the referenced bid", seq=seq)
            if not self.verified(ref):
                raise MalformedBoard("announced winner's signature does not verify", seq=seq)
            if head.auction_id in self.winners:
                raise MalformedBoard("auction already has an announced winner", seq=seq)
            if self.leader(head.auction_id) != ref:
                raise MalformedBoard("a better verifying bid exists than the announced winner",
                                     seq=seq)
            self.winners[head.auction_id] = (head.auction_id, ref, head.price)
        else:
            raise ValueError(f"unknown entry kind {kind!r}")
        self._entries.append((kind, payload))
        return seq

    def high(self, auction_id: int) -> int:
        """The auction's highest posted price, 0 before its first bid."""
        ranked = self._ranked.get(auction_id)
        return -ranked[0][0] if ranked else 0

    def leader(self, auction_id: int) -> int | None:
        """The winner rule: the seq of the auction's first posted bid by
        (-price, seq) that ``verified`` passes, or None; no bid ranked below
        it is verified."""
        return next((seq for _, seq in self._ranked.get(auction_id, ())
                     if self.verified(seq)), None)

    def bid(self, seq: int) -> Bid:
        """The bid posted at ``seq``: the ``Bid`` handed to ``append``, else
        decoded once, each ring key through the board's key memo.  KeyError
        if no bid is posted at ``seq``."""
        if seq not in self._bids:
            self._bids[seq] = decode_bid(self.group, self.heads[seq], self._decode_key)
        return self._bids[seq]

    def verified(self, seq: int) -> VerifyResult:
        """``verify`` of ``bid(seq)``, run once per seq."""
        if seq not in self.results:
            bid = self.bid(seq)
            self.results[seq] = verify(self.pp, bid.ring, bid.message_bytes(), bid.signature)
        return self.results[seq]

    def entries(self) -> tuple[tuple[str, bytes], ...]:
        return tuple(self._entries)

    def active_keys(self) -> frozenset[bytes]:
        """Snapshot of currently active key encodings."""
        return frozenset(self.active)

    def active_view(self) -> tuple[bytes, ...]:
        """Snapshot of the active key encodings in sorted order."""
        return tuple(sorted(self.active))


# ---------------------------------------------------------------------------
# registration manager

class RegistrationManager:
    """Owns the private identity table and publishes keys on its board.

    Single-owner actor: every mutation goes through this object.  The table
    (key encoding -> identity) survives eviction so audits can still resolve
    a key, and so an identity whose key was evicted cannot register another;
    whether a key is evicted is known only to the board.
    """

    def __init__(self, board: BulletinBoard) -> None:
        self.board = board
        self._identities: dict[bytes, bytes] = {}
        self._registered: set[bytes] = set()  # the table's identities

    def register(self, pub_key: Point, identity: bytes, proof: RegistrationProof) -> int:
        """Verify the possession proof, publish the key, store the identity.

        Returns the board sequence number of the key publication.
        """
        group = self.board.group
        if pub_key is None:
            raise InvalidProof("the identity point cannot be registered")
        if not identity:
            raise InvalidProof("identity must be non-empty")
        # Order sanity: the key must live in the subgroup of exponent n.
        if not group.in_group(pub_key):
            raise InvalidProof("key order does not divide the group order")
        if not verify_registration(pub_key, identity, proof, group):
            raise InvalidProof("possession proof failed")
        encoded = group.encode_point(pub_key)
        if encoded in self._identities:
            raise DuplicateKey("key already registered")
        if identity in self._registered:
            raise DuplicateKey("identity already registered")
        seq = self.board.append(KEY_PUBLISHED, encoded)
        self._identities[encoded] = identity
        self._registered.add(identity)
        return seq

    def lookup_identity(self, pub_key: Point) -> bytes:
        """Resolve a published key to its identity (evicted keys stay resolvable)."""
        identity = self._identities.get(self.board.group.encode_point(pub_key))
        if identity is None:
            raise UnknownKey("no record for this key")
        return identity

    def evict(self, pub_key: Point) -> int:
        """Append the key's eviction record; the identity is kept for audit."""
        self.lookup_identity(pub_key)
        try:
            return self.board.append(KEY_EVICTED, self.board.group.encode_point(pub_key))
        except MalformedBoard as exc:  # the board knows the key is no longer active
            raise AlreadyEvicted("key was already evicted") from exc
