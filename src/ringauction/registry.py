"""Registration authority, key-possession proofs, the bulletin board and
its records.

The bulletin board is the single public artifact of the protocol: an
append-only sequenced log of key publications, evictions, posted bids and
winner announcements.  ``BulletinBoard`` is that log and the one fold of all
four kinds: a live board folds every record it appends, the public replay
every record it reads, so a board takes exactly the records a replay
accepts.  A record's seq is its position, and a posted bid's one handle.
There is no black list: eviction appends a record and the key simply drops
out of the active view, so the board is the only record of who has been
evicted.

The registration manager privately keeps the (published key -> identity)
table and nothing else.  Nothing on the board links a key to an identity.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass, replace
from typing import Callable, Container, Iterable

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
SEQ_WIDTH = 8  # a winner record's reference to its bid

_FIELD_WIDTH = 8
BID_MESSAGE_LEN = 3 * _FIELD_WIDTH


class RegistryError(Exception):
    """Base class for registration failures."""


class DuplicateKey(RegistryError):
    """The key already has a record (active or evicted)."""


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
        if not 0 <= value < 1 << (8 * _FIELD_WIDTH):
            raise ValueError(f"{name} out of range")
        parts.append(value.to_bytes(_FIELD_WIDTH, "big"))
    return b"".join(parts)


def decode_bid_message(data: bytes) -> tuple[int, int, int]:
    if len(data) != BID_MESSAGE_LEN:
        raise MalformedBid("bad bid message length")
    fields = [
        int.from_bytes(data[i * _FIELD_WIDTH: (i + 1) * _FIELD_WIDTH], "big")
        for i in range(3)
    ]
    return fields[0], fields[1], fields[2]


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


@dataclass(frozen=True)
class BidHead:
    """A checked bid payload whose points (ring keys, signature) stay encoded."""

    auction_id: int
    round_no: int
    price: int
    ring: tuple[bytes, ...]
    signature: bytes  # 2 + 2*len(ring) point encodings


def read_bid_head(group, data: bytes, known: Container[bytes] = ()) -> BidHead:
    """Every check of a bid payload, decoding nothing: each point is checked
    to decode (``check_point_bytes``), but for the ring keys that ``known``
    holds, such as a board's active view."""
    if len(data) < BID_MESSAGE_LEN + 4:
        raise MalformedBid("payload too short")
    auction_id, round_no, price = decode_bid_message(data[:BID_MESSAGE_LEN])
    count = int.from_bytes(data[BID_MESSAGE_LEN: BID_MESSAGE_LEN + 4], "big")
    if count < 1:
        raise MalformedBid("empty ring")
    width = group.point_bytes
    keys_start = BID_MESSAGE_LEN + 4
    sig_start = keys_start + count * width
    if len(data) != sig_start + (2 + 2 * count) * width:
        raise MalformedBid("payload length does not match ring size")
    ring = tuple(data[at: at + width] for at in range(keys_start, sig_start, width))
    if list(ring) != sorted(ring):
        raise MalformedBid("ring keys are not in canonical order")
    try:
        unknown = [key for key in ring if key not in known]
        check_point_bytes(b"".join(unknown), group.ell, len(unknown))
        if len(set(ring)) < count:
            raise MalformedBid("ring keys must be distinct")
        check_point_bytes(data[sig_start:], group.ell, 2 + 2 * count)  # the signature
    except InvalidPoint as exc:
        raise MalformedBid(str(exc)) from exc
    return BidHead(auction_id, round_no, price, ring, data[sig_start:])


def _head_of(group, bid: Bid, data: bytes) -> tuple[BidHead, Bid]:
    # read_bid_head's verdict on data said to encode bid, read from the bid:
    # its Ring rebuilt from the keys (sorted, distinct, encoded afresh), one
    # member per ring key, every point a canonical curve point (so its
    # encoding decodes back to it) and data exactly the bid's encoding.  The
    # board keeps the rebuilt bid, not the caller's Ring.
    try:
        bid = replace(bid, ring=Ring(group, bid.ring.keys))
    except (ValueError, OverflowError) as exc:  # a repeated key, or x < 0
        raise MalformedBid(str(exc)) from exc
    sig = bid.signature
    points = [*bid.ring, sig.s1, sig.s2,
              *(point for member in sig.members for point in (member.commit, member.proof))]
    if (len(sig.members) != len(bid.ring) or not all(map(group.is_on_curve, points))
            or serialize_bid_payload(bid) != data):
        raise MalformedBid("not the encoding of a bid of canonical points")
    signature = data[BID_MESSAGE_LEN + 4 + len(bid.ring) * group.point_bytes:]
    return BidHead(bid.auction_id, bid.round_no, bid.price, bid.ring.encodings, signature), bid


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

@dataclass(frozen=True)
class BoardEntry:
    seq: int
    kind: str
    payload: bytes


class BulletinBoard:
    """The append-only sequenced public log.  ``apply`` folds the next record
    (its seq is its position) and stores it, or raises MalformedBoard and
    changes nothing but the memos of ``bid`` and ``verified``:

    - a published key must decode to a finite point other than (0, 0) and
      not be active; an evicted key must be active (``active``);
    - a posted bid must read (``read_bid_head``), price at least 1, with
      every ring key active (``heads``);
    - an announced winner must repeat the payload of the posted bid it
      names, verify, be its auction's first and be the auction's ``leader``
      (``winners``).

    ``append`` posts a new record through ``apply``.  A caller holding a
    posted bid's ``Bid`` hands it in, and the fold then checks its points
    canonical and encoding to exactly the payload in place of reading the
    bytes.  The group's ell must be prime: the byte check is exact only then.
    ``entries``, ``active_keys`` and ``active_view`` hand out snapshots.
    """

    def __init__(self, pp: PublicParams) -> None:
        self.pp = pp
        self.group = pp.group
        self._entries: list[BoardEntry] = []
        self.active: set[bytes] = set()
        self.heads: dict[int, BidHead] = {}
        self._ranked: dict[int, list[tuple[int, int]]] = {}  # auction -> sorted (-price, seq)
        self._bids: dict[int, Bid] = {}  # by seq: handed in, or decoded by ``bid``
        self.results: dict[int, VerifyResult] = {}
        self.winners: dict[int, tuple[int, int, int]] = {}
        self._decode_key = functools.cache(self.group.decode_point)  # each ring key once

    def append(self, kind: str, payload: bytes, bid: Bid | None = None) -> int:
        """Post one record as the next seq; ``bid`` is a posted bid's ``Bid``,
        when the caller holds it.  Returns the record's seq."""
        if kind not in ENTRY_KINDS:
            raise ValueError(f"unknown entry kind {kind!r}")
        entry = BoardEntry(seq=len(self._entries), kind=kind, payload=payload)
        self.apply(entry, bid)
        return entry.seq

    def apply(self, entry: BoardEntry, bid: Bid | None = None) -> None:
        seq, kind, payload = entry.seq, entry.kind, entry.payload
        if kind == KEY_PUBLISHED:
            try:
                check_point_bytes(payload, self.group.ell)
            except InvalidPoint as exc:
                raise MalformedBoard(f"unreadable key: {exc}", seq=seq) from exc
            if not any(payload):  # the identity's encoding is all zero
                raise MalformedBoard("identity point published as a key", seq=seq)
            if not any(payload[:-1]):  # x = 0 under the even tag: (0, 0), of order 2
                raise MalformedBoard("order-2 point published as a key", seq=seq)
            if payload in self.active:
                raise MalformedBoard("key is already active", seq=seq)
            self.active.add(payload)
        elif kind == KEY_EVICTED:
            if payload not in self.active:
                raise MalformedBoard("evicting a key that is not active", seq=seq)
            self.active.remove(payload)
        elif kind == BID_POSTED:
            try:
                if bid is None:
                    head = read_bid_head(self.group, payload, self.active)
                else:
                    head, bid = _head_of(self.group, bid, payload)
            except MalformedBid as exc:
                raise MalformedBoard(f"unreadable bid: {exc}", seq=seq) from exc
            if head.price < 1:
                raise MalformedBoard("non-positive price", seq=seq)
            if not all(key in self.active for key in head.ring):
                raise MalformedBoard(RING_KEY_INACTIVE, seq=seq)
            self.heads[seq] = head
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
            if payload[SEQ_WIDTH:] != self._entries[ref].payload:
                raise MalformedBoard("winner payload differs from the referenced bid", seq=seq)
            if not self.verified(ref):
                raise MalformedBoard("announced winner's signature does not verify", seq=seq)
            if head.auction_id in self.winners:
                raise MalformedBoard("auction already has an announced winner", seq=seq)
            if self.leader(head.auction_id) != ref:
                raise MalformedBoard("a better verifying bid exists than the announced winner",
                                     seq=seq)
            self.winners[head.auction_id] = (head.auction_id, ref, head.price)
        self._entries.append(entry)

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
        """The bid posted at ``seq``: the ``Bid`` handed to ``apply``, else
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

    def entries(self) -> tuple[BoardEntry, ...]:
        return tuple(self._entries)

    def active_keys(self) -> frozenset[bytes]:
        """Snapshot of currently active key encodings."""
        return frozenset(self.active)

    def active_view(self) -> tuple[bytes, ...]:
        """Snapshot of the active key encodings in sorted order."""
        return tuple(sorted(self.active))


def board_to_text(entries: Iterable[BoardEntry]) -> str:
    """One record per line: seq, kind, hex payload."""
    return "".join(f"{e.seq} {e.kind} {e.payload.hex()}\n" for e in entries)


def parse_board_text(text: str) -> tuple[BoardEntry, ...]:
    """The only parser of ``seq kind payload`` records; blank lines are skipped.

    Record i must read as ``board_to_text`` writes it: seq ``str(i)``, payload
    in lowercase hex.  Raises MalformedBoard at the first that does not.
    """
    entries: list[BoardEntry] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(" ")
        if len(parts) != 3:
            raise MalformedBoard("record is not 'seq kind payload'", line=lineno)
        seq, kind = len(entries), parts[1]
        if parts[0] != str(seq):
            raise MalformedBoard("seq is not the record's position", line=lineno, seq=seq)
        if kind not in ENTRY_KINDS:
            raise MalformedBoard(f"unknown record kind {kind!r}", line=lineno, seq=seq)
        try:
            payload = bytes.fromhex(parts[2])
        except ValueError:
            payload = None
        if payload is None or payload.hex() != parts[2]:
            raise MalformedBoard("payload is not lowercase hex", line=lineno, seq=seq)
        entries.append(BoardEntry(seq=seq, kind=kind, payload=payload))
    return tuple(entries)


# ---------------------------------------------------------------------------
# registration manager

class RegistrationManager:
    """Owns the private identity table and publishes keys on its board.

    Single-owner actor: every mutation goes through this object.  The table
    (key encoding -> identity) survives eviction so audits can still resolve
    a key; whether a key is evicted is known only to the board.
    """

    def __init__(self, board: BulletinBoard) -> None:
        self.board = board
        self._identities: dict[bytes, bytes] = {}

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
        seq = self.board.append(KEY_PUBLISHED, encoded)
        self._identities[encoded] = identity
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
