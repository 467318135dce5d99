"""Auction-side actors: bid messages, admission, winner selection, opening.

Admission is deliberately cheap — structural checks plus a look at the
board's active-key view — and posts the bid publicly.  Ring signatures are
only verified to decide a winner, by one rule (``first_verifying``) that
both the auction manager and the public replay apply: walk the bids from
the highest price down (ties broken toward the earlier posting) and stop at
the first that verifies, so no bid ranked below the winner is verified.
Identity opening is a two-party step: the auction side traces the ring
position with the tracing key, the registration side resolves the identity
(and evicts the key when the bid was repudiated).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

from .group import InvalidPoint, Point
from .registry import (
    BID_POSTED,
    WINNER_ANNOUNCED,
    BulletinBoard,
    RegistrationManager,
)
from .ringsig import (
    NotVerified,
    PublicParams,
    Ring,
    RingSignature,
    TraceKey,
    Untraceable,
    VerifyResult,
    deserialize_signature,
    locate_signer,
    serialize_signature,
    sign,
    structure_problem,
    verify,
)

_FIELD_WIDTH = 8
BID_MESSAGE_LEN = 3 * _FIELD_WIDTH
_SEQ_WIDTH = 8


class AuctionError(Exception):
    """Base class for auction-side failures."""


class OwnKeyNotInRing(AuctionError):
    """A bidder tried to sign under a ring that omits its own key."""


class RingKeyNotOnBoard(AuctionError):
    """A ring references a key outside the board's active view."""


class NoValidBid(AuctionError):
    """No admitted bid carries a verifying signature."""


class MalformedBid(AuctionError):
    """A serialized bid payload failed to parse."""


class MalformedTranscript(AuctionError):
    """A message log entry is not understood."""


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
    seq: int | None = None  # board sequence once admitted

    def message_bytes(self) -> bytes:
        return encode_bid_message(self.auction_id, self.round_no, self.price)


def serialize_bid_payload(bid: Bid) -> bytes:
    """Canonical board payload: message bytes, ring encoding, signature."""
    return (
        bid.message_bytes()
        + bid.ring.encoded()
        + serialize_signature(bid.ring.group, bid.signature)
    )


def parse_bid_payload(group, data: bytes, points: Mapping[bytes, Point] | None = None) -> Bid:
    """Strict inverse of serialize_bid_payload (rejects any slack bytes or a
    non-canonical ring order).  Ring keys found in ``points`` (encoding ->
    decoded point, such as a board fold's) are taken from it, not decoded."""
    if len(data) < BID_MESSAGE_LEN + 4:
        raise MalformedBid("payload too short")
    auction_id, round_no, price = decode_bid_message(data[:BID_MESSAGE_LEN])
    count = int.from_bytes(data[BID_MESSAGE_LEN: BID_MESSAGE_LEN + 4], "big")
    if count < 1:
        raise MalformedBid("empty ring")
    width = group.point_bytes
    keys_start = BID_MESSAGE_LEN + 4
    sig_start = keys_start + count * width
    expected = sig_start + (2 + 2 * count) * width
    if len(data) != expected:
        raise MalformedBid("payload length does not match ring size")
    encodings = [data[keys_start + i * width: keys_start + (i + 1) * width] for i in range(count)]
    if encodings != sorted(encodings):
        raise MalformedBid("ring keys are not in canonical order")
    try:
        keys = [points[e] if points and e in points else group.decode_point(e) for e in encodings]
        ring = Ring(group, keys)
        signature = deserialize_signature(group, data[sig_start:], count)
    except (InvalidPoint, ValueError) as exc:
        raise MalformedBid(str(exc)) from exc
    return Bid(auction_id=auction_id, round_no=round_no, price=price,
               ring=ring, signature=signature)


def first_verifying(bids: Iterable[Bid], verifies: Callable[[Bid], object]) -> Bid | None:
    """The winner rule: the first of ``bids`` by (-price, seq) for which
    ``verifies`` holds, or None; no bid ranked below it is passed to it."""
    return next((bid for bid in sorted(bids, key=lambda bid: (-bid.price, bid.seq))
                 if verifies(bid)), None)


# ---------------------------------------------------------------------------
# actors

class BidderAgent:
    """Bidder-side state: a key pair plus the public board it reads."""

    def __init__(self, name: str, keypair, pp: PublicParams, board: BulletinBoard) -> None:
        self.name = name
        self.keypair = keypair
        self.pp = pp
        self.board = board

    def place_bid(self, auction_id: int, round_no: int, price: int,
                  ring: Ring, rng) -> Bid:
        """Sign one bid message under ``ring``; emits exactly one message."""
        if self.keypair.pub_key not in ring:
            raise OwnKeyNotInRing("bidder's own key must be part of the ring")
        if not self.board.all_active(ring.encodings):
            raise RingKeyNotOnBoard("ring references a key not on the board")
        message = encode_bid_message(auction_id, round_no, price)
        signature = sign(self.pp, ring, ring.index_of(self.keypair.pub_key),
                         self.keypair, message, rng)
        return Bid(auction_id=auction_id, round_no=round_no, price=price,
                   ring=ring, signature=signature)


@dataclass
class AuctionState:
    auction_id: int
    monotonic: bool = True
    phase: str = "open"  # open | closed | announced
    bids: list[Bid] = field(default_factory=list)
    seen_digests: set[bytes] = field(default_factory=set)

    def current_high(self) -> int:
        return max((bid.price for bid in self.bids), default=0)


@dataclass(frozen=True)
class AdmitResult:
    ok: bool
    seq: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class AuctionManager:
    """Runs auctions against a shared board.

    Signatures are *not* checked at admission; a bid with a broken signature
    sits on the board until winner determination skips it, and bids ranked
    below the winner are never verified.
    """

    def __init__(self, pp: PublicParams, trace_key: TraceKey, board: BulletinBoard) -> None:
        self.pp = pp
        self.trace_key = trace_key
        self.board = board
        self._auctions: dict[int, AuctionState] = {}
        self._verified: dict[tuple, VerifyResult] = {}

    def open_auction(self, auction_id: int, *, monotonic: bool = True) -> AuctionState:
        if auction_id in self._auctions:
            raise AuctionError(f"auction {auction_id} already exists")
        state = AuctionState(auction_id=auction_id, monotonic=monotonic)
        self._auctions[auction_id] = state
        return state

    def state(self, auction_id: int) -> AuctionState:
        try:
            return self._auctions[auction_id]
        except KeyError:
            raise AuctionError(f"unknown auction {auction_id}") from None

    def current_high(self, auction_id: int) -> int:
        return self.state(auction_id).current_high()

    def admit_bid(self, bid: Bid) -> AdmitResult:
        """Structural admission; posts the bid publicly on success."""
        state = self._auctions.get(bid.auction_id)
        if state is None:
            return AdmitResult(False, reason="unknown-auction")
        if state.phase != "open":
            return AdmitResult(False, reason="auction-closed")
        if bid.price < 1 or structure_problem(self.pp, bid.ring, bid.signature):
            return AdmitResult(False, reason="malformed")
        if not self.board.all_active(bid.ring.encodings):
            return AdmitResult(False, reason="ring-key-not-on-BBS")
        payload = serialize_bid_payload(bid)
        digest = hashlib.sha256(payload).digest()
        if digest in state.seen_digests:
            return AdmitResult(False, reason="replayed-bid")
        if state.monotonic and bid.price <= state.current_high():
            return AdmitResult(False, reason="price-not-monotonic")
        seq = self.board.append(BID_POSTED, payload)
        state.seen_digests.add(digest)
        state.bids.append(replace(bid, seq=seq))
        return AdmitResult(True, seq=seq)

    def close_auction(self, auction_id: int) -> None:
        state = self.state(auction_id)
        if state.phase != "open":
            raise AuctionError("auction is not open")
        state.phase = "closed"

    def determine_winner(self, auction_id: int) -> Bid:
        """Highest verifying bid wins; ties go to the earlier posting.

        This is where the lazily-skipped signature checks happen, through
        ``first_verifying``.  The winning bid is re-published with its ring
        signature so anyone can re-derive the outcome from the board alone.
        """
        state = self.state(auction_id)
        if state.phase != "closed":
            raise AuctionError("close the auction before determining a winner")
        bid = first_verifying(state.bids, self.verify_bid)
        if bid is None:
            raise NoValidBid("no admitted bid carries a verifying signature")
        state.phase = "announced"
        payload = bid.seq.to_bytes(_SEQ_WIDTH, "big") + serialize_bid_payload(bid)
        self.board.append(WINNER_ANNOUNCED, payload)
        return bid

    def verify_bid(self, bid: Bid) -> VerifyResult:
        """``verify``, run once per bid content (message, ring, signature), not per seq."""
        key = (bid.message_bytes(), bid.ring, bid.signature)
        if key not in self._verified:
            self._verified[key] = verify(self.pp, bid.ring, bid.message_bytes(), bid.signature)
        return self._verified[key]


def open_protocol(am: AuctionManager, rm: RegistrationManager, bid: Bid,
                  *, malicious: bool = False) -> tuple[Point, bytes]:
    """Two-party identity opening.

    The auction side checks the bid with ``am.verify_bid`` (NotVerified if it
    fails; a winner is not verified again) and locates the ring position with
    the tracing key; the registration side resolves the key to an identity.
    When the bid was repudiated (``malicious``), the key is also evicted from
    the board's active view unless the board no longer holds it as active.
    Neither authority can do this alone: one holds the tracing key, the other
    the identity table.
    """
    result = am.verify_bid(bid)
    if not result:
        raise NotVerified(result.reason)
    traced = locate_signer(am.trace_key, am.pp, bid.ring, bid.signature)
    if traced is None:
        raise Untraceable("no ring member matches the tracing test")
    index, pub_key = traced
    identity = rm.lookup_identity(pub_key)
    if malicious and am.board.all_active([bid.ring.encodings[index]]):
        rm.evict(pub_key)
    return pub_key, identity


# ---------------------------------------------------------------------------
# message accounting

MESSAGE_PHASES = ("registration", "bidding")


@dataclass(frozen=True)
class MessageEvent:
    """One protocol message sent by a bidder."""

    sender: str
    phase: str


class MessageCounter:
    """Per-sender tallies of protocol messages by phase."""

    def __init__(self) -> None:
        self._counts: dict[tuple[str, str], int] = {}

    def add(self, sender: str, phase: str) -> None:
        if phase not in MESSAGE_PHASES:
            raise MalformedTranscript(f"unknown message phase {phase!r}")
        key = (sender, phase)
        self._counts[key] = self._counts.get(key, 0) + 1

    def count(self, sender: str, phase: str) -> int:
        return self._counts.get((sender, phase), 0)

    def total(self, sender: str) -> int:
        return sum(v for (s, _), v in self._counts.items() if s == sender)

    def senders(self) -> tuple[str, ...]:
        return tuple(sorted({sender for sender, _ in self._counts}))


def count_messages(events: Iterable[MessageEvent]) -> MessageCounter:
    """Fold a message log into per-bidder, per-phase counts."""
    counter = MessageCounter()
    for event in events:
        counter.add(event.sender, event.phase)
    return counter
