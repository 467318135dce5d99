"""Auction-side actors: bid messages, admission, winner selection, opening.

A bidder sends one registration, ever, and at most one bid per round;
``harness.run_scenario`` counts both in ``ScenarioResult.messages``.
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

from dataclasses import dataclass, field, replace
from typing import Callable, Container, Iterable, TypeVar

from .group import InvalidPoint, Point, check_point_bytes
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


class RingKeyNotOnBoard(AuctionError):
    """A ring references a key outside the board's active view."""


class NoValidBid(AuctionError):
    """No admitted bid carries a verifying signature."""


class MalformedBid(AuctionError):
    """A serialized bid payload failed to parse."""


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


@dataclass(frozen=True)
class BidHead:
    """A checked bid payload whose points (ring keys, signature) stay encoded."""

    auction_id: int
    round_no: int
    price: int
    ring: tuple[bytes, ...]
    signature: bytes  # 2 + 2*len(ring) point encodings
    seq: int | None = None


_Ranked = TypeVar("_Ranked", Bid, BidHead)


def read_bid_head(group, data: bytes, known: Container[bytes] = (), seq: int | None = None) -> BidHead:
    """Every check of ``parse_bid_payload``, decoding nothing: each point is
    checked to decode (``check_point_bytes``), but for the ring keys that
    ``known`` holds, such as a board fold's active view."""
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
    return BidHead(auction_id, round_no, price, ring, data[sig_start:], seq)


def decode_bid(group, head: BidHead, decode_key: Callable[[bytes], Point]) -> Bid:
    """The bid of ``head``, decoded; each ring key through ``decode_key``."""
    try:
        ring = Ring(group, [decode_key(key) for key in head.ring])
        signature = deserialize_signature(group, head.signature, len(ring))
    except (InvalidPoint, ValueError) as exc:
        raise MalformedBid(str(exc)) from exc
    return Bid(auction_id=head.auction_id, round_no=head.round_no, price=head.price,
               ring=ring, signature=signature, seq=head.seq)


def parse_bid_payload(group, data: bytes) -> Bid:
    """Strict inverse of serialize_bid_payload (rejects any slack bytes or a
    non-canonical ring order): ``read_bid_head``, then ``decode_bid``."""
    return decode_bid(group, read_bid_head(group, data), group.decode_point)


def first_verifying(bids: Iterable[_Ranked], verifies: Callable[[_Ranked], object]) -> _Ranked | None:
    """The winner rule: the first of ``bids`` (bids or bid heads) by
    (-price, seq) for which ``verifies`` holds, or None; no bid ranked below
    it is passed to it."""
    return next((bid for bid in sorted(bids, key=lambda bid: (-bid.price, bid.seq))
                 if verifies(bid)), None)


# ---------------------------------------------------------------------------
# actors

class BidderAgent:
    """Bidder-side state: a key pair plus the public board it reads."""

    def __init__(self, keypair, pp: PublicParams, board: BulletinBoard) -> None:
        self.keypair = keypair
        self.pp = pp
        self.board = board

    def place_bid(self, auction_id: int, round_no: int, price: int,
                  ring: Ring, rng) -> Bid:
        """Sign one bid message under ``ring`` (NotAMember if it omits our key)."""
        if not self.board.all_active(ring.encodings):
            raise RingKeyNotOnBoard("ring references a key not on the board")
        message = encode_bid_message(auction_id, round_no, price)
        signature = sign(self.pp, ring, self.keypair, message, rng)
        return Bid(auction_id=auction_id, round_no=round_no, price=price,
                   ring=ring, signature=signature)


@dataclass
class AuctionState:
    monotonic: bool = True
    phase: str = "open"  # open | closed | announced
    bids: list[Bid] = field(default_factory=list)
    seen_payloads: set[bytes] = field(default_factory=set)

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
        state = AuctionState(monotonic=monotonic)
        self._auctions[auction_id] = state
        return state

    def state(self, auction_id: int) -> AuctionState:
        try:
            return self._auctions[auction_id]
        except KeyError:
            raise AuctionError(f"unknown auction {auction_id}") from None

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
        if payload in state.seen_payloads:
            return AdmitResult(False, reason="replayed-bid")
        if state.monotonic and bid.price <= state.current_high():
            return AdmitResult(False, reason="price-not-monotonic")
        seq = self.board.append(BID_POSTED, payload)
        state.seen_payloads.add(payload)
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
        raise Untraceable("no unique ring member matches the tracing test")
    index, pub_key = traced
    identity = rm.lookup_identity(pub_key)
    if malicious and am.board.all_active([bid.ring.encodings[index]]):
        rm.evict(pub_key)
    return pub_key, identity

