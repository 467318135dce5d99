"""Auction-side actors: bidding, admission, winner selection, opening.

A bidder sends one registration, ever (the registration manager refuses an
identity's second), and at most one bid per round; ``harness.run_scenario``
counts both in ``ScenarioResult.messages``.  The
auction manager applies only its own policies and then posts: the board's
fold (``registry.BulletinBoard.append``) decides whether a bid or winner
record is valid, as it does on replay, and encodes the ``Bid`` the manager
hands it.  Every actor reads its public facts from the board it acts on
(parameters, active keys, posted bids and prices, announced winners); the
manager keeps only each auction's price policy and whether it is closed.
A posted bid is named by its board seq: admission returns it, the winner is
one, and only a seq is opened.  Ring signatures are only verified to decide
a winner, by the board's one rule (``BulletinBoard.leader``): walk the bids
from the highest price down (ties broken toward the earlier posting) and
stop at the first that verifies.  Identity opening is a two-party step: the
auction side traces the ring position with the tracing key, the
registration side resolves the identity (and evicts the key when the bid
was repudiated).
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import Point
from .registry import (
    BID_POSTED,
    BID_REPOSTED,
    RING_KEY_INACTIVE,
    SEQ_WIDTH,
    WINNER_ANNOUNCED,
    Bid,
    BulletinBoard,
    MalformedBoard,
    RegistrationManager,
    decode_bid,
    encode_bid_message,
    read_bid_head,
    serialize_bid_payload,
)
from .ringsig import (
    NotVerified,
    Ring,
    TraceKey,
    Untraceable,
    locate_signer,
    sign,
)

__all__ = ["AuctionError", "NoValidBid", "parse_bid_payload",
           "serialize_bid_payload", "BidderAgent", "AuctionState", "AdmitResult",
           "AuctionManager", "open_protocol"]


class AuctionError(Exception):
    """Base class for auction-side failures."""


class NoValidBid(AuctionError):
    """No admitted bid carries a verifying signature."""


def parse_bid_payload(group, data: bytes) -> Bid:
    """Strict inverse of serialize_bid_payload (rejects any slack bytes or a
    non-canonical ring order): ``read_bid_head``, then ``decode_bid``."""
    return decode_bid(group, read_bid_head(group, data), group.decode_point)


# ---------------------------------------------------------------------------
# actors

class BidderAgent:
    """Bidder-side state: a key pair plus the public board it reads."""

    def __init__(self, keypair, board: BulletinBoard) -> None:
        self.keypair = keypair
        self.board = board

    def place_bid(self, auction_id: int, round_no: int, price: int,
                  ring: Ring, rng) -> Bid:
        """Sign one bid message under ``ring`` (NotAMember if it omits our key);
        the board refuses a ring with an inactive key at admission."""
        message = encode_bid_message(auction_id, round_no, price)
        signature = sign(self.board.pp, ring, self.keypair, message, rng)
        return Bid(auction_id=auction_id, round_no=round_no, price=price,
                   ring=ring, signature=signature)


@dataclass
class AuctionState:
    monotonic: bool = True
    closed: bool = False


@dataclass(frozen=True)
class AdmitResult:
    ok: bool
    seq: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class AuctionManager:
    """Runs auctions against a shared board.

    Its own policies: the auction is open, and prices rise over the board's
    ``high`` in a monotonic auction; the board refuses the rest (an inactive
    ring key, a repeated payload) and holds each announced winner.
    Signatures are *not* checked at admission; a bid with a broken signature
    sits on the board until winner determination skips it.
    """

    def __init__(self, trace_key: TraceKey, board: BulletinBoard) -> None:
        self.trace_key = trace_key
        self.board = board
        self._auctions: dict[int, AuctionState] = {}

    def open_auction(self, auction_id: int, *, monotonic: bool = True) -> None:
        if auction_id in self._auctions:
            raise AuctionError(f"auction {auction_id} already exists")
        self._auctions[auction_id] = AuctionState(monotonic=monotonic)

    def admit_bid(self, bid: Bid) -> AdmitResult:
        """Post the bid unless, in this order, it is ``unknown-auction``,
        ``auction-closed``, ``price-not-monotonic`` or the board refuses it:
        ``ring-key-not-on-BBS`` for a ring key outside the active view,
        ``replayed-bid`` for a payload it holds, else ``malformed``, as is
        anything that is not a ``Bid``."""
        if not isinstance(bid, Bid):
            return AdmitResult(False, reason="malformed")
        state = self._auctions.get(bid.auction_id) if type(bid.auction_id) is int else None
        if state is None:
            return AdmitResult(False, reason="unknown-auction")
        if state.closed:
            return AdmitResult(False, reason="auction-closed")
        if state.monotonic and (type(bid.price) is not int
                                or bid.price <= self.board.high(bid.auction_id)):
            return AdmitResult(False, reason="price-not-monotonic")
        try:
            return AdmitResult(True, seq=self.board.append(BID_POSTED, bid))
        except MalformedBoard as exc:
            named = {RING_KEY_INACTIVE: "ring-key-not-on-BBS", BID_REPOSTED: "replayed-bid"}
            return AdmitResult(False, reason=named.get(exc.reason, "malformed"))

    def close_auction(self, auction_id: int) -> None:
        state = self._auctions.get(auction_id)
        if state is None:
            raise AuctionError(f"unknown auction {auction_id}")
        if state.closed:
            raise AuctionError("auction is not open")
        state.closed = True

    def determine_winner(self, auction_id: int) -> int:
        """The seq of the highest verifying bid; ties go to the earlier posting.
        AuctionError unless the auction is closed and the board has no winner for it.

        This is where the lazily-skipped signature checks happen, in the
        board's ``leader``.  The winning bid's payload is re-published so
        anyone can re-derive the outcome from the board alone; the board
        re-checks the rule on that record through its verify memo.
        """
        state = self._auctions.get(auction_id)
        if state is None:
            raise AuctionError(f"unknown auction {auction_id}")
        if not state.closed:
            raise AuctionError("close the auction before determining a winner")
        if auction_id in self.board.winners:
            raise AuctionError(f"auction {auction_id} already has an announced winner")
        seq = self.board.leader(auction_id)
        if seq is None:
            raise NoValidBid("no admitted bid carries a verifying signature")
        record = seq.to_bytes(SEQ_WIDTH, "big") + self.board.entries()[seq][1]
        self.board.append(WINNER_ANNOUNCED, record)
        return seq


def open_protocol(am: AuctionManager, rm: RegistrationManager, seq: int,
                  *, malicious: bool = False) -> tuple[Point, bytes]:
    """Two-party identity opening of the bid posted at ``seq`` (KeyError if
    no bid is posted there).

    The auction side takes the board's verdict on the bid (NotVerified if it
    fails; a bid is verified once per board) and locates the ring position
    with the tracing key; the registration side resolves the key to an
    identity.  When the bid was repudiated (``malicious``), the key is also
    evicted from the board's active view unless the board no longer holds it
    as active.  Neither authority can do this alone: one holds the tracing
    key, the other the identity table.
    """
    result = am.board.verified(seq)
    if not result:
        raise NotVerified(result.reason)
    bid = am.board.bid(seq)
    traced = locate_signer(am.trace_key, am.board.pp, bid.ring, bid.signature)
    if traced is None:
        raise Untraceable("no unique ring member matches the tracing test")
    index, pub_key = traced
    identity = rm.lookup_identity(pub_key)
    if malicious and bid.ring.encodings[index] in am.board.active:
        rm.evict(pub_key)
    return pub_key, identity

