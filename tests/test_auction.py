"""Bid admission, winner determination, identity opening, message counts.

These run over a 16-bit group: big enough that degenerate keys and hash
collisions cannot occur by accident, small enough that a test signs in
well under a millisecond.
"""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringauction import auction, registry
from ringauction.auction import (
    AuctionError,
    AuctionManager,
    BidderAgent,
    NoValidBid,
    open_protocol,
    parse_bid_payload,
)
from ringauction.cli import main
from ringauction.group import OpCounter, count_ops
from ringauction.harness import render_transcript, verify_transcript
from ringauction.registry import (
    BID_AFTER_WINNER,
    BID_MESSAGE_LEN,
    BID_POSTED,
    BID_REPOSTED,
    KEY_EVICTED,
    RING_KEY_INACTIVE,
    WINNER_ANNOUNCED,
    Bid,
    BulletinBoard,
    DuplicateKey,
    MalformedBid,
    RegistrationManager,
    decode_bid,
    decode_bid_message,
    encode_bid_message,
    make_registration,
    read_bid_head,
    serialize_bid_payload,
)
from ringauction.ringsig import (
    NotAMember,
    NotVerified,
    Ring,
    Untraceable,
    keygen,
    setup,
    sign,
)

from .support import (
    NOT_CANONICAL,
    RING3_COMPONENTS,
    UNREADABLE,
    Fresh,
    eager_verify_transcript,
    forged_signature,
    naive_add,
    naive_mul,
    naive_neg,
    off_curve,
    verdict,
)


@pytest.fixture()
def env(setup16, keys16):
    """Fresh board with all five keys registered and one all-member ring.
    Each test ends by replaying the board: whatever the manager posted or
    announced, hostile input included, must replay valid, to the same bid
    at every posted seq and the same winners as the live board."""
    pp, tk = setup16
    board = BulletinBoard(pp)
    rm = RegistrationManager(board)
    am = AuctionManager(tk, board)
    rng = random.Random(99)
    agents = []
    for i, kp in enumerate(keys16):
        name = f"agent-{i}"
        proof = make_registration(kp.x, kp.pub_key, name.encode(), pp.group, rng)
        rm.register(kp.pub_key, name.encode(), proof)
        agents.append(BidderAgent(kp, board))
    ring = Ring(pp.group, [kp.pub_key for kp in keys16])
    yield SimpleNamespace(pp=pp, tk=tk, board=board, rm=rm, am=am,
                          agents=agents, ring=ring, rng=rng)
    report = verify_transcript(render_transcript(board))
    assert report.valid, (report.failing_seq, report.reason)
    assert set(report.board.heads) == set(board.heads)
    assert all(report.board.bid(seq) == board.bid(seq) for seq in board.heads)
    assert report.winners == tuple(board.winners.values())


def _resigned(bid, **parts):
    return replace(bid, signature=replace(bid.signature, **parts))


# Hostile stand-ins for a verifying bid's parts, by name: none is the part
# it replaces, and a list of a point's coordinates is no point either.
HOSTILE_BIDS = {
    "ring None": lambda bid: replace(bid, ring=None),
    "ring [1]": lambda bid: replace(bid, ring=[1]),
    "ring a tuple of points": lambda bid: replace(bid, ring=bid.ring.keys),
    "signature None": lambda bid: replace(bid, signature=None),
    "signature 5": lambda bid: replace(bid, signature=5),
    "signature the members": lambda bid: replace(bid, signature=bid.signature.members),
    "s1 5": lambda bid: _resigned(bid, s1=5),
    "s1 (1.5, 2)": lambda bid: _resigned(bid, s1=(1.5, 2)),
    "s1 ('a', 'b')": lambda bid: _resigned(bid, s1=("a", "b")),
    "s1 a list": lambda bid: _resigned(bid, s1=list(bid.signature.s1)),
    "s1 (1, 2, 3)": lambda bid: _resigned(bid, s1=(1, 2, 3)),
    "s1 'ab'": lambda bid: _resigned(bid, s1="ab"),
    "members (1, 2)": lambda bid: _resigned(bid, members=(1, 2)),
    "a commit 5": lambda bid: _resigned(bid, members=(
        replace(bid.signature.members[0], commit=5), *bid.signature.members[1:])),
    "not a Bid": lambda bid: None,
}


def craft_bid(env, agent, price, *, auction_id=1, round_no=0, ring=None):
    ring = ring if ring is not None else env.ring
    message = encode_bid_message(auction_id, round_no, price)
    sig = sign(env.pp, ring, agent.keypair, message, env.rng)
    return Bid(auction_id=auction_id, round_no=round_no, price=price,
               ring=ring, signature=sig)


# ---------------------------------------------------------------------------
# bid message and payload codecs

class TestBidCodec:
    def test_message_roundtrip(self):
        data = encode_bid_message(3, 1, 250)
        assert len(data) == BID_MESSAGE_LEN
        assert decode_bid_message(data) == (3, 1, 250)

    def test_message_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            encode_bid_message(-1, 0, 10)
        with pytest.raises(ValueError):
            encode_bid_message(0, 0, 1 << 64)

    def test_decode_rejects_wrong_length(self):
        with pytest.raises(MalformedBid):
            decode_bid_message(b"\x00" * (BID_MESSAGE_LEN - 1))

    def test_payload_roundtrip(self, env):
        bid = craft_bid(env, env.agents[0], 40)
        payload = serialize_bid_payload(bid)
        back = parse_bid_payload(env.pp.group, payload)
        assert (back.auction_id, back.round_no, back.price) == (1, 0, 40)
        assert back.ring == bid.ring
        assert back.signature == bid.signature

    def test_decode_bid_refuses_an_undecodable_ring_key(self, env):
        # read_bid_head would refuse this key; a hand-built head reaches decode_bid.
        group = env.pp.group
        head = read_bid_head(group, serialize_bid_payload(craft_bid(env, env.agents[0], 43)))
        odd_zero = bytes(group.coord_bytes) + b"\x03"
        bad = head._replace(ring=(odd_zero,) + head.ring[1:])
        with pytest.raises(MalformedBid, match="y = 0 takes the even parity tag"):
            decode_bid(group, bad, group.decode_point)

    def test_payload_rejects_truncation_and_slack(self, env):
        payload = serialize_bid_payload(craft_bid(env, env.agents[0], 41))
        with pytest.raises(MalformedBid):
            parse_bid_payload(env.pp.group, payload[:-1])
        with pytest.raises(MalformedBid):
            parse_bid_payload(env.pp.group, payload + b"\x00")

    def test_payload_rejects_empty_ring(self, env):
        data = encode_bid_message(1, 0, 5) + (0).to_bytes(4, "big")
        with pytest.raises(MalformedBid):
            parse_bid_payload(env.pp.group, data)

    def test_payload_rejects_non_canonical_ring_order(self, env):
        bid = craft_bid(env, env.agents[0], 42)
        payload = serialize_bid_payload(bid)
        width = env.pp.group.point_bytes
        start = BID_MESSAGE_LEN + 4
        first = payload[start: start + width]
        second = payload[start + width: start + 2 * width]
        swapped = payload[:start] + second + first + payload[start + 2 * width:]
        with pytest.raises(MalformedBid):
            parse_bid_payload(env.pp.group, swapped)

    def test_payload_rejects_undecodable_point(self, env):
        bid = craft_bid(env, env.agents[0], 43)
        payload = bytearray(serialize_bid_payload(bid))
        payload[-1] = 0x09  # break the last parity tag
        with pytest.raises(MalformedBid):
            parse_bid_payload(env.pp.group, bytes(payload))


@pytest.fixture(scope="module")
def real_payloads(setup16, keys16):
    """Serialized bids over rings of one and of three keys."""
    pp, _ = setup16
    rng = random.Random(7)
    payloads = []
    for size in (1, 3):
        ring = Ring(pp.group, [kp.pub_key for kp in keys16[:size]])
        signer = keys16[0]
        message = encode_bid_message(2, 1, 30 + size)
        sig = sign(pp, ring, signer, message, rng)
        payloads.append(serialize_bid_payload(
            Bid(auction_id=2, round_no=1, price=30 + size, ring=ring, signature=sig)))
    return pp.group, payloads


def _mutate_payload(data, payload: bytes, width: int) -> bytes:
    """One to three edits of the kinds a hostile board could carry."""
    buf = bytearray(payload)
    count_at = slice(BID_MESSAGE_LEN, BID_MESSAGE_LEN + 4)
    for _ in range(data.draw(st.integers(1, 3))):
        points = max(0, (len(buf) - BID_MESSAGE_LEN - 4) // width)
        op = data.draw(st.sampled_from(("truncate", "count", "swap", "tag", "byte")))
        if op == "truncate":
            del buf[data.draw(st.integers(0, len(buf))):]
        elif op == "count" and len(buf) >= count_at.stop:
            count = int.from_bytes(buf[count_at], "big")
            count = data.draw(st.sampled_from((0, count - 1, count + 1, 2**32 - 1)))
            buf[count_at] = (count % 2**32).to_bytes(4, "big")
        elif op in ("swap", "tag") and points >= 1:
            i, j = (BID_MESSAGE_LEN + 4 + width * data.draw(st.integers(0, points - 1))
                    for _ in range(2))
            if op == "swap":
                buf[i:i + width], buf[j:j + width] = buf[j:j + width], buf[i:i + width]
            else:
                buf[i + width - 1] = data.draw(st.integers(0, 255))
        elif op == "byte" and buf:
            buf[data.draw(st.integers(0, len(buf) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    return bytes(buf)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_parse_bid_payload_returns_bid_or_malformed(real_payloads, data):
    group, payloads = real_payloads
    if data.draw(st.booleans()):
        blob = data.draw(st.binary(max_size=4 * group.point_bytes + BID_MESSAGE_LEN))
    else:
        blob = _mutate_payload(data, data.draw(st.sampled_from(payloads)), group.point_bytes)
    try:
        bid = parse_bid_payload(group, blob)
    except MalformedBid:
        return
    assert isinstance(bid, Bid)
    assert serialize_bid_payload(bid) == blob


# ---------------------------------------------------------------------------
# bidder agent

class TestBidderAgent:
    def test_placed_bid_verifies(self, env):
        from ringauction.ringsig import verify
        bid = env.agents[1].place_bid(1, 0, 17, env.ring, env.rng)
        assert verify(env.pp, bid.ring, bid.message_bytes(), bid.signature)

    def test_rejects_ring_without_own_key(self, env, keys16):
        # Every key of the ring is active, so only sign's membership check fires.
        others = Ring(env.pp.group, [kp.pub_key for kp in keys16[1:]])
        assert env.board.active.issuperset(others.encodings)
        before = env.board.entries()
        with pytest.raises(NotAMember):
            env.agents[0].place_bid(1, 0, 17, others, env.rng)
        assert env.board.entries() == before

    # Ring-key activity is the board's rule alone: the bidder signs, and
    # admission refuses the bid without posting anything.
    def test_rejects_ring_with_unpublished_key(self, env, keys16):
        stranger = keygen(env.pp, random.Random(1234))
        ring = Ring(env.pp.group, [keys16[0].pub_key, stranger.pub_key])
        env.am.open_auction(1)
        before = env.board.entries()
        bid = env.agents[0].place_bid(1, 0, 17, ring, env.rng)
        assert isinstance(bid, Bid)
        assert env.am.admit_bid(bid).reason == RING_KEY_INACTIVE
        assert env.board.entries() == before

    def test_rejects_ring_with_evicted_key(self, env, keys16):
        env.rm.evict(keys16[4].pub_key)
        env.am.open_auction(1)
        before = env.board.entries()
        bid = env.agents[0].place_bid(1, 0, 17, env.ring, env.rng)
        assert isinstance(bid, Bid)
        assert env.am.admit_bid(bid).reason == RING_KEY_INACTIVE
        assert env.board.entries() == before


# ---------------------------------------------------------------------------
# admission

class TestAdmission:
    def test_admits_and_posts(self, env):
        env.am.open_auction(1)
        bid = craft_bid(env, env.agents[0], 10)
        result = env.am.admit_bid(bid)
        assert result
        kind, payload = env.board.entries()[result.seq]
        assert kind == BID_POSTED
        assert payload == serialize_bid_payload(bid)
        assert env.board.high(1) == 10

    def test_unknown_auction(self, env):
        bid = craft_bid(env, env.agents[0], 10, auction_id=9)
        result = env.am.admit_bid(bid)
        assert not result
        assert result.reason == "unknown-auction"

    def test_closed_auction(self, env):
        # The announced winner ends the auction: the board refuses a later bid.
        env.am.open_auction(1)
        assert env.am.admit_bid(craft_bid(env, env.agents[0], 10))
        env.am.determine_winner(1)
        before = env.board.entries()
        result = env.am.admit_bid(craft_bid(env, env.agents[1], 11))
        assert result.reason == BID_AFTER_WINNER
        assert env.board.entries() == before

    @pytest.mark.parametrize("monotonic, late, reason", [
        (True, "not-rising", "price-not-monotonic"),
        (False, "fresh", BID_AFTER_WINNER),
        (False, "repost", BID_REPOSTED),
        (False, "unencodable", "unreadable bid: price is not an int in range"),
    ], ids=("True-not-rising", "False-fresh", "False-repost", "False-unencodable"))
    def test_late_bid_refusals(self, env, monotonic, late, reason):
        # A bid after the announcement meets the manager's price rule first,
        # then the board's refusals in the board's order.
        env.am.open_auction(1, monotonic=monotonic)
        won = craft_bid(env, env.agents[0], 10)
        assert env.am.admit_bid(won)
        env.am.determine_winner(1)
        bid = {"fresh": lambda: craft_bid(env, env.agents[1], 11),
               "not-rising": lambda: craft_bid(env, env.agents[1], 10),
               "repost": lambda: won,
               "unencodable": lambda: replace(won, price=1 << 64)}[late]()
        before = env.board.entries()
        assert env.am.admit_bid(bid).reason == reason
        assert env.board.entries() == before

    def test_nonpositive_price_malformed(self, env):
        # The board refuses price 0; in a monotonic auction the manager's
        # own price rule refuses it first.
        env.am.open_auction(1, monotonic=False)
        env.am.open_auction(2)
        assert env.am.admit_bid(craft_bid(env, env.agents[0], 0)).reason == "non-positive price"
        result = env.am.admit_bid(craft_bid(env, env.agents[0], 0, auction_id=2))
        assert result.reason == "price-not-monotonic"

    def test_member_count_mismatch_malformed(self, env):
        env.am.open_auction(1)
        bid = craft_bid(env, env.agents[0], 10)
        broken = replace(bid, signature=replace(bid.signature,
                                                members=bid.signature.members[:-1]))
        assert env.am.admit_bid(broken).reason == NOT_CANONICAL

    @pytest.mark.parametrize("component", RING3_COMPONENTS)
    def test_off_curve_component_malformed(self, env, keys16, component):
        env.am.open_auction(1)
        ring = Ring(env.pp.group, [kp.pub_key for kp in keys16[:3]])
        bid = craft_bid(env, env.agents[0], 10, ring=ring)
        broken = replace(bid, signature=off_curve(bid.signature, component))
        assert env.am.admit_bid(broken).reason == NOT_CANONICAL
        assert env.board.heads == {}

    @pytest.mark.parametrize("hostile", HOSTILE_BIDS, ids=list(HOSTILE_BIDS))
    def test_hostile_bid_object_malformed(self, env, keys16, hostile):
        # Admission never raises: whatever is handed in place of a Bid, or
        # of one of its parts, is refused in the board's words and posts
        # nothing.  The board judges every part before encoding any, so no
        # interpreter error text becomes a reason.
        env.am.open_auction(1)
        ring = Ring(env.pp.group, [kp.pub_key for kp in keys16[:2]])
        bid = craft_bid(env, env.agents[0], 10, ring=ring)
        before = env.board.entries()
        assert env.am.admit_bid(HOSTILE_BIDS[hostile](bid)).reason == NOT_CANONICAL
        assert env.board.entries() == before

    def test_ring_key_not_on_board(self, env, keys16):
        env.am.open_auction(1)
        stranger = keygen(env.pp, random.Random(4321))
        ring = Ring(env.pp.group, [keys16[0].pub_key, stranger.pub_key])
        bid = craft_bid(env, env.agents[0], 10, ring=ring)
        assert env.am.admit_bid(bid).reason == RING_KEY_INACTIVE

    def test_evicted_ring_key_not_on_board(self, env, keys16):
        env.am.open_auction(1)
        bid = craft_bid(env, env.agents[0], 10)
        env.rm.evict(keys16[2].pub_key)
        assert env.am.admit_bid(bid).reason == RING_KEY_INACTIVE

    @pytest.mark.parametrize("case, reason", [
        ("repost", BID_REPOSTED), ("after-winner", BID_AFTER_WINNER),
        ("unpublished-key", RING_KEY_INACTIVE), ("evicted-key", RING_KEY_INACTIVE),
        ("price-0", "non-positive price"),
    ], ids=("repost", "after-winner", "unpublished-key", "evicted-key", "price-0"))
    def test_admission_and_replay_give_one_reason(self, env, keys16, case, reason):
        # Each board refusal a Bid can meet at admission reads as the replay
        # reads the same bid posted as the live board's next record.
        env.am.open_auction(1, monotonic=case not in ("repost", "price-0"))
        posted = craft_bid(env, env.agents[0], 10)
        assert env.am.admit_bid(posted)
        if case == "after-winner":
            env.am.determine_winner(1)
        if case == "evicted-key":
            env.rm.evict(keys16[2].pub_key)
        stranger = keygen(env.pp, random.Random(4321)).pub_key
        bid = {"repost": lambda: posted,
               "after-winner": lambda: craft_bid(env, env.agents[1], 11),
               "unpublished-key": lambda: craft_bid(
                   env, env.agents[0], 11, ring=Ring(env.pp.group, [keys16[0].pub_key, stranger])),
               "evicted-key": lambda: craft_bid(env, env.agents[1], 11),
               "price-0": lambda: craft_bid(env, env.agents[1], 0)}[case]()
        before = env.board.entries()
        record = f"{len(before)} {BID_POSTED} {serialize_bid_payload(bid).hex()}\n".encode()
        replay = verify_transcript(render_transcript(env.board) + record)
        assert env.am.admit_bid(bid).reason == replay.reason == reason
        assert (replay.valid, replay.failing_seq) == (False, len(before))
        assert env.board.entries() == before

    @pytest.mark.parametrize("monotonic", (False, True))
    def test_replayed_bid(self, env, monotonic):
        # The price rule runs before the board's: in a monotonic auction a
        # repeat does not rise over its own price.
        env.am.open_auction(1, monotonic=monotonic)
        bid = craft_bid(env, env.agents[0], 10)
        assert env.am.admit_bid(bid)
        again = env.am.admit_bid(bid)
        assert again.reason == ("price-not-monotonic" if monotonic else BID_REPOSTED)
        assert len(env.board.heads) == 1

    def test_unencodable_price(self, env):
        # 2^64 does not fit the bid message, so the board cannot encode the
        # bid.  Nor can it encode -1, but in a monotonic auction the price
        # rule, which runs first, refuses it.
        env.am.open_auction(1, monotonic=False)
        env.am.open_auction(2)
        bid = craft_bid(env, env.agents[0], 10)
        assert (env.am.admit_bid(replace(bid, price=1 << 64)).reason
                == "unreadable bid: price is not an int in range")
        assert env.board.heads == {}
        low = replace(craft_bid(env, env.agents[0], 10, auction_id=2), price=-1)
        assert env.am.admit_bid(low).reason == "price-not-monotonic"

    @pytest.mark.parametrize("monotonic", (False, True))
    @pytest.mark.parametrize("field, value", [
        ("price", 1.5), ("price", "7"), ("price", None), ("price", True),
        ("round_no", 0.5), ("round_no", "0"), ("round_no", None), ("round_no", False),
        ("auction_id", 1.0), ("auction_id", True), ("auction_id", [1])])
    def test_non_int_field_refused(self, env, monotonic, field, value):
        # A field that is not an int (a bool included) is refused, never
        # raised, in the board's words whatever the auction's policy: the
        # manager applies its policies only to int auction ids and prices,
        # and the board cannot encode the bid.
        env.am.open_auction(1, monotonic=monotonic)
        bid = replace(craft_bid(env, env.agents[0], 10), **{field: value})
        reason = f"unreadable bid: {field.removesuffix('_no')} is not an int in range"
        assert env.am.admit_bid(bid).reason == reason
        assert env.board.heads == {}

    def test_an_admitted_bid_is_encoded_once(self, env, monkeypatch):
        # The board encodes the Bid it is handed; the manager encodes nothing.
        calls = []

        def counted(bid):
            calls.append(bid)
            return serialize_bid_payload(bid)

        for module in (registry, auction):
            monkeypatch.setattr(module, "serialize_bid_payload", counted)
        env.am.open_auction(1)
        for price in (10, 11):
            assert env.am.admit_bid(craft_bid(env, env.agents[0], price))
        assert len(calls) == 2

    def test_same_price_new_signature_is_not_a_replay(self, env):
        # a fresh signature over the same message is a different payload
        env.am.open_auction(1, monotonic=False)
        assert env.am.admit_bid(craft_bid(env, env.agents[0], 10))
        assert env.am.admit_bid(craft_bid(env, env.agents[0], 10))

    def test_monotonic_price_enforced_by_default(self, env):
        env.am.open_auction(1)
        assert env.am.admit_bid(craft_bid(env, env.agents[0], 10))
        low = env.am.admit_bid(craft_bid(env, env.agents[1], 10))
        assert low.reason == "price-not-monotonic"
        assert env.am.admit_bid(craft_bid(env, env.agents[1], 11))

    def test_monotonic_off_allows_lower_price(self, env):
        env.am.open_auction(1, monotonic=False)
        assert env.am.admit_bid(craft_bid(env, env.agents[0], 10))
        assert env.am.admit_bid(craft_bid(env, env.agents[1], 7))
        assert env.board.high(1) == 10

    def test_invalid_signature_is_admitted_lazily(self, env):
        # admission checks structure only; signature verification is
        # deferred to winner determination
        env.am.open_auction(1)
        bid = craft_bid(env, env.agents[0], 10)
        broken = replace(bid, signature=replace(
            bid.signature, s1=env.pp.group.add(bid.signature.s1, env.pp.group.g)))
        assert env.am.admit_bid(broken)


# Every reason admission may give: the manager's two policies, the board's
# refusals of a readable bid, and the board's words for a bid it cannot read.
ADMISSION_REASONS = {
    "unknown-auction", "price-not-monotonic", BID_REPOSTED, BID_AFTER_WINNER,
    RING_KEY_INACTIVE, "non-positive price", NOT_CANONICAL,
    *(UNREADABLE + f"{field} is not an int in range" for field in ("auction_id", "round", "price")),
}
# Where a hostile value may stand in a Bid: a field, or one part.
FIELDS = ("auction_id", "round_no", "price")
PARTS = {
    "ring": lambda bid, value: replace(bid, ring=value),
    "signature": lambda bid, value: replace(bid, signature=value),
    "s1": lambda bid, value: _resigned(bid, s1=value),
    "s2": lambda bid, value: _resigned(bid, s2=value),
    "members": lambda bid, value: _resigned(bid, members=value),
    "commit": lambda bid, value: _resigned(bid, members=(
        replace(bid.signature.members[0], commit=value), *bid.signature.members[1:])),
    "proof": lambda bid, value: _resigned(bid, members=(
        replace(bid.signature.members[0], proof=value), *bid.signature.members[1:])),
}


class SubBid(Bid):
    """A ``Bid`` subclass, which could override any of its methods."""


@pytest.fixture(scope="module")
def hostile_admission(setup16, keys16):
    """A manager over a board holding the five keys, with auction 1 (prices
    may fall) and auction 2 (monotonic, a bid posted at 10) open; a verifying
    bid at 10 for each whose ring holds a key the board never published, so
    the board refuses any of its variants that it reads; and the hostile
    pool: values of the wrong type, point twins out of range, a list of a
    point's coordinates, a MemberProof, another ring's keys, a Bid with no
    attributes, a Bid subclass of a bid the board would post, and a bytes
    subclass copy of the posted bid's payload."""
    pp, tk = setup16
    board = BulletinBoard(pp)
    rm, am, rng = RegistrationManager(board), AuctionManager(tk, board), random.Random(99)
    for i, kp in enumerate(keys16):
        name = f"agent-{i}".encode()
        rm.register(kp.pub_key, name, make_registration(kp.x, kp.pub_key, name, pp.group, rng))
    am.open_auction(1, monotonic=False)
    am.open_auction(2)
    agent = BidderAgent(keys16[0], board)
    everyone = Ring(pp.group, [kp.pub_key for kp in keys16])
    assert am.admit_bid(agent.place_bid(2, 0, 10, everyone, rng))
    ring = Ring(pp.group, [keys16[0].pub_key, keygen(pp, random.Random(4321)).pub_key])
    bases = [agent.place_bid(auction_id, 0, 10, ring, rng) for auction_id in (1, 2)]
    (x, y), ell = bases[0].signature.s1, pp.group.ell
    pool = [None, 5, 1.5, True, "ab", (1, 2, 3), (x + ell, y), (x - ell, y), [x, y],
            bases[0].signature.members[0], everyone.keys, object.__new__(Bid),
            SubBid(**vars(agent.place_bid(1, 0, 10, everyone, rng))),
            Fresh(board.entries()[-1][1])]
    return am, bases, pool


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_admission_refuses_hostile_input_in_closed_words(hostile_admission, data):
    # Admission never raises, posts nothing of a hostile object or a Bid
    # with hostile fields or parts, and refuses it with a reason from the
    # closed set: no interpreter error text.
    am, bases, pool = hostile_admission

    def hostile():
        # Drawn by index: hypothesis prints each draw, and a bare Bid has no repr.
        return pool[data.draw(st.integers(0, len(pool) - 1))]

    if data.draw(st.booleans()):
        handed = hostile()
    else:
        handed = data.draw(st.sampled_from(bases))
        for field in data.draw(st.sets(st.sampled_from(FIELDS))):
            handed = replace(handed, **{field: hostile()})
        part = data.draw(st.sampled_from([None, *PARTS]))
        if part is not None:
            handed = PARTS[part](handed, hostile())
    before = am.board.entries()
    result = am.admit_bid(handed)
    assert not result and result.reason in ADMISSION_REASONS, result.reason
    assert am.board.entries() == before


def test_a_bid_subclass_reads_the_boards_words(hostile_admission):
    # The manager applies its policies to an exact Bid alone: a subclass,
    # even one for an auction it does not run, is the board's to refuse.
    am, bases, _ = hostile_admission
    before = am.board.entries()
    assert am.admit_bid(SubBid(**{**vars(bases[0]), "auction_id": 3})).reason == NOT_CANONICAL
    assert am.board.entries() == before


# ---------------------------------------------------------------------------
# winner determination

class TestWinner:
    def test_highest_valid_bid_wins(self, env):
        env.am.open_auction(1, monotonic=False)
        for agent, price in zip(env.agents, (10, 20, 15)):
            assert env.am.admit_bid(craft_bid(env, agent, price))
        assert env.board.heads[env.am.determine_winner(1)].price == 20

    def test_invalid_top_bid_is_skipped(self, env):
        env.am.open_auction(1, monotonic=False)
        assert env.am.admit_bid(craft_bid(env, env.agents[0], 10))
        top = craft_bid(env, env.agents[1], 20)
        broken = replace(top, signature=replace(
            top.signature, s1=env.pp.group.add(top.signature.s1, env.pp.group.g)))
        assert env.am.admit_bid(broken)
        assert env.am.admit_bid(craft_bid(env, env.agents[2], 15))
        assert env.board.heads[env.am.determine_winner(1)].price == 15

    def test_tie_goes_to_earlier_posting(self, env):
        env.am.open_auction(1, monotonic=False)
        first = env.am.admit_bid(craft_bid(env, env.agents[0], 20))
        second = env.am.admit_bid(craft_bid(env, env.agents[1], 20))
        assert second
        assert env.am.determine_winner(1) == first.seq
        # The replay applies the same tie rule: naming the later of two
        # equal verifying bids as winner is rejected, as the eager replay does.
        transcript = render_transcript(env.board)
        assert verify_transcript(transcript).winners == ((1, first.seq, 20),)
        lines = transcript.decode().splitlines()
        seq, kind, payload = lines[-1].split(" ")
        later = env.board.entries()[second.seq][1].hex()
        lines[-1] = f"{seq} {kind} {second.seq.to_bytes(8, 'big').hex()}{later}"
        forged = ("\n".join(lines) + "\n").encode()
        report = verify_transcript(forged)
        assert report.reason == "a better verifying bid exists than the announced winner"
        assert verdict(report) == verdict(eager_verify_transcript(forged))

    def test_no_bids_raises(self, env):
        env.am.open_auction(1)
        with pytest.raises(NoValidBid):
            env.am.determine_winner(1)

    def test_all_invalid_raises(self, env):
        env.am.open_auction(1)
        bid = craft_bid(env, env.agents[0], 10)
        broken = replace(bid, signature=replace(
            bid.signature, s1=env.pp.group.add(bid.signature.s1, env.pp.group.g)))
        assert env.am.admit_bid(broken)
        with pytest.raises(NoValidBid):
            env.am.determine_winner(1)

    def test_unknown_auction(self, env):
        with pytest.raises(AuctionError, match="unknown auction 9"):
            env.am.determine_winner(9)

    def test_winner_already_on_the_board(self, env):
        # The board, not the manager, holds the announced winner: once a
        # replay-style append has put it there, there is nothing to announce.
        env.am.open_auction(1)
        seq = env.am.admit_bid(craft_bid(env, env.agents[0], 10)).seq
        env.board.append(WINNER_ANNOUNCED, seq.to_bytes(8, "big") + env.board.entries()[seq][1])
        count = len(env.board.entries())
        with pytest.raises(AuctionError, match="auction 1 already has an announced winner"):
            env.am.determine_winner(1)
        assert len(env.board.entries()) == count

    def test_winner_needs_no_prior_step(self, env):
        # The announcement is the one end of an auction: nothing closes it first.
        env.am.open_auction(1)
        seq = env.am.admit_bid(craft_bid(env, env.agents[0], 10)).seq
        assert env.am.determine_winner(1) == seq
        assert env.board.winners[1] == (1, seq, 10)

    def test_auction_takes_bids_after_no_valid_bid(self, env):
        # NoValidBid announces nothing, so the auction goes on taking bids.
        env.am.open_auction(1)
        bid = craft_bid(env, env.agents[0], 10)
        assert env.am.admit_bid(_resigned(bid, s1=env.pp.group.add(bid.signature.s1,
                                                                   env.pp.group.g)))
        with pytest.raises(NoValidBid):
            env.am.determine_winner(1)
        seq = env.am.admit_bid(craft_bid(env, env.agents[1], 11)).seq
        assert env.am.determine_winner(1) == seq

    def test_winner_announcement_payload(self, env):
        env.am.open_auction(1)
        bid = craft_bid(env, env.agents[3], 10)
        seq = env.am.admit_bid(bid).seq
        assert env.am.determine_winner(1) == seq
        kind, payload = env.board.entries()[-1]
        assert kind == WINNER_ANNOUNCED
        assert int.from_bytes(payload[:8], "big") == seq
        assert payload[8:] == serialize_bid_payload(bid)

    def test_reopening_same_auction_id_rejected(self, env):
        env.am.open_auction(1)
        with pytest.raises(AuctionError):
            env.am.open_auction(1)


# ---------------------------------------------------------------------------
# identity opening

# Untraceable's words for a ring of two degenerate keys: both slots pass the
# tracing test and both commits lie in G_q.
AMBIGUOUS = "ring slots 0, 1 pass the tracing test; the degenerate-key filter keeps none"


class TestOpenProtocol:
    def run_auction(self, env, prices):
        env.am.open_auction(1, monotonic=False)
        for agent, price in zip(env.agents, prices):
            assert env.am.admit_bid(craft_bid(env, agent, price))
        return env.am.determine_winner(1)

    def test_opens_winner_identity(self, env):
        winner = self.run_auction(env, (10, 20, 15))
        pub_key, identity = open_protocol(env.am, env.rm, winner)
        assert identity == b"agent-1"
        assert pub_key == env.agents[1].keypair.pub_key
        # an honest winner keeps its key
        assert env.pp.group.encode_point(pub_key) in env.board.active

    def test_malicious_opening_evicts(self, env):
        winner = self.run_auction(env, (10, 20, 15))
        pub_key, identity = open_protocol(env.am, env.rm, winner, malicious=True)
        assert identity == b"agent-1"
        assert env.pp.group.encode_point(pub_key) not in env.board.active_keys()

    def test_second_malicious_opening_is_a_no_op(self, env):
        # The board alone records the eviction, so opening the same bid again
        # finds the key gone and appends nothing.
        winner = self.run_auction(env, (10, 20, 15))
        first = open_protocol(env.am, env.rm, winner, malicious=True)
        assert open_protocol(env.am, env.rm, winner, malicious=True) == first
        kinds = [kind for kind, _ in env.board.entries()]
        assert kinds.count(KEY_EVICTED) == 1

    def test_evicted_identity_cannot_register_a_fresh_key(self, env):
        # One registration per identity, ever: after a repudiated bid's key is
        # evicted, its identity's fresh key is refused and nothing is posted.
        winner = self.run_auction(env, (10, 20, 15))
        _, identity = open_protocol(env.am, env.rm, winner, malicious=True)
        fresh = keygen(env.pp, random.Random(1235))
        proof = make_registration(fresh.x, fresh.pub_key, identity, env.pp.group, env.rng)
        before = env.board.entries()
        with pytest.raises(DuplicateKey, match="identity already registered"):
            env.rm.register(fresh.pub_key, identity, proof)
        assert env.board.entries() == before

    def test_opening_checks_the_signature_once(self, env):
        # The bid at 10 ranks below the winner, so determine_winner never
        # verified it: its opening costs one verification (2l membership
        # pairings and 3 for the main equation) and one [q] multiplication
        # per ring member.
        self.run_auction(env, (10, 20, 15))
        loser = next(seq for seq, head in env.board.heads.items() if head.price == 10)
        counter = OpCounter()
        with count_ops(counter):
            open_protocol(env.am, env.rm, loser)
        counts = counter.phase("default")
        l = len(env.board.heads[loser].ring)
        assert (counts["pair"], counts["exp"]) == (2 * l + 3, l)

    def test_winner_opening_reuses_the_winner_check(self, env):
        # determine_winner verified the winner; opening it only locates the
        # signer, one [q] multiplication per ring member.
        winner = self.run_auction(env, (10, 20, 15))
        counter = OpCounter()
        with count_ops(counter):
            open_protocol(env.am, env.rm, winner)
        counts = counter.phase("default")
        assert (counts.get("pair", 0), counts["exp"]) == (0, len(env.board.heads[winner].ring))

    def test_bid_that_failed_the_winner_check_is_not_verified_again(self, env):
        env.am.open_auction(1, monotonic=False)
        top = craft_bid(env, env.agents[1], 20)
        broken = replace(top, signature=replace(
            top.signature, s1=env.pp.group.add(top.signature.s1, env.pp.group.g)))
        assert env.am.admit_bid(broken)
        assert env.am.admit_bid(craft_bid(env, env.agents[2], 15))
        assert env.board.heads[env.am.determine_winner(1)].price == 15
        failed = next(seq for seq, head in env.board.heads.items() if head.price == 20)
        counter = OpCounter()
        with count_ops(counter), pytest.raises(NotVerified, match="main-equation"):
            open_protocol(env.am, env.rm, failed)
        assert counter.phase("default") == {}

    def test_unverified_bid_cannot_be_opened(self, env):
        env.am.open_auction(1)
        bid = craft_bid(env, env.agents[0], 10)
        broken = replace(bid, signature=replace(
            bid.signature, s1=env.pp.group.add(bid.signature.s1, env.pp.group.g)))
        seq = env.am.admit_bid(broken).seq
        with pytest.raises(NotVerified):
            open_protocol(env.am, env.rm, seq)

    def test_only_a_posted_bid_can_be_opened(self, env):
        # Seq 0 holds a key publication and seq 99 no record: neither opens,
        # even as a repudiated bid, and the board gains no eviction.
        before = env.board.entries()
        for seq in (0, 99):
            with pytest.raises(KeyError):
                open_protocol(env.am, env.rm, seq, malicious=True)
        assert env.board.entries() == before

    @staticmethod
    def toy_bid(tiny_params, signer_degenerate, *, decoy_degenerate=True, all_decoys=False):
        # Built over the toy group, where a ring member whose offset key has
        # order dividing the secret factor is easy to find: it passes the
        # tracing test in every slot.  The signature verifies either way;
        # with ``all_decoys`` it is forged so that no slot carries its key.
        # Both keys are registered and the bid is posted; its seq is returned.
        pp, tk = setup(tiny_params, 8, random.Random(0))
        group = tiny_params.group
        ell = tiny_params.group.ell
        rng = random.Random(31)

        def degenerate(pub):
            offset = naive_add(pub, naive_neg(pp.commit_offset, ell), ell)
            return naive_mul(7, offset, ell) is None

        signer = keygen(pp, rng)
        while degenerate(signer.pub_key) != signer_degenerate:
            signer = keygen(pp, rng)
        decoy = keygen(pp, rng)
        while degenerate(decoy.pub_key) != decoy_degenerate or decoy.pub_key == signer.pub_key:
            decoy = keygen(pp, rng)
        ring = Ring(group, [signer.pub_key, decoy.pub_key])
        message = encode_bid_message(1, 0, 10)
        sig = (forged_signature(pp, ring, message, (), rng) if all_decoys
               else sign(pp, ring, signer, message, rng))
        bid = Bid(auction_id=1, round_no=0, price=10, ring=ring, signature=sig)
        board = BulletinBoard(pp)
        rm = RegistrationManager(board)
        for keypair, name in ((signer, b"signer"), (decoy, b"decoy")):
            rm.register(keypair.pub_key, name,
                        make_registration(keypair.x, keypair.pub_key, name, group, rng))
        am = AuctionManager(tk, board)
        am.open_auction(1)
        return am, rm, signer, am.admit_bid(bid).seq

    @staticmethod
    def trace_command(am, seq, tmp_path):
        # ``ringauction trace`` on the board's transcript, which verifies.
        transcript, tracekey = tmp_path / "t.txt", tmp_path / "k.txt"
        transcript.write_bytes(render_transcript(am.board))
        tracekey.write_text(f"{am.trace_key.q}\n")
        assert verify_transcript(transcript.read_bytes()).valid
        return main(["trace", "--transcript", str(transcript), "--seq", str(seq),
                     "--tracekey", str(tracekey)])

    def test_degenerate_decoy_does_not_spoil_the_opening(self, tiny_params):
        am, rm, signer, seq = self.toy_bid(tiny_params, False)
        assert open_protocol(am, rm, seq) == (signer.pub_key, b"signer")

    def test_ambiguous_trace_raises_untraceable(self, tiny_params):
        # A degenerate signer's commit lies in G_q like the decoy's, so
        # nothing singles either out.
        am, rm, _, seq = self.toy_bid(tiny_params, True)
        with pytest.raises(Untraceable) as raised:
            open_protocol(am, rm, seq)
        assert str(raised.value) == AMBIGUOUS

    def test_trace_command_reports_the_ambiguous_trace(self, tiny_params, tmp_path, capsys):
        # The same bid: the transcript verifies, and the trace command names
        # no member, in Untraceable's words.
        am, _, _, seq = self.toy_bid(tiny_params, True)
        assert self.trace_command(am, seq, tmp_path) == 1
        assert capsys.readouterr().out == f"bid seq {seq}: {AMBIGUOUS}\n"

    def test_all_decoy_bid_is_untraceable_and_evicts_nobody(self, tiny_params):
        # A forged bid over two clean keys whose slots carry no key: it
        # verifies, no slot passes the tracing test, and its repudiation
        # evicts no one.
        am, rm, _, seq = self.toy_bid(tiny_params, False, decoy_degenerate=False, all_decoys=True)
        assert am.board.verified(seq)
        before = am.board.entries()
        with pytest.raises(Untraceable) as raised:
            open_protocol(am, rm, seq, malicious=True)
        assert str(raised.value) == "no ring slot passes the tracing test"
        assert am.board.entries() == before

    def test_trace_command_reports_an_all_decoy_bid(self, tiny_params, tmp_path, capsys):
        am, _, _, seq = self.toy_bid(tiny_params, False, decoy_degenerate=False, all_decoys=True)
        assert self.trace_command(am, seq, tmp_path) == 1
        assert capsys.readouterr().out == f"bid seq {seq}: no ring slot passes the tracing test\n"

    def test_board_carries_no_identities(self, env):
        # conditional anonymity: the public record contains ring signatures
        # and keys, never identity strings; identities come out only through
        # the two-party opening
        self.run_auction(env, (10, 20, 15))
        assert b"agent-" not in render_transcript(env.board)
        for kind, payload in env.board.entries():
            if kind == BID_POSTED:
                parsed = parse_bid_payload(env.pp.group, payload)
                assert len(parsed.ring) == len(env.agents)

