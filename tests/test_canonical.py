"""Coordinates outside [0, ell), live and on replay.

A point is O or a pair of integers 0 <= x, y < ell on the curve.  Arithmetic
mod ell cannot tell (x + ell, y), (x, y + ell) or (x - ell, y) from (x, y),
but the encoding can: it writes x as given and the parity of y as given, so
(x, y + ell) encodes as -(x, y).  Each form is refused by ``verify`` as
malformed and by admission as a bid of no canonical points with nothing
posted, at 16, 32 and 64 bits; and a bidder who registered both P and -P
cannot get a bid over an unreduced P posted, which the replay would read
over -P.
"""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from ringauction.auction import AuctionManager
from ringauction.group import gen_group_params
from ringauction.harness import render_transcript, verify_transcript
from ringauction.registry import (
    Bid,
    BulletinBoard,
    RegistrationManager,
    encode_bid_message,
    make_registration,
)
from ringauction.ringsig import BidderKeyPair, Ring, keygen, setup, sign, verify

from .support import NOT_CANONICAL

COMPONENTS = ("s1", "s2", "commit", "proof")


def unreduced(P, ell):
    """The three twins of P that reduce to it mod ell."""
    x, y = P
    return {"x+ell": (x + ell, y), "y+ell": (x, y + ell), "x-ell": (x - ell, y)}


def with_component(sig, component, point):
    if component in ("s1", "s2"):
        return replace(sig, **{component: point})
    members = list(sig.members)
    members[0] = replace(members[0], **{component: point})
    return replace(sig, members=tuple(members))


def component_of(sig, component):
    return getattr(sig if component in ("s1", "s2") else sig.members[0], component)


@pytest.fixture(scope="module", params=(16, 32, 64))
def world(request):
    """Three registered bidders, and a fourth registered twice: as P and as
    -P, whose exponent it also knows."""
    bits = request.param
    params = gen_group_params(bits, bits, random.Random(11))
    pp, tk = setup(params, 8, random.Random(4))
    grp = pp.group
    rng = random.Random(5)
    keys = [keygen(pp, rng) for _ in range(4)]
    owner = keys[3]
    minus = BidderKeyPair(x=grp.n - owner.x, pub_key=grp.neg(owner.pub_key),
                          sign_key=grp.neg(owner.sign_key))
    return SimpleNamespace(pp=pp, tk=tk, grp=grp, keys=keys, owner=owner, minus=minus,
                           ell=grp.ell)


@pytest.fixture()
def live(world):
    """A fresh board holding the five keys, and a manager with auction 1 open
    (prices need not rise).  Ends by replaying whatever the board holds."""
    pp, grp = world.pp, world.grp
    board = BulletinBoard(pp)
    rm = RegistrationManager(board)
    rng = random.Random(6)
    for i, kp in enumerate([*world.keys, world.minus]):
        name = f"bidder-{i}".encode()
        rm.register(kp.pub_key, name, make_registration(kp.x, kp.pub_key, name, grp, rng))
    am = AuctionManager(world.tk, board)
    am.open_auction(1, monotonic=False)
    yield SimpleNamespace(board=board, am=am, rng=rng)
    assert verify_transcript(render_transcript(board)).valid


def honest_bid(world, rng, price, signer=0):
    ring = Ring(world.grp, [kp.pub_key for kp in world.keys[:3]])
    message = encode_bid_message(1, 0, price)
    sig = sign(world.pp, ring, world.keys[signer], message, rng)
    return Bid(auction_id=1, round_no=0, price=price, ring=ring, signature=sig)


@pytest.mark.parametrize("component", COMPONENTS)
def test_verify_calls_each_twin_malformed(world, component):
    bid = honest_bid(world, random.Random(7), 10)
    message, sig = bid.message_bytes(), bid.signature
    assert verify(world.pp, bid.ring, message, sig)
    for form, twin in unreduced(component_of(sig, component), world.ell).items():
        result = verify(world.pp, bid.ring, message, with_component(sig, component, twin))
        assert not result and result.reason.startswith("malformed: "), (form, result)


@pytest.mark.parametrize("component", COMPONENTS)
def test_admission_refuses_each_twin_and_posts_nothing(world, live, component):
    bid = honest_bid(world, live.rng, 10)
    for form, twin in unreduced(component_of(bid.signature, component), world.ell).items():
        twin_bid = replace(bid, signature=with_component(bid.signature, component, twin))
        assert live.am.admit_bid(twin_bid).reason == NOT_CANONICAL, form
    assert len(live.board.entries()) == 5  # the keys alone
    assert live.am.admit_bid(bid)


def test_admission_refuses_a_twin_ring_key(world, live):
    # (x - ell, y) cannot even be encoded, so no ring holds it; (x + ell, y)
    # can be once ell leaves room in the top byte of x.
    key = world.keys[1].pub_key
    rings = {}
    for form, twin in unreduced(key, world.ell).items():
        try:
            rings[form] = Ring(world.grp, [world.keys[0].pub_key, twin, world.keys[2].pub_key])
        except OverflowError:
            pass
    assert "y+ell" in rings and "x-ell" not in rings
    for form, ring in rings.items():
        message = encode_bid_message(1, 0, 10)
        sig = sign(world.pp, ring, world.keys[0], message, live.rng)
        bid = Bid(auction_id=1, round_no=0, price=10, ring=ring, signature=sig)
        assert live.am.admit_bid(bid).reason == NOT_CANONICAL, form
    assert len(live.board.entries()) == 5


def test_unreduced_p_beside_minus_p_is_refused_and_the_board_replays(world, live):
    # The ring holds P as (x, y + ell), which encodes as -P: an active key.
    # Signing and verifying reduce mod ell, so the signature verifies under P;
    # a replay would read the ring over -P and refuse the announced winner.
    x, y = world.owner.pub_key
    twin = (x, y + world.ell)
    ring = Ring(world.grp, [twin, world.keys[0].pub_key])
    assert world.grp.encode_point(twin) == world.grp.encode_point(world.minus.pub_key)
    assert live.board.active.issuperset(ring.encodings)
    signer = replace(world.owner, pub_key=twin)
    message = encode_bid_message(1, 0, 20)
    sig = sign(world.pp, ring, signer, message, live.rng)
    assert verify(world.pp, ring, message, sig)
    hostile = Bid(auction_id=1, round_no=0, price=20, ring=ring, signature=sig)
    honest = honest_bid(world, live.rng, 10)
    assert live.am.admit_bid(hostile).reason == NOT_CANONICAL
    posted = live.am.admit_bid(honest)
    assert live.am.determine_winner(1) == posted.seq
    report = verify_transcript(render_transcript(live.board))
    assert report.valid and report.winners == ((1, posted.seq, 10),)


@pytest.mark.parametrize("changed", ("encodings", "keys"))
def test_a_ring_whose_keys_and_encodings_differ_is_refused(world, live, changed):
    # Ring's keys and encodings are plain attributes: a ring that holds P
    # among its keys but -P's encoding signs and verifies under P, and the
    # replay would read it over -P.  The fold encodes the keys afresh.
    grp, other = world.grp, world.keys[0].pub_key
    if changed == "encodings":
        ring = Ring(grp, [world.owner.pub_key, other])
        ring.encodings = Ring(grp, [world.minus.pub_key, other]).encodings
    else:
        ring = Ring(grp, [world.minus.pub_key, other])
        ring.keys = tuple(world.owner.pub_key if key == world.minus.pub_key else key
                          for key in ring.keys)
    message = encode_bid_message(1, 0, 20)
    sig = sign(world.pp, ring, world.owner, message, live.rng)
    assert verify(world.pp, ring, message, sig)
    hostile = Bid(auction_id=1, round_no=0, price=20, ring=ring, signature=sig)
    assert live.am.admit_bid(hostile).reason == NOT_CANONICAL
    assert len(live.board.entries()) == 5
    posted = live.am.admit_bid(honest_bid(world, live.rng, 10))
    assert live.am.determine_winner(1) == posted.seq


def test_a_ring_changed_after_posting_changes_nothing_posted(world, live):
    # The fold keeps its own Ring of a posted bid's keys.
    bid = honest_bid(world, live.rng, 10)
    posted = live.am.admit_bid(bid)
    bid.ring.keys = tuple(reversed(bid.ring.keys))
    bid.ring.encodings = tuple(reversed(bid.ring.encodings))
    assert live.am.determine_winner(1) == posted.seq
    assert live.board.bid(posted.seq).ring is not bid.ring
    assert live.board.verified(posted.seq)
