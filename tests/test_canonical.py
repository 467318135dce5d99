"""Coordinates outside [0, ell), live and on replay.

A point is O or a pair of integers 0 <= x, y < ell on the curve.  Arithmetic
mod ell cannot tell (x + ell, y), (x, y + ell) or (x - ell, y) from (x, y),
but the encoding can: it writes x as given and the parity of y as given, so
(x, y + ell) encodes as -(x, y).  Each form is refused by ``verify`` as
malformed and by admission as a bid of no canonical points with nothing
posted, at 16, 32 and 64 bits, and ``Ring`` refuses it as a key; a bidder
who registered both P and -P cannot get a bid over an unreduced P posted,
which the replay would read over -P.  One predicate, ``ringsig.well_formed``,
judges the form for both, so ``verify`` and admission refuse the same
hostile (ring, signature) pairs.
"""

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from ringauction.ringsig import (
    BidderKeyPair,
    MemberProof,
    Ring,
    RingSignature,
    VerifyResult,
    keygen,
    setup,
    sign,
    verify,
)

from .support import NOT_CANONICAL, NOT_WELL_FORMED, EqualsAnything

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


def with_key(ring, old, new):
    """A copy of ``ring`` whose keys hold ``new`` for ``old`` and whose
    encodings stay: ``Ring`` itself refuses a key that is no canonical point."""
    hostile = Ring(ring.group, ring.keys)
    hostile.keys = tuple(new if key == old else key for key in ring.keys)
    return hostile


def rewritten(ring, keys):
    """A copy of ``ring`` holding ``keys`` as given, in their order, and
    their own encodings: ``Ring`` itself sorts its keys and refuses a repeat
    or none."""
    hostile = Ring(ring.group, ring.keys)
    hostile.keys, hostile.encodings = tuple(keys), tuple(map(ring.group.encode_point, keys))
    return hostile


def test_admission_refuses_a_twin_ring_key(world, live):
    key = world.keys[1].pub_key
    good = Ring(world.grp, [world.keys[0].pub_key, key, world.keys[2].pub_key])
    for form, twin in unreduced(key, world.ell).items():
        with pytest.raises(ValueError, match="^ring keys must be canonical points$"):
            Ring(world.grp, [world.keys[0].pub_key, twin, world.keys[2].pub_key])
        ring = with_key(good, key, twin)
        message = encode_bid_message(1, 0, 10)
        sig = sign(world.pp, ring, world.keys[0], message, live.rng)
        bid = Bid(auction_id=1, round_no=0, price=10, ring=ring, signature=sig)
        assert live.am.admit_bid(bid).reason == NOT_CANONICAL, form
    assert len(live.board.entries()) == 5


def test_unreduced_p_beside_minus_p_is_refused_and_the_board_replays(world, live):
    # The ring holds P as (x, y + ell), which encodes as -P: an active key.
    # Signing reduces mod ell, so the signature would verify under P, and a
    # replay would read the ring over -P and refuse the announced winner;
    # verify and admission both refuse the twin.
    x, y = world.owner.pub_key
    twin = (x, y + world.ell)
    ring = with_key(Ring(world.grp, [world.minus.pub_key, world.keys[0].pub_key]),
                    world.minus.pub_key, twin)
    assert world.grp.encode_point(twin) == world.grp.encode_point(world.minus.pub_key)
    assert live.board.active.issuperset(ring.encodings)
    signer = replace(world.owner, pub_key=twin)
    message = encode_bid_message(1, 0, 20)
    sig = sign(world.pp, ring, signer, message, live.rng)
    assert verify(world.pp, ring, message, sig) == VerifyResult(False, NOT_WELL_FORMED)
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
    # among its keys but -P's encoding signs under P, and the replay would
    # read it over -P.  well_formed encodes the keys afresh, so verify and
    # admission both refuse it.
    grp, other = world.grp, world.keys[0].pub_key
    if changed == "encodings":
        ring = Ring(grp, [world.owner.pub_key, other])
        ring.encodings = Ring(grp, [world.minus.pub_key, other]).encodings
    else:
        ring = with_key(Ring(grp, [world.minus.pub_key, other]), world.minus.pub_key,
                        world.owner.pub_key)
    message = encode_bid_message(1, 0, 20)
    sig = sign(world.pp, ring, world.owner, message, live.rng)
    assert verify(world.pp, ring, message, sig) == VerifyResult(False, NOT_WELL_FORMED)
    hostile = Bid(auction_id=1, round_no=0, price=20, ring=ring, signature=sig)
    assert live.am.admit_bid(hostile).reason == NOT_CANONICAL
    assert len(live.board.entries()) == 5
    posted = live.am.admit_bid(honest_bid(world, live.rng, 10))
    assert live.am.determine_winner(1) == posted.seq


class Disguised(Ring):
    """A ``Ring`` whose ``encoded()`` is another ring's, ``disguise``."""

    def encoded(self):
        return self.disguise.encoded()


class PlainBytes(bytes):
    """A ``bytes`` subclass that overrides nothing."""


class SubSignature(RingSignature):
    """A ``RingSignature`` subclass that overrides nothing."""


class SubProof(MemberProof):
    """A ``MemberProof`` subclass that overrides nothing."""


def disguised(ring, other, form):
    """``ring`` made to hash ``other``'s encoding: its encodings swapped for
    other's in a tuple that equals anything, or as a ``Disguised``."""
    if form == "equal-to-anything":
        hostile = Ring(ring.group, ring.keys)
        hostile.encodings = EqualsAnything(other.encodings)
    else:
        hostile = Disguised(ring.group, ring.keys)
        hostile.disguise = other
    return hostile


@pytest.mark.parametrize("form", ("reversed", "repeated", "equal-to-anything", "subclass"))
def test_a_ring_out_of_canonical_order_is_refused(world, live, form):
    # Keys and encodings edited together still name the same points, and a
    # bidder can sign over them: the message hash binds the encodings as
    # given.  Only sorted, distinct encodings are the ring's canonical
    # form, which a replay reads, so verify and admission both refuse it.
    # So are the two forms that made the hash bind another ring's encoding
    # (``disguised``): signed over, they verified and were posted, and the
    # board's own Ring of the keys failed the bid at the main equation.
    ring = Ring(world.grp, [kp.pub_key for kp in world.keys[:3]])
    if form in ("reversed", "repeated"):
        keys = ring.keys[::-1] if form == "reversed" else (ring[0], ring[0], ring[2])
        hostile = rewritten(ring, keys)
    else:
        hostile = disguised(ring, Ring(world.grp, [kp.pub_key for kp in world.keys[1:]]), form)
    signer = next(kp for kp in world.keys if kp.pub_key == ring[2])
    message = encode_bid_message(1, 0, 20)
    sig = sign(world.pp, hostile, signer, message, live.rng)
    assert verify(world.pp, hostile, message, sig) == VerifyResult(False, NOT_WELL_FORMED)
    bid = Bid(auction_id=1, round_no=0, price=20, ring=hostile, signature=sig)
    assert live.am.admit_bid(bid).reason == NOT_CANONICAL
    assert len(live.board.entries()) == 5
    posted = live.am.admit_bid(honest_bid(world, live.rng, 10))
    assert live.am.determine_winner(1) == posted.seq


def test_an_attribute_of_a_ring_changes_nothing_hashed(world, live):
    # canonical_encode hashes Ring's own encoding, so an ``encoded`` set on
    # the instance is never called: sign, verify and the board's own Ring
    # hash the same bytes, and verify and the board agree.
    ring = Ring(world.grp, [kp.pub_key for kp in world.keys[:3]])
    ring.encoded = Ring(world.grp, [kp.pub_key for kp in world.keys[1:]]).encoded
    message = encode_bid_message(1, 0, 20)
    sig = sign(world.pp, ring, world.keys[0], message, live.rng)
    assert verify(world.pp, ring, message, sig)
    posted = live.am.admit_bid(Bid(auction_id=1, round_no=0, price=20, ring=ring, signature=sig))
    assert live.board.verified(posted.seq)


def test_a_ring_changed_after_posting_changes_nothing_posted(world, live):
    # The fold keeps its own Ring of a posted bid's keys.
    bid = honest_bid(world, live.rng, 10)
    posted = live.am.admit_bid(bid)
    bid.ring.keys = tuple(reversed(bid.ring.keys))
    bid.ring.encodings = tuple(reversed(bid.ring.encodings))
    assert live.am.determine_winner(1) == posted.seq
    assert live.board.bid(posted.seq).ring is not bid.ring
    assert live.board.verified(posted.seq)


def test_a_signature_changed_after_posting_changes_nothing_posted(world, live):
    # object.__setattr__ writes through a frozen dataclass, so the fold keeps
    # only objects it built: its own Ring, RingSignature and MemberProofs.
    bid = honest_bid(world, live.rng, 10)
    posted = live.am.admit_bid(bid)
    grp, sig = world.grp, bid.signature
    object.__setattr__(sig, "s1", grp.add(sig.s1, grp.g))
    object.__setattr__(sig.members[1], "commit", grp.add(sig.members[1].commit, grp.g))
    assert not verify(world.pp, bid.ring, bid.message_bytes(), sig)
    kept = live.board.bid(posted.seq)
    assert kept.ring is not bid.ring and kept.signature is not sig
    assert not any(mine is theirs for mine in kept.signature.members for theirs in sig.members)
    assert live.board.verified(posted.seq)
    assert live.am.determine_winner(1) == posted.seq
    report = verify_transcript(render_transcript(live.board))
    assert report.valid and report.winners == ((1, posted.seq, 10),)
    assert report.board.verified(posted.seq)


@pytest.fixture(scope="module")
def form_probe(setup16, keys16):
    """A manager over a board holding five keys, with auction 1 open (prices
    may fall), and a verifying bid at 10 in it whose ring of three also holds
    a key the board never published, so the board refuses every variant of
    the bid that it reads."""
    pp, tk = setup16
    board = BulletinBoard(pp)
    rm, am, rng = RegistrationManager(board), AuctionManager(tk, board), random.Random(98)
    for i, kp in enumerate(keys16):
        name = f"agent-{i}".encode()
        rm.register(kp.pub_key, name, make_registration(kp.x, kp.pub_key, name, pp.group, rng))
    am.open_auction(1, monotonic=False)
    stranger = keygen(pp, random.Random(4321)).pub_key
    ring = Ring(pp.group, [keys16[0].pub_key, keys16[1].pub_key, stranger])
    message = encode_bid_message(1, 0, 10)
    bid = Bid(auction_id=1, round_no=0, price=10, ring=ring,
              signature=sign(pp, ring, keys16[0], message, rng))
    assert verify(pp, ring, message, bid.signature)
    return am, bid


def hostile(point, ell):
    """Values that stand for ``point``: O (None, a canonical point), things
    of no point's type or shape, a list of its coordinates, and its twins."""
    x, y = point
    return [None, 5, 1.5, "ab", (1, 2, 3), [x, y], *unreduced(point, ell).values()]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(part=st.sampled_from(("key", "s1", "s2", "commit", "proof", "members", "ring",
                             "signature")),
       at=st.integers(0, 2), pick=st.integers(0, 13))
@example(part="members", at=0, pick=0)  # a list of members
@example(part="key", at=1, pick=6)  # a ring key written (x, y + ell)
@example(part="key", at=0, pick=8)  # another registered key, the encodings kept
@example(part="ring", at=0, pick=5)  # keys and encodings reversed together
@example(part="ring", at=0, pick=6)  # a key written twice, in keys and encodings
@example(part="members", at=0, pick=5)  # no members over an emptied ring
@example(part="ring", at=0, pick=7)  # a Ring with no attributes
@example(part="ring", at=0, pick=8)  # a Ring whose encodings are deleted
@example(part="signature", at=0, pick=9)  # a RingSignature with no attributes
@example(part="members", at=0, pick=4)  # a MemberProof with no attributes
@example(part="ring", at=0, pick=10)  # another ring's encodings, equal to anything
@example(part="ring", at=0, pick=11)  # a Ring subclass hashing another ring's encoding
@example(part="ring", at=0, pick=12)  # a bytes subclass among the encodings
@example(part="signature", at=0, pick=13)  # a RingSignature subclass
@example(part="members", at=0, pick=6)  # a MemberProof subclass
def test_verify_and_admission_refuse_the_same_forms(form_probe, keys16, part, at, pick):
    # One edit of the bid's ring or signature: ``pick`` chooses the value.
    # Every hostile value but O spoils the form (any edited ring key does,
    # O included, as does a ring out of canonical order, an instance missing
    # an attribute, and a subclass of any part's type), and then verify
    # reads NOT_WELL_FORMED exactly when admission reads NOT_CANONICAL;
    # neither raises and nothing is posted.
    am, bid = form_probe
    pp, ell = am.board.pp, am.board.group.ell
    ring, sig, members = bid.ring, bid.signature, list(bid.signature.members)

    def choose(values):
        return values[pick % len(values)]

    if part == "key":
        # Any edited key spoils the form, even a canonical one (another
        # registered key, or O): the encodings kept no longer name the keys.
        value = choose([*hostile(ring[at], ell)[1:], keys16[2].pub_key, None])
        ring = with_key(ring, ring[at], value)
    elif part in ("s1", "s2"):
        value = choose(hostile(getattr(sig, part), ell))
        sig = replace(sig, **{part: value})
    elif part in ("commit", "proof"):
        value = choose(hostile(getattr(members[at], part), ell))
        members[at] = replace(members[at], **{part: value})
        sig = replace(sig, members=tuple(members))
    elif part == "members":
        value = choose(("a list", "one too few", "one too many", "no proof", "a bare proof",
                        "none, over no keys", "a subclass proof"))
        sig = replace(sig, members={
            "a list": members,
            "one too few": tuple(members[:-1]),
            "one too many": (*members, members[at]),
            "no proof": (*members[:at], (members[at].commit, members[at].proof), *members[at + 1:]),
            "a bare proof": (*members[:at], object.__new__(MemberProof), *members[at + 1:]),
            "none, over no keys": (),
            "a subclass proof": (*members[:at], SubProof(members[at].commit, members[at].proof),
                                 *members[at + 1:]),
        }[value])
        if value == "none, over no keys":
            ring = rewritten(ring, ())
    else:
        stripped, subbytes = Ring(ring.group, ring.keys), Ring(ring.group, ring.keys)
        del stripped.encodings
        subbytes.encodings = (PlainBytes(ring.encodings[0]), *ring.encodings[1:])
        other = Ring(ring.group, [kp.pub_key for kp in keys16[2:]])
        value = choose([None, 5, "ab", tuple(members), ring.keys, rewritten(ring, ring.keys[::-1]),
                        rewritten(ring, (ring[0], ring[0], ring[2])), Ring.__new__(Ring), stripped,
                        object.__new__(RingSignature), disguised(ring, other, "equal-to-anything"),
                        disguised(ring, other, "subclass"), subbytes,
                        SubSignature(sig.s1, sig.s2, sig.members)])
        ring, sig = (value, sig) if part == "ring" else (ring, value)
    malformed = part in ("key", "members", "ring", "signature") or value is not None
    before = am.board.entries()
    verdict = verify(pp, ring, bid.message_bytes(), sig)
    admitted = am.admit_bid(replace(bid, ring=ring, signature=sig))
    assert (verdict.reason == NOT_WELL_FORMED) is malformed, (part, value, verdict)
    assert (admitted.reason == NOT_CANONICAL) is malformed, (part, value, admitted)
    assert not admitted and am.board.entries() == before
