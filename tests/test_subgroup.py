"""Points outside the order-n subgroup G_n wherever a verifier pairs them.

``PairingGroup.pair`` refuses a first argument outside G_n, as its Miller
loop ends at [n]P != O, and ``verify`` turns that into a "malformed" verdict.
Here: the order-2 shift of the signer's commitment, which used to verify
and leave the winner untraceable, end to end at 16, 32 and 64 bits; torsion
of orders 2, 4 and an odd prime of the cofactor r on every first argument;
and an exhaustive model check of the scheme's equations on two toy groups.
"""

import itertools
import random
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from ringauction.auction import AuctionManager, open_protocol
from ringauction.cli import main
from ringauction.group import InvalidPoint, gen_group_params, hash_to_bits
from ringauction.harness import render_transcript, verify_transcript
from ringauction.registry import (
    WINNER_ANNOUNCED,
    Bid,
    BulletinBoard,
    RegistrationManager,
    encode_bid_message,
    make_registration,
    serialize_bid_payload,
)
from ringauction.ringsig import (
    MemberProof,
    Ring,
    RingSignature,
    Untraceable,
    VerifyResult,
    _waters_sum,
    canonical_encode,
    keygen,
    locate_signer,
    setup,
    sign,
    verify,
)

from .support import (
    all_curve_points,
    cofactor_torsion,
    eager_verify_transcript,
    naive_add,
    naive_mul,
    naive_neg,
    naive_order,
    toy_params,
    untraceable_words,
    verdict,
)

OUTSIDE = VerifyResult(False, "malformed: pairing's first argument is outside the order-n subgroup")


def _shift_member(sig: RingSignature, slot: int, grp, T) -> RingSignature:
    members = list(sig.members)
    members[slot] = replace(members[slot], commit=grp.add(members[slot].commit, T))
    return replace(sig, members=tuple(members))


# ---------------------------------------------------------------------------
# the order-2 shift of the signer's commitment, end to end

@pytest.fixture(scope="module", params=(16, 32, 64))
def shifted_run(request, tmp_path_factory):
    """Three registered bidders over gen_group_params(bits, bits, Random(11)),
    setup Random(4).  Bidder 0 posts an honest bid at 10, then one at 20
    whose commitment in its own slot carries (0, 0) too.  The manager closes
    the auction and announces its winner; ``forged`` is that transcript with
    the shifted bid announced instead."""
    bits = request.param
    params = gen_group_params(bits, bits, random.Random(11))
    pp, tk = setup(params, 8, random.Random(4))
    grp = pp.group
    rng = random.Random(5)
    board = BulletinBoard(pp)
    rm = RegistrationManager(board)
    am = AuctionManager(tk, board)
    keys = [keygen(pp, rng) for _ in range(3)]
    for i, kp in enumerate(keys):
        name = f"bidder-{i}".encode()
        rm.register(kp.pub_key, name, make_registration(kp.x, kp.pub_key, name, grp, rng))
    ring = Ring(grp, [kp.pub_key for kp in keys])
    slot = ring.keys.index(keys[0].pub_key)

    def bid(price):
        sig = sign(pp, ring, keys[0], encode_bid_message(1, 0, price), rng)
        return Bid(auction_id=1, round_no=0, price=price, ring=ring, signature=sig)

    honest, shifted = bid(10), bid(20)
    shifted = replace(shifted, signature=_shift_member(shifted.signature, slot, grp, (0, 0)))
    am.open_auction(1)
    admitted = [am.admit_bid(honest), am.admit_bid(shifted)]
    winner = am.determine_winner(1)
    transcript = render_transcript(board)
    lines = transcript.decode().splitlines()
    seq = lines[-1].split(" ")[0]
    forged_payload = admitted[1].seq.to_bytes(8, "big") + serialize_bid_payload(shifted)
    lines[-1] = f"{seq} {WINNER_ANNOUNCED} {forged_payload.hex()}"
    folder = tmp_path_factory.mktemp(f"shifted{bits}")
    paths = {name: folder / f"{name}.txt" for name in ("honest", "forged", "tracekey")}
    paths["honest"].write_bytes(transcript)
    paths["forged"].write_text("\n".join(lines) + "\n")
    paths["tracekey"].write_text(f"{tk.q}\n")
    return SimpleNamespace(pp=pp, tk=tk, am=am, rm=rm, ring=ring, slot=slot, honest=honest,
                           shifted=shifted, admitted=admitted, winner=winner,
                           transcript=transcript, forged=paths["forged"].read_bytes(),
                           paths=paths, winner_seq=int(seq))


@pytest.fixture()
def replays_valid(shifted_run):
    """Ends a test by replaying the run's board, as the test left it."""
    yield
    assert verify_transcript(render_transcript(shifted_run.am.board)).valid


@pytest.mark.usefixtures("replays_valid")
class TestShiftedSignerCommitment:
    def test_verify_calls_it_malformed(self, shifted_run):
        run = shifted_run
        message = run.shifted.message_bytes()
        assert verify(run.pp, run.ring, run.honest.message_bytes(), run.honest.signature)
        assert verify(run.pp, run.ring, message, run.shifted.signature) == OUTSIDE
        # Why it matters: [q](0, 0) != O, so no slot passes the tracing test.
        with pytest.raises(Untraceable, match="^no ring slot passes the tracing test$"):
            locate_signer(run.tk, run.pp, run.ring, run.shifted.signature)

    def test_manager_posts_it_then_skips_it(self, shifted_run):
        run = shifted_run
        assert all(run.admitted)
        assert run.winner == run.admitted[0].seq and run.am.board.heads[run.winner].price == 10
        assert run.am.board.verified(run.admitted[1].seq) == OUTSIDE
        assert open_protocol(run.am, run.rm, run.winner) == (run.ring[run.slot], b"bidder-0")

    def test_replay_skips_it_and_refuses_it_as_announced_winner(self, shifted_run):
        run = shifted_run
        report = verify_transcript(run.transcript)
        assert report.valid and report.winners == ((1, run.admitted[0].seq, 10),)
        assert (run.admitted[1].seq, f"failed: {OUTSIDE.reason}") in report.outcomes
        forged = verify_transcript(run.forged)
        assert not forged.valid
        assert (forged.failing_seq, forged.reason) == (
            run.winner_seq, "announced winner's signature does not verify")
        for data in (run.transcript, run.forged):
            assert verdict(eager_verify_transcript(data)) == verdict(verify_transcript(data))

    def test_cli_verify_exits_one_and_trace_two(self, shifted_run, capsys):
        paths, seq = shifted_run.paths, str(shifted_run.admitted[1].seq)
        assert main(["verify", "--transcript", str(paths["forged"])]) == 1
        assert "INVALID" in capsys.readouterr().out
        assert main(["trace", "--transcript", str(paths["forged"]), "--seq", seq,
                     "--tracekey", str(paths["tracekey"])]) == 2
        assert capsys.readouterr().err.startswith("bad transcript at seq ")
        # On the honest transcript the shifted bid is posted but does not verify.
        assert main(["trace", "--transcript", str(paths["honest"]), "--seq", seq,
                     "--tracekey", str(paths["tracekey"])]) == 1
        assert capsys.readouterr().out == f"bid seq {seq} does not verify: {OUTSIDE.reason}\n"


# ---------------------------------------------------------------------------
# torsion on each first argument

@pytest.fixture(scope="module")
def torsion_setup():
    """gen_group_params(16, 16, Random(11)), r = 12, and a signature over a
    ring of three: torsion of order 2, 4 and 3 is there to add."""
    params = gen_group_params(16, 16, random.Random(11))
    assert params.r == 12
    pp, _ = setup(params, 8, random.Random(4))
    rng = random.Random(6)
    keys = [keygen(pp, rng) for _ in range(3)]
    ring = Ring(pp.group, [kp.pub_key for kp in keys])
    sig = sign(pp, ring, keys[0], b"bid", rng)
    assert verify(pp, ring, b"bid", sig)
    T = cofactor_torsion(pp.group, random.Random(12))
    return pp, ring, ring.keys.index(keys[0].pub_key), sig, T


@pytest.mark.parametrize("order", (2, 4, 3))
@pytest.mark.parametrize("component", ("s1", "s2", "signer commit", "decoy commit"))
def test_torsion_on_a_first_argument_is_malformed(torsion_setup, component, order):
    pp, ring, slot, sig, T = torsion_setup
    grp = pp.group
    T = naive_mul(12 // order, T, grp.ell)
    assert naive_order(T, grp.ell, order) == order
    if component in ("s1", "s2"):
        bad = replace(sig, **{component: grp.add(getattr(sig, component), T)})
    else:
        bad = _shift_member(sig, slot if component == "signer commit" else (slot + 1) % 3, grp, T)
    assert verify(pp, ring, b"bid", bad) == OUTSIDE


# ---------------------------------------------------------------------------
# an exhaustive model check on toy groups
#
# For n = 35 = 5 * 7 (q = 7) and ell = 139 (r = 4), and ell = 419 (r = 12,
# so r has the odd prime 3), every curve point is tried in each coordinate
# of each equation.  Both equations separate into a side per coordinate, so
# a side is paired once per point and the accepted tuples are counted from
# those values: exactly the tuples verify's equations accept.

def _paired(grp, P, Q):
    try:
        return grp.pair(P, Q)
    except InvalidPoint:
        return None


@pytest.fixture(scope="module", params=(139, 419))
def toy(request):
    params = toy_params(request.param)
    grp, n, ell = params.group, params.group.n, params.group.ell
    assert ell == request.param
    pp, tk = setup(params, 2, random.Random(0))
    points = all_curve_points(ell)
    in_n = {P for P in points if naive_mul(n, P, ell) is None}
    in_q = {P for P in points if naive_mul(params.q, P, ell) is None}
    proof_sides = Counter(_paired(grp, grp.h, proof) for proof in points)  # e(h, proof)
    return SimpleNamespace(params=params, grp=grp, pp=pp, tk=tk, points=points,
                           in_n=in_n, in_q=in_q, r=params.r, proof_sides=proof_sides)


def _offset(toy, K):
    return naive_add(K, naive_neg(toy.pp.commit_offset, toy.grp.ell), toy.grp.ell)


def _accepted_commits(toy, K):
    """Every commitment C the member equation e(C, C - K') = e(h, proof)
    accepts with some proof, and the number of those proofs."""
    ell, K_off = toy.grp.ell, _offset(toy, K)
    accepted = {}
    for C in toy.points:
        value = _paired(toy.grp, C, naive_add(C, naive_neg(K_off, ell), ell))
        if value is not None and toy.proof_sides[value]:
            accepted[C] = toy.proof_sides[value]
    return accepted


# ell -> (accepted (C, proof) pairs summed over the 35 keys K = [x]g,
# accepted (s1, s2) pairs, commitment pairs traced to one slot, to nobody).
# A key with K' outside G_q (28 of 35) has 7 + 7 accepted C and a degenerate
# one 7, each with 5 proofs in G_n times r shifts: 8820 = (28*14 + 7*7)*5*4
# and 26460 at r = 12.  Each of the 15 rings has 7*7 pairs with the signer
# in slot 0, 7*7 in slot 1, 7*7 with both slots marked and 7*7 with none.
TOY_COUNTS = {139: (8820, 35, 1470, 1470), 419: (26460, 35, 1470, 1470)}


def test_member_equation_accepts_only_commitments_in_the_subgroup(toy):
    # Soundness of the OR-proof: C lies in G_n, and C or C - K' in G_q.  The
    # proof itself need not lie in G_n: verify takes it as a second pairing
    # argument, which pair does not check, so each accepted proof comes with
    # its r torsion shifts.
    ell, total = toy.grp.ell, 0
    for x in range(toy.params.group.n):
        K = naive_mul(x, toy.params.group.g, ell)
        K_off = _offset(toy, K)
        for C, proofs in _accepted_commits(toy, K).items():
            assert C in toy.in_n, (x, C)
            assert C in toy.in_q or naive_add(C, naive_neg(K_off, ell), ell) in toy.in_q, (x, C)
            assert proofs % toy.r == 0
            total += proofs
    assert total == TOY_COUNTS[ell][0]


def test_main_equation_accepts_only_s1_and_s2_in_the_subgroup(toy):
    # e(key_base, commit_offset + sum C) = e(s1, g) * e(-s2, W) for one
    # honest member set, over every (s1, s2): for each s2 in G_n exactly one
    # s1 in G_n, and nothing outside G_n.
    grp, pp, ell = toy.grp, toy.pp, toy.grp.ell
    keys = [keygen(pp, random.Random(seed)) for seed in (1, 2)]
    ring = Ring(grp, [kp.pub_key for kp in keys])
    sig = sign(pp, ring, keys[0], b"toy", random.Random(3))
    assert verify(pp, ring, b"toy", sig)
    (W,) = grp.to_affine(_waters_sum(pp, hash_to_bits(canonical_encode(b"toy", ring),
                                                     len(pp.hash_gens))))
    assert W is not None
    total_commit = pp.commit_offset
    for member in sig.members:
        total_commit = naive_add(total_commit, member.commit, ell)
    lhs = grp.pair(pp.key_base, total_commit)
    s2_sides: dict = {}
    for s2 in toy.points:
        value = _paired(grp, naive_neg(s2, ell), W)
        if value is not None:
            s2_sides.setdefault(value, []).append(s2)
    accepted = []
    for s1 in toy.points:
        value = _paired(grp, s1, grp.g)
        if value is not None:
            accepted += [(s1, s2) for s2 in s2_sides.get(lhs * value ** -1, [])]
    assert all(s1 in toy.in_n and s2 in toy.in_n for s1, s2 in accepted)
    assert len(accepted) == TOY_COUNTS[ell][1]
    for s1, s2 in accepted[:3]:
        assert verify(pp, ring, b"toy", replace(sig, s1=s1, s2=s2))


def test_tracing_names_the_one_slot_whose_offset_commitment_is_in_g_q(toy):
    # Every ring of two distinct non-degenerate keys (K' outside G_q) among
    # the first eight keys, and every pair of commitments the member
    # equation accepts for it: a main equation accepts each such pair with
    # some (s1, s2) in G_n, and locate_signer reads only the commitments.
    # It names slot i exactly when C_i - K'_i lies in G_q for i alone, and
    # otherwise raises Untraceable naming those slots and, of two, the ones
    # whose C lies outside G_q.
    grp, pp, ell = toy.grp, toy.pp, toy.grp.ell
    keys = [naive_mul(x, toy.params.group.g, ell) for x in range(1, 9)]
    keys = [K for K in keys if _offset(toy, K) not in toy.in_q]
    commits = {K: list(_accepted_commits(toy, K)) for K in keys}
    traced = nobody = 0
    for K1, K2 in itertools.combinations(keys, 2):
        ring = Ring(grp, [K1, K2])
        for both in itertools.product(commits[ring[0]], commits[ring[1]]):
            marked = [slot for slot, (K, C) in enumerate(zip(ring, both))
                      if naive_add(C, naive_neg(_offset(toy, K), ell), ell) in toy.in_q]
            sig = RingSignature(None, None, tuple(MemberProof(C, None) for C in both))
            if len(marked) == 1:
                found = locate_signer(toy.tk, pp, ring, sig)
                assert found == (marked[0], ring[marked[0]]), (ring.keys, both)
                traced += 1
            else:
                kept = [slot for slot in marked if both[slot] not in toy.in_q]
                with pytest.raises(Untraceable) as raised:
                    locate_signer(toy.tk, pp, ring, sig)
                assert str(raised.value) == untraceable_words(marked, kept), (ring.keys, both)
                nobody += 1
    assert (traced, nobody) == TOY_COUNTS[ell][2:]
