"""Registration proofs, the bulletin board, and the identity registry."""

import math
import random
from collections import Counter

import pytest

from ringauction.auction import AuctionManager, BidderAgent
from ringauction.cli import main
from ringauction.group import OpCounter, count_ops, gen_group_params
from ringauction.harness import (
    ScenarioConfig,
    read_transcript,
    render_transcript,
    run_scenario,
    verify_transcript,
)
from ringauction.registry import (
    BID_POSTED,
    KEY_EVICTED,
    KEY_PUBLISHED,
    KEY_WAS_EVICTED,
    RING_KEY_INACTIVE,
    WINNER_ANNOUNCED,
    AlreadyEvicted,
    BulletinBoard,
    DuplicateKey,
    InvalidProof,
    MalformedBoard,
    RegistrationManager,
    RegistrationProof,
    UnknownKey,
    make_registration,
    verify_registration,
)
from ringauction.ringsig import Ring, keygen, setup

from .support import (
    NOT_CANONICAL,
    Fresh,
    all_curve_points,
    eager_verify_transcript,
    naive_add,
    naive_mul,
    naive_neg,
    naive_order,
    torsion_shifts,
)


def oracle_verify(pub_key, identity, proof, group):
    """Re-derive the proof commitment with the naive curve arithmetic; the
    challenge hashes the key, the commitment and the identity."""
    ell = group.ell
    lhs = naive_mul(proof.b_resp, group.g, ell)
    rhs = naive_neg(naive_mul(proof.a_resp, pub_key, ell), ell)
    commitment = naive_add(lhs, rhs, ell)
    statement = group.encode_point(pub_key) + group.encode_point(commitment) + identity
    return proof.a_resp == group.hash_to_zn(statement)


class SubProof(RegistrationProof):
    """A ``RegistrationProof`` subclass that overrides nothing."""


class SameAsAnyStr(str):
    """A ``str`` that equals anything."""

    __hash__ = str.__hash__

    def __eq__(self, other):
        return True


# Hostile stand-ins for the identity or the proof of an honest registration
# of b"alice", by name.
HOSTILE_REGISTRATIONS = {
    "proof None": lambda proof: (b"alice", None),
    "proof RegistrationProof('1', 2)": lambda proof: (b"alice", RegistrationProof("1", 2)),
    "identity 'alice'": lambda proof: ("alice", proof),
    "identity 5": lambda proof: (5, proof),
    "identity bytearray": lambda proof: (bytearray(b"alice"), proof),
    "identity Fresh(b'alice')": lambda proof: (Fresh(b"alice"), proof),
    "proof with no attributes": lambda proof: (b"alice", object.__new__(RegistrationProof)),
    "proof of a subclass": lambda proof: (b"alice", SubProof(proof.a_resp, proof.b_resp)),
}


def fresh_key(group, rng):
    x = rng.randrange(1, group.n)
    return x, group.mul(x, group.g)


def key_encodings(group, count):
    """Encodings of [1]g .. [count]g: distinct keys a board accepts."""
    return [group.encode_point(group.mul(x, group.g)) for x in range(1, count + 1)]


def replayed_view(transcript):
    """Fold a transcript's records into a fresh BulletinBoard: its sorted active encodings."""
    pp, pairs = read_transcript(transcript)
    board = BulletinBoard(pp)
    for pair in pairs:
        board.append(*pair)
    return board.active_view()


# ---------------------------------------------------------------------------
# possession proofs

class TestRegistrationProof:
    def test_roundtrip_and_oracle_agreement(self, tiny_params):
        group = tiny_params.group
        rng = random.Random(10)
        for i in range(20):
            x, pub = fresh_key(group, rng)
            identity = b"holder-%d" % i
            proof = make_registration(x, pub, identity, group, rng)
            assert verify_registration(pub, identity, proof, group)
            assert oracle_verify(pub, identity, proof, group)

    def test_make_counts_one_exp(self, params16):
        group = params16.group
        rng = random.Random(11)
        x, pub = fresh_key(group, rng)
        counter = OpCounter()
        with count_ops(counter):
            counter.set_phase("registration")
            make_registration(x, pub, b"id", group, rng)
        assert counter.phase("registration") == {"exp": 1, "hash": 1}

    def test_bound_to_identity(self, tiny_params):
        group = tiny_params.group
        rng = random.Random(12)
        x, pub = fresh_key(group, rng)
        proof = make_registration(x, pub, b"alice", group, rng)
        assert not verify_registration(pub, b"bob", proof, group)

    def test_bound_to_key(self, params16):
        group = params16.group
        rng = random.Random(13)
        x, pub = fresh_key(group, rng)
        _, other = fresh_key(group, rng)
        proof = make_registration(x, pub, b"id", group, rng)
        assert not verify_registration(other, b"id", proof, group)

    def test_tampered_responses_fail(self, params16):
        group = params16.group
        rng = random.Random(14)
        x, pub = fresh_key(group, rng)
        proof = make_registration(x, pub, b"id", group, rng)
        shifted_b = RegistrationProof(proof.a_resp, (proof.b_resp + 1) % group.n)
        shifted_a = RegistrationProof((proof.a_resp + 1) % group.n, proof.b_resp)
        assert not verify_registration(pub, b"id", shifted_b, group)
        assert not verify_registration(pub, b"id", shifted_a, group)

    def test_out_of_range_responses_fail(self, tiny_params):
        group = tiny_params.group
        rng = random.Random(15)
        x, pub = fresh_key(group, rng)
        proof = make_registration(x, pub, b"id", group, rng)
        assert not verify_registration(pub, b"id",
                                       RegistrationProof(proof.a_resp + group.n,
                                                         proof.b_resp), group)
        assert not verify_registration(pub, b"id",
                                       RegistrationProof(-1, proof.b_resp), group)

    def test_identity_point_fails(self, tiny_params):
        group = tiny_params.group
        assert not verify_registration(None, b"id", RegistrationProof(1, 2), group)

    def test_forgeries_without_the_exponent(self, params16):
        # 100 uniform response pairs against a key whose exponent was never
        # used: the acceptance chance per trial is 1/n with n about 2^32.
        group = params16.group
        rng = random.Random(16)
        _, pub = fresh_key(group, rng)
        for _ in range(100):
            forged = RegistrationProof(rng.randrange(group.n), rng.randrange(group.n))
            assert not verify_registration(pub, b"target", forged, group)


# ---------------------------------------------------------------------------
# bulletin board

@pytest.fixture(scope="module")
def tiny_pp(tiny_params):
    """Public parameters over the toy group, for boards that hold keys."""
    return setup(tiny_params, 2, random.Random(0))[0]


class TestBulletinBoard:
    @pytest.fixture()
    def board(self, tiny_pp):
        return BulletinBoard(tiny_pp)

    @pytest.fixture()
    def keys(self, tiny_params):
        return key_encodings(tiny_params.group, 3)

    def test_append_assigns_sequential_numbers(self, board, keys):
        assert board.append(KEY_PUBLISHED, keys[0]) == 0
        assert board.append(KEY_PUBLISHED, keys[1]) == 1
        with pytest.raises(MalformedBoard, match="unreadable bid"):
            board.append(BID_POSTED, b"\x02")  # refused, so it takes no seq
        assert board.append(KEY_EVICTED, keys[0]) == 2
        kinds = [kind for kind, _ in board.entries()]
        assert kinds == [KEY_PUBLISHED, KEY_PUBLISHED, KEY_EVICTED]

    def test_append_rejects_unknown_kind(self, board, keys):
        # The kind is an exact str of ENTRY_KINDS: a str subclass equal to
        # every kind is unknown too, and stores nothing.
        with pytest.raises(ValueError, match="^unknown entry kind 'gossip'$"):
            board.append("gossip", b"x")
        with pytest.raises(ValueError, match="^unknown entry kind 'junk'$"):
            board.append(SameAsAnyStr("junk"), keys[0])
        assert board.entries() == () and not board.active

    def test_entries_snapshot_is_stable(self, board, keys):
        board.append(KEY_PUBLISHED, keys[0])
        snapshot = board.entries()
        board.append(KEY_PUBLISHED, keys[1])
        assert len(snapshot) == 1
        assert len(board.entries()) == 2

    def test_active_view_tracks_evictions(self, board, keys, tiny_params):
        k1, k2, _ = keys
        board.append(KEY_PUBLISHED, k1)
        board.append(KEY_PUBLISHED, k2)
        assert board.active_keys() == {k1, k2}
        board.append(KEY_EVICTED, k1)
        assert board.active_keys() == {k2}
        assert board.active_view() == (k2,)

    def test_replay_matches_live_view(self, board, keys):
        k1, k2, k3 = keys
        board.append(KEY_PUBLISHED, k1)
        board.append(KEY_PUBLISHED, k2)
        board.append(KEY_PUBLISHED, k3)
        board.append(KEY_EVICTED, k2)
        order = board.active_view()
        assert order == tuple(sorted((k1, k3)))
        assert replayed_view(render_transcript(board)) == order

    def test_text_roundtrip(self, board, keys):
        board.append(KEY_PUBLISHED, keys[0])
        board.append(KEY_EVICTED, keys[0])
        transcript = render_transcript(board)
        header, records = transcript.split(b"\n", 1)
        assert records == f"0 key-published {keys[0].hex()}\n1 key-evicted {keys[0].hex()}\n".encode()
        assert read_transcript(transcript).records == board.entries()
        assert read_transcript(header + b"\n0 bid-posted \n").records == ((BID_POSTED, b""),)

    def test_parse_rejects_garbage(self, board):
        header = render_transcript(board)
        with pytest.raises(MalformedBoard):
            read_transcript(header + b"0 key-published zz\n")  # not hex
        with pytest.raises(MalformedBoard):
            read_transcript(header + b"0 gossip 00\n")  # unknown kind
        with pytest.raises(MalformedBoard):
            read_transcript(header + b"0 key-published\n")  # missing payload field
        with pytest.raises(MalformedBoard) as caught:
            read_transcript(header + b"0 key-published 00\n2 key-published 01\n")  # seq 1 skipped
        assert (caught.value.seq, caught.value.reason) == (1, "seq is not the record's position")

    def test_parse_reports_line_number(self, board):
        # line numbers count the header, so they match the transcript file
        with pytest.raises(MalformedBoard) as caught:
            read_transcript(render_transcript(board) + b"0 key-published 00\nbroken line here\n")
        assert str(caught.value) == "line 3: seq is not the record's position"

    def test_parse_empty_board(self, board):
        with pytest.raises(MalformedBoard, match="^missing params header$"):
            read_transcript(b"")
        assert read_transcript(render_transcript(board)).records == ()


@pytest.mark.parametrize("kind, name, reason", [
    (KEY_PUBLISHED, "undecodable", "unreadable key: unknown parity tag 0xff"),
    (KEY_PUBLISHED, "identity", "identity point published as a key"),
    (KEY_PUBLISHED, "(0, 0) under the odd tag", "unreadable key: y = 0 takes the even parity tag"),
    (KEY_PUBLISHED, "(0, 0)", "order-2 point published as a key"),
    (KEY_PUBLISHED, "active", "key is already active"),
    (KEY_EVICTED, "inactive", "evicting a key that is not active"),
], ids=["undecodable", "identity", "non-canonical", "order-2", "republished", "evict-inactive"])
def test_board_and_replay_reject_the_same_key_records(setup16, kind, name, reason):
    pp, _ = setup16
    group = pp.group
    active, inactive = key_encodings(group, 2)
    width = group.point_bytes
    payload = {"undecodable": b"\xff" * width, "identity": bytes(width),
               "(0, 0) under the odd tag": bytes(width - 1) + b"\x03",
               "(0, 0)": bytes(width - 1) + b"\x02",
               "active": active, "inactive": inactive}[name]
    board = BulletinBoard(pp)
    board.append(KEY_PUBLISHED, active)
    before = board.active_view()
    with pytest.raises(MalformedBoard) as live:
        board.append(kind, payload)
    assert (live.value.seq, live.value.reason) == (1, reason)
    assert len(board.entries()) == 1 and board.active_view() == before
    transcript = render_transcript(board) + f"1 {kind} {payload.hex()}\n".encode()
    for report in (verify_transcript(transcript), eager_verify_transcript(transcript)):
        assert (report.failing_seq, report.reason) == (1, reason)


@pytest.mark.parametrize("payload", ["None", "5", "bytearray", "hex text", "Fresh"])
@pytest.mark.parametrize("kind", [KEY_PUBLISHED, KEY_EVICTED, BID_POSTED, WINNER_ANNOUNCED])
def test_append_refuses_a_payload_that_is_not_bytes(setup16, kind, payload):
    # The board's one write refuses, never raises, and changes nothing: a
    # bid handed as no Bid is no bid of canonical points, and any other
    # record's payload must be bytes of exact type (a Fresh copy of an
    # active key would pass every set of keys unfound).
    pp, _ = setup16
    (active,) = key_encodings(pp.group, 1)
    board = BulletinBoard(pp)
    board.append(KEY_PUBLISHED, active)
    before = board.entries(), board.active_view()
    handed = {"None": None, "5": 5, "bytearray": bytearray(active),
              "hex text": active.hex(), "Fresh": Fresh(active)}[payload]
    with pytest.raises(MalformedBoard) as refused:
        board.append(kind, handed)
    reason = NOT_CANONICAL if kind == BID_POSTED else f"{kind} payload is not bytes"
    assert (refused.value.seq, refused.value.reason) == (1, reason)
    assert (board.entries(), board.active_view()) == before


def test_cli_verify_refuses_a_published_order_two_key(tmp_path, capsys):
    # A seeded run with the order-2 point (0, 0) appended as one more
    # published key: ``register`` refuses that key for its order, and so
    # does the replay.
    result = run_scenario(ScenarioConfig(seed=7), counted=False)
    seq = len(result.transcript.splitlines()) - 1  # the header line holds no record
    order_two = bytes(result.public_params.group.point_bytes - 1) + b"\x02"
    transcript = tmp_path / "t.txt"
    record = f"{seq} {KEY_PUBLISHED} {order_two.hex()}\n"
    transcript.write_bytes(result.transcript + record.encode())
    assert main(["verify", "--transcript", str(transcript)]) == 1
    assert capsys.readouterr().out == (
        f"transcript INVALID at seq {seq}: order-2 point published as a key\n")


def test_replay_takes_records_only_as_written():
    # render_transcript writes record i with seq str(i) and its payload in
    # lowercase hex, and the replay takes no other spelling: not the seed-7
    # transcript renumbered to seq 2i + 3, its winner record naming bid 13
    # where the live run announced bid 5, nor a seq written +0, nor a
    # payload in uppercase hex.
    result = run_scenario(ScenarioConfig(seed=7), counted=False)
    header, *records = result.transcript.decode().splitlines()
    fields = [record.split(" ") for record in records]
    last, kind, payload = fields[-1]
    assert (last, kind, int(payload[:16], 16)) == ("6", WINNER_ANNOUNCED, 5)
    renumbered = [f"{2 * i + 3} {kind} {payload}" for i, (_, kind, payload) in enumerate(fields)]
    renumbered[-1] = f"15 {kind} {(13).to_bytes(8, 'big').hex()}{payload[16:]}"
    cases = {
        "renumbered": (renumbered, 0, "seq is not the record's position"),
        "+0": (["+0 " + records[0].split(" ", 1)[1], *records[1:]], 0,
               "seq is not the record's position"),
        "uppercase": ([*records[:-1], f"{last} {kind} {payload.upper()}"], 6,
                      "payload is not lowercase hex"),
    }
    for name, (lines, seq, reason) in cases.items():
        data = "".join(line + "\n" for line in (header, *lines)).encode()
        for report in (verify_transcript(data), eager_verify_transcript(data)):
            assert (report.valid, report.failing_seq, report.reason) == (False, seq, reason), name


def test_key_records_fold_alike_on_every_short_encoding(tiny_params):
    # Every one-byte x under the identity tag, both parity tags and an
    # unknown one, published after one active key: the live fold, the lazy
    # replay and the eager replay agree on acceptance and on the reason.
    pp, _ = setup(tiny_params, 8, random.Random(0))
    group = pp.group
    active = key_encodings(group, 1)[0]
    reasons = Counter()
    for payload in (bytes([x, tag]) for x in range(256) for tag in (0x00, 0x02, 0x03, 0x07)):
        board = BulletinBoard(pp)
        board.append(KEY_PUBLISHED, active)
        transcript = render_transcript(board) + f"1 {KEY_PUBLISHED} {payload.hex()}\n".encode()
        try:
            board.append(KEY_PUBLISHED, payload)
            live = (True, None, None)
        except MalformedBoard as exc:
            live = (False, exc.seq, exc.reason)
        for report in (verify_transcript(transcript), eager_verify_transcript(transcript)):
            assert (report.valid, report.failing_seq, report.reason) == live, payload
        reasons[live[2]] += 1
    # not O, not (0, 0), not the active key
    assert reasons[None] == len(all_curve_points(group.ell)) - 3
    assert set(reasons) == {None, "identity point published as a key",
                            "order-2 point published as a key", "key is already active"} | {
        f"unreadable key: {why}" for why in (
            "identity encoding must be all zero", "unknown parity tag 0x07",
            "x coordinate out of range", "x coordinate is not on the curve",
            "y = 0 takes the even parity tag")}


# ---------------------------------------------------------------------------
# registration manager

@pytest.fixture()
def manager(tiny_pp):
    board = BulletinBoard(tiny_pp)
    return RegistrationManager(board), board


class TestRegistrationManager:
    def register(self, rm, group, rng, identity):
        x, pub = fresh_key(group, rng)
        proof = make_registration(x, pub, identity, group, rng)
        seq = rm.register(pub, identity, proof)
        return pub, seq

    def test_register_publishes_key(self, manager, tiny_params):
        rm, board = manager
        rng = random.Random(20)
        pub, seq = self.register(rm, tiny_params.group, rng, b"alice")
        assert seq == 0
        kind, payload = board.entries()[0]
        assert kind == KEY_PUBLISHED
        assert payload == tiny_params.group.encode_point(pub)
        assert payload in board.active_keys()
        assert rm.lookup_identity(pub) == b"alice"

    def test_duplicate_key_rejected(self, manager, tiny_params):
        rm, _ = manager
        group = tiny_params.group
        rng = random.Random(21)
        x, pub = fresh_key(group, rng)
        proof = make_registration(x, pub, b"first", group, rng)
        rm.register(pub, b"first", proof)
        again = make_registration(x, pub, b"second", group, rng)
        with pytest.raises(DuplicateKey):
            rm.register(pub, b"second", again)

    def test_second_key_for_an_identity_rejected(self, manager, tiny_params):
        # One registration per identity: a fresh key for an identity whose
        # first key is active is refused, and neither posted nor recorded.
        rm, board = manager
        group = tiny_params.group
        rng = random.Random(33)
        first, _ = self.register(rm, group, rng, b"alice")
        x, pub = fresh_key(group, rng)
        with pytest.raises(DuplicateKey, match="identity already registered"):
            rm.register(pub, b"alice", make_registration(x, pub, b"alice", group, rng))
        assert board.entries() == ((KEY_PUBLISHED, group.encode_point(first)),)
        with pytest.raises(UnknownKey):
            rm.lookup_identity(pub)

    def test_key_the_board_refuses_keeps_no_identity(self, manager, tiny_params):
        # The key is already active, appended to the board directly: the
        # board refuses its publication, so the registrar keeps no identity.
        rm, board = manager
        group = tiny_params.group
        rng = random.Random(32)
        x, pub = fresh_key(group, rng)
        board.append(KEY_PUBLISHED, group.encode_point(pub))
        with pytest.raises(MalformedBoard, match="key is already active"):
            rm.register(pub, b"alice", make_registration(x, pub, b"alice", group, rng))
        with pytest.raises(UnknownKey):
            rm.lookup_identity(pub)
        assert len(board.entries()) == 1
        self.register(rm, group, rng, b"alice")  # the refused key took no identity

    def test_bad_proof_rejected(self, manager, tiny_params):
        rm, board = manager
        group = tiny_params.group
        rng = random.Random(22)
        x, pub = fresh_key(group, rng)
        proof = make_registration(x, pub, b"alice", group, rng)
        with pytest.raises(InvalidProof):
            rm.register(pub, b"mallory", proof)  # stolen proof, other identity
        assert board.entries() == ()  # nothing was published

    def test_identity_point_and_empty_identity_rejected(self, manager, tiny_params):
        rm, _ = manager
        group = tiny_params.group
        rng = random.Random(23)
        with pytest.raises(InvalidProof):
            rm.register(None, b"ghost", RegistrationProof(0, 0))
        x, pub = fresh_key(group, rng)
        proof = make_registration(x, pub, b"", group, rng)
        with pytest.raises(InvalidProof):
            rm.register(pub, b"", proof)

    def test_key_outside_main_subgroup_rejected(self, manager, tiny_params):
        # |E| = 4n, so points of order 2 or 4 exist on the curve; they decode
        # fine but must not be accepted as bidder keys.
        rm, _ = manager
        ell = tiny_params.group.ell
        outside = next(P for P in all_curve_points(ell)
                       if P is not None and naive_order(P, ell, 200) % 2 == 0)
        with pytest.raises(InvalidProof):
            rm.register(outside, b"intruder", RegistrationProof(1, 1))

    @pytest.mark.parametrize("bits", (16, 32, 64))
    def test_key_with_cofactor_torsion_rejected_at_size(self, bits):
        # For T_d of order d > 1 dividing the cofactor r, [n](pub + T_d) =
        # [n]T_d is not O; nor is [n](0, 0).  The order check must catch each.
        params = gen_group_params(bits, bits, random.Random(bits))
        group = params.group
        rng = random.Random(3000 + bits)
        rm = RegistrationManager(BulletinBoard(setup(params, 2, random.Random(0))[0]))
        x, pub = fresh_key(group, rng)
        for P in torsion_shifts(group, pub, rng):
            with pytest.raises(InvalidProof, match="key order does not divide the group order"):
                rm.register(P, b"intruder", RegistrationProof(1, 1))
        proof = make_registration(x, pub, b"honest", group, rng)
        assert rm.register(pub, b"honest", proof) == 0

    def test_proof_for_another_key_fails_register(self, setup16):
        group = setup16[0].group
        board = BulletinBoard(setup16[0])
        rm = RegistrationManager(board)
        x, _ = fresh_key(group, random.Random(29))
        proof = make_registration(x, group.mul(x, group.g), b"alice", group, random.Random(30))
        with pytest.raises(InvalidProof, match="possession proof failed"):
            rm.register(group.mul(x + 1, group.g), b"alice", proof)
        assert board.entries() == ()

    @pytest.mark.parametrize("hostile", HOSTILE_REGISTRATIONS, ids=list(HOSTILE_REGISTRATIONS))
    def test_hostile_registration_is_refused(self, setup16, hostile):
        # A proof that is no RegistrationProof of two ints, or an identity
        # that is not bytes, each of exact type, is refused with
        # InvalidProof, never raised, and publishes nothing; so does
        # verify_registration, which reads False.
        group = setup16[0].group
        board = BulletinBoard(setup16[0])
        rng = random.Random(32)
        x, pub = fresh_key(group, rng)
        identity, proof = HOSTILE_REGISTRATIONS[hostile](make_registration(
            x, pub, b"alice", group, rng))
        with pytest.raises(InvalidProof):
            RegistrationManager(board).register(pub, identity, proof)
        assert board.entries() == ()
        assert verify_registration(pub, identity, proof, group) is False

    def test_key_nobody_can_open_is_refused(self, setup16):
        # The weak Fiat-Shamir forgery (Bernhard, Pereira, Warinschi,
        # ASIACRYPT 2012): were the key left out of the hash, anyone could
        # register P = [a^-1]([b]g - C) from another user's key K, with
        # C = [c]g + K and a = H(C || id), as [b]g - [a]P = C.  Nobody knows
        # P's exponent.  Hashing P with C makes a depend on P.
        group = setup16[0].group
        board = BulletinBoard(setup16[0])
        rm = RegistrationManager(board)
        rng = random.Random(31)
        x, victim = fresh_key(group, rng)
        rm.register(victim, b"victim", make_registration(x, victim, b"victim", group, rng))
        identity = b"mallory"
        while True:
            commitment = group.add(group.mul(rng.randrange(group.n), group.g), victim)
            a_resp = group.hash_to_zn(group.encode_point(commitment) + identity)
            if math.gcd(a_resp, group.n) == 1:
                break
        b_resp = rng.randrange(group.n)
        forged = group.mul(pow(a_resp, -1, group.n),
                           group.add(group.mul(b_resp, group.g), group.neg(commitment)))
        # The forgery opens its commitment to C, as the construction intends.
        assert group.add(group.mul(b_resp, group.g),
                         group.neg(group.mul(a_resp, forged))) == commitment
        with pytest.raises(InvalidProof, match="possession proof failed"):
            rm.register(forged, identity, RegistrationProof(a_resp, b_resp))
        assert len(board.entries()) == 1

    def test_evict_removes_from_active_view_only(self, manager, tiny_params):
        rm, board = manager
        group = tiny_params.group
        rng = random.Random(24)
        pub, _ = self.register(rm, group, rng, b"alice")
        other, _ = self.register(rm, group, rng, b"bob")
        seq = rm.evict(pub)
        assert board.entries()[seq][0] == KEY_EVICTED
        assert group.encode_point(pub) not in board.active_keys()
        assert group.encode_point(other) in board.active_keys()
        # the identity survives for audit; only the board knows of the eviction
        assert rm.lookup_identity(pub) == b"alice"

    def test_evict_twice_rejected(self, manager, tiny_params):
        rm, _ = manager
        rng = random.Random(25)
        pub, _ = self.register(rm, tiny_params.group, rng, b"alice")
        rm.evict(pub)
        with pytest.raises(AlreadyEvicted):
            rm.evict(pub)

    def test_evicted_key_cannot_reregister(self, manager, tiny_params):
        # registration is one-time: eviction burns the key for good; register
        # answers DuplicateKey first, and a bare append of the key meets the
        # board's own key-evicted record, not a black list
        rm, board = manager
        group = tiny_params.group
        rng = random.Random(26)
        x, pub = fresh_key(group, rng)
        proof = make_registration(x, pub, b"alice", group, rng)
        rm.register(pub, b"alice", proof)
        rm.evict(pub)
        fresh_proof = make_registration(x, pub, b"alice", group, rng)
        with pytest.raises(DuplicateKey):
            rm.register(pub, b"alice", fresh_proof)
        with pytest.raises(MalformedBoard) as caught:
            board.append(KEY_PUBLISHED, group.encode_point(pub))
        assert (caught.value.seq, caught.value.reason) == (2, KEY_WAS_EVICTED)
        # A bytes subclass that no set finds is no payload: the board's
        # evicted set would not have found it.
        with pytest.raises(MalformedBoard) as caught:
            board.append(KEY_PUBLISHED, Fresh(group.encode_point(pub)))
        assert (caught.value.seq, caught.value.reason) == (2, f"{KEY_PUBLISHED} payload is not bytes")
        assert len(board.entries()) == 2 and not board.active

    def test_an_evicted_identity_cannot_return_as_a_bytes_subclass(self, setup16):
        # Register, evict, register again, bid again: an identity is exact
        # bytes, so one that no set finds cannot take a second key for an
        # identity in the table, and the evicted bidder cannot bid again.
        pp, tk = setup16
        group, rng = pp.group, random.Random(35)
        board = BulletinBoard(pp)
        rm, am = RegistrationManager(board), AuctionManager(tk, board)
        alice, returner, bob = (keygen(pp, rng) for _ in range(3))
        for kp, name in ((alice, b"alice"), (bob, b"bob")):
            rm.register(kp.pub_key, name, make_registration(kp.x, kp.pub_key, name, group, rng))
        rm.evict(alice.pub_key)
        before = board.entries()
        proof = make_registration(returner.x, returner.pub_key, b"alice", group, rng)
        assert verify_registration(returner.pub_key, b"alice", proof, group)
        with pytest.raises(InvalidProof, match="^identity must be non-empty bytes$"):
            rm.register(returner.pub_key, Fresh(b"alice"), proof)
        assert board.entries() == before
        with pytest.raises(UnknownKey):
            rm.lookup_identity(returner.pub_key)
        am.open_auction(1)
        ring = Ring(group, [returner.pub_key, bob.pub_key])
        bid = BidderAgent(returner, board).place_bid(1, 0, 10, ring, rng)
        assert am.admit_bid(bid).reason == RING_KEY_INACTIVE
        assert board.entries() == before
        assert verify_transcript(render_transcript(board)).valid

    def test_unknown_key_lookup_and_evict(self, manager, tiny_params):
        rm, _ = manager
        group = tiny_params.group
        rng = random.Random(27)
        _, stranger = fresh_key(group, rng)
        with pytest.raises(UnknownKey):
            rm.lookup_identity(stranger)
        with pytest.raises(UnknownKey):
            rm.evict(stranger)

    def test_board_text_survives_full_history(self, manager, tiny_params):
        rm, board = manager
        group = tiny_params.group
        rng = random.Random(28)
        pub, _ = self.register(rm, group, rng, b"alice")
        self.register(rm, group, rng, b"bob")
        rm.evict(pub)
        transcript = render_transcript(board)
        assert read_transcript(transcript).records == board.entries()
        assert replayed_view(transcript) == board.active_view()
