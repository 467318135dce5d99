"""Scenario runner, transcript replay, cost reports, and the CLI."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringauction import cli, harness, registry
from ringauction import group as group_module
from ringauction.auction import parse_bid_payload
from ringauction.cli import COMMANDS, main
from ringauction.group import (
    _MAX_ELL_BITS,
    MAX_PRIME_BITS,
    OpCounter,
    PairingGroup,
    _random_point,
    decode_point_bytes,
    is_probable_prime,
)
from ringauction.harness import (
    HONEST,
    INVALID_SIGNATURE,
    REPUDIATOR,
    RING_ALL_ACTIVE,
    RING_RANDOM_SUBSET,
    SNIPER,
    STRATEGIES,
    ScenarioConfig,
    ScenarioError,
    TranscriptReport,
    efficiency_sweep,
    measure_signing,
    parse_scenario,
    read_transcript,
    render_transcript,
    run_scenario,
    verify_transcript,
)
from ringauction.registry import (
    BID_AFTER_WINNER,
    BID_MESSAGE_LEN,
    BID_POSTED,
    BID_REPOSTED,
    KEY_EVICTED,
    KEY_PUBLISHED,
    KEY_WAS_EVICTED,
    WINNER_ANNOUNCED,
    Bid,
    BidHead,
    BulletinBoard,
    MalformedBid,
    MalformedBoard,
    RegistrationProof,
    decode_bid_message,
    encode_bid_message,
    serialize_bid_payload,
)
from ringauction.ringsig import (
    MemberProof,
    PublicParams,
    Ring,
    RingSignature,
    Untraceable,
    keygen,
    public_params_from_json,
    sign,
    trace,
    verify,
)

from .support import eager_verify_transcript, verdict


FULL_CAST = ScenarioConfig(
    bidders=4, rounds=2, auctions=2, k=16, seed=7,
    strategies=(HONEST, INVALID_SIGNATURE, SNIPER, REPUDIATOR),
)


@pytest.fixture(scope="module")
def full_run():
    return run_scenario(FULL_CAST)


# Params headers whose JSON has a field of the wrong shape, a group that
# gen_group_params could not have built, or a bit hash whose k is not the
# number of hash generators, each as the (field, value) pairs it overwrites (a
# callable value is computed from the honest header), plus one header that is
# not hex and one nested past the JSON parser's recursion limit.
_OVER_CAP_N = (1 << _MAX_ELL_BITS - 1) + 1  # odd, and ell = 4n - 1 is 2 bits over
HOSTILE_FIELDS = {
    "hash": [("hash", "x")],
    "hash_gens": [("hash_gens", 5)],
    "g": [("g", 5)],
    "n": [("n", [1])],
    "ell": [("ell", float("inf"))],
    "k-4000000": [("hash", {"algorithm": "sha256", "k": 4_000_000})],
    "17-gens": [("hash_gens", lambda header: header["hash_gens"] + [header["hash_base"]])],
    "md5": [("hash", {"algorithm": "md5", "k": 16})],
    "no-gens": [("hash_gens", []), ("hash", {"algorithm": "sha256", "k": 0})],
    "even-n": [("n", lambda header: str(2 * int(header["n"])))],
    # n replaced by its smallest prime factor p makes r = (ell + 1)/p = q*r
    "r-over-limit": [("n", lambda header: str(_smallest_factor(int(header["n"]))))],
    "r-not-4k": [("n", "7"), ("ell", "13")],  # ell = 1 (mod 4), so r = 2
    "ell-over-cap": [("n", str(_OVER_CAP_N)), ("ell", str(4 * _OVER_CAP_N - 1))],
}
HOSTILE_HEADERS = (*HOSTILE_FIELDS, "not-hex", "nested")


def _smallest_factor(n: int) -> int:
    return next(d for d in range(3, n, 2) if n % d == 0)


def _with_hostile_header(transcript: bytes, name: str) -> bytes:
    lines = transcript.decode().splitlines()
    if name == "not-hex":
        lines[0] = "params zz"
    elif name == "nested":
        lines[0] = "params " + ("[" * 100_000 + "]" * 100_000).encode().hex()
    else:
        params = json.loads(bytes.fromhex(lines[0].split(" ", 1)[1]))
        for field, value in HOSTILE_FIELDS[name]:
            params[field] = value(params) if callable(value) else value
        lines[0] = "params " + json.dumps(params).encode().hex()
    return ("\n".join(lines) + "\n").encode()


def _even_n_transcript() -> bytes:
    """A header-only transcript over n = 4 and the Mersenne prime
    ell = 2^127 - 1 (ell = 3 mod 4 and n divides ell + 1), every point the
    same point, with one hash generator."""
    point = _random_point(2**127 - 1, random.Random(0))
    group = PairingGroup(4, 2**127 - 1, point, point)
    pp = PublicParams(group, point, point, point, point, (point,))
    return render_transcript(BulletinBoard(pp))


def _composite_ell_transcript() -> bytes:
    """A transcript over n = 35 and ell = 279 = 9 * 31, which passes every
    check of the group but the primality of ell: three keys, one bid and
    its winner record, every point one of the few that decode mod 279.  The
    records are written as text: the board's key check is exact only for a
    prime ell."""
    ell = 279
    g, h, *keys = (decode_point_bytes(x.to_bytes(2, "big") + b"\x02", ell)
                   for x in (90, 110, 155, 234, 245))
    group = PairingGroup(35, ell, g, h)
    signature = RingSignature(g, h, tuple(MemberProof(g, h) for _ in keys))
    payload = serialize_bid_payload(Bid(0, 0, 5, Ring(group, keys), signature))
    records = [(KEY_PUBLISHED, group.encode_point(key)) for key in keys]
    records += [(BID_POSTED, payload), (WINNER_ANNOUNCED, (3).to_bytes(8, "big") + payload)]
    pp = PublicParams(group, g, h, g, h, (g,))
    header = render_transcript(BulletinBoard(pp))
    return header + "".join(f"{seq} {kind} {data.hex()}\n"
                            for seq, (kind, data) in enumerate(records)).encode()


# ---------------------------------------------------------------------------
# scenario parsing

class TestParseScenario:
    def test_full_file(self):
        text = """
        # narrative comment
        p_bits = 16
        q_bits = 16
        k = 12
        seed = 5
        bidders = 4
        rounds = 2
        auctions = 2
        strategy.1 = sniper
        strategy.3 = repudiator
        ring_policy = random-subset:3
        monotonic_prices = off
        """
        config = parse_scenario(text)
        assert config.k == 12
        assert config.bidders == 4
        assert config.strategies == (HONEST, SNIPER, HONEST, REPUDIATOR)
        assert config.ring_size == 3
        assert config.monotonic is False

    def test_defaults(self):
        config = parse_scenario("")
        assert config == ScenarioConfig()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_scenario("bidders = 3\ncolor = green\n")

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            parse_scenario("strategy.0 = bribery\n")

    def test_strategy_index_out_of_range(self):
        with pytest.raises(ValueError):
            parse_scenario("bidders = 2\nstrategy.5 = sniper\n")

    def test_monotonic_must_be_on_or_off(self):
        with pytest.raises(ValueError):
            parse_scenario("monotonic_prices = maybe\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError):
            parse_scenario("bidders 3\n")

    @pytest.mark.parametrize("line", ("p_bits = x", "strategy.x = sniper",
                                      "ring_policy = random-subset:two"))
    def test_bad_integer_names_its_line(self, line):
        with pytest.raises(ValueError, match=r"^line 2: invalid literal for int\(\)"):
            parse_scenario(f"bidders = 3\n{line}\n")

    def test_ring_policy_sets_the_ring_size(self):
        assert parse_scenario("ring_policy = all-active\n").ring_size is None
        assert parse_scenario("ring_policy = random-subset:2\n").ring_size == 2
        for value in ("random-subset", "everyone", "random-subset:two"):
            with pytest.raises(ValueError):
                parse_scenario(f"ring_policy = {value}\n")

    def test_validate_catches_bad_shapes(self):
        with pytest.raises(ValueError):
            ScenarioConfig(bidders=0).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(rounds=0).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(strategies=("sniper",) * 5, bidders=4).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(ring_size=0).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(ring_size=9).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(p_bits=4).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(q_bits=7).validate()
        with pytest.raises(ValueError, match="k must be at least 1"):
            ScenarioConfig(k=0).validate()


# ---------------------------------------------------------------------------
# deterministic runs

class TestDeterminism:
    def test_same_seed_same_transcript(self, full_run):
        again = run_scenario(FULL_CAST)
        assert again.transcript == full_run.transcript
        assert again.winners == full_run.winners
        assert again.evicted == full_run.evicted

    def test_counting_does_not_change_behaviour(self, full_run):
        uncounted = run_scenario(FULL_CAST, counted=False)
        assert uncounted.transcript == full_run.transcript
        assert uncounted.report.phases == {}
        assert full_run.report.phase("bidding")  # counted run has data

    def test_different_seed_different_transcript(self, full_run):
        other = run_scenario(replace(FULL_CAST, seed=8))
        assert other.transcript != full_run.transcript

    def test_random_subset_rings_are_reproducible(self):
        config = replace(FULL_CAST, ring_size=2)
        assert run_scenario(config).transcript == run_scenario(config).transcript


# ---------------------------------------------------------------------------
# scenario dynamics

class TestScenarioDynamics:
    def test_sniper_wins_both_auctions(self, full_run):
        # the sniper's final-round jump dwarfs every honest increment
        assert len(full_run.winners) == 2
        for summary in full_run.winners:
            assert summary.identity == b"bidder-2"

    def test_repudiator_is_evicted_once(self, full_run):
        assert len(full_run.evicted) == 1

    def test_evicted_bidder_stops_messaging(self, full_run):
        # honest and invalid-signature bidders: 2 bids per auction; sniper:
        # final round only, per auction; repudiator: evicted after the first
        # auction.  Each registers once.
        bids = {"bidder-0": 2 * 2, "bidder-1": 2 * 2, "bidder-2": 1 * 2, "bidder-3": 2}
        assert full_run.messages == Counter(
            {**{(name, "registration"): 1 for name in bids},
             **{(name, "bidding"): count for name, count in bids.items()}})

    def test_two_messages_per_bidder_per_simple_auction(self):
        # one registration message, one bidding message: nothing else is
        # needed for a complete auction pass
        result = run_scenario(ScenarioConfig(bidders=3, rounds=1, seed=3))
        assert result.messages == Counter(
            {(f"bidder-{i}", phase): 1 for i in range(3) for phase in ("registration", "bidding")})

    def test_invalid_signature_bids_are_posted_but_never_win(self, full_run):
        pp = full_run.public_params
        posted = _posted_bids(full_run.transcript, pp)
        invalid = [seq for seq, bid in posted.items()
                   if not verify(pp, bid.ring, bid.message_bytes(), bid.signature)]
        assert invalid  # the strategy did post unverifiable bids
        winning = {summary.seq for summary in full_run.winners}
        assert not winning & set(invalid)

    def test_winner_prices_follow_strategy_bumps(self, full_run):
        assert [w.price for w in full_run.winners] == [655, 603]

    def test_monotonic_off_changes_admissions(self):
        on = run_scenario(replace(FULL_CAST, auctions=1))
        off = run_scenario(replace(FULL_CAST, auctions=1, monotonic=False))
        assert len(_posted_bids(off.transcript, off.public_params)) >= len(
            _posted_bids(on.transcript, on.public_params))

    def test_degenerate_key_does_not_spoil_the_openings(self):
        # One bidder's key passes the trace test in every ring slot; both
        # auctions still open to the winner.
        config = ScenarioConfig(p_bits=8, q_bits=8, seed=41596247, bidders=2, auctions=2,
                                monotonic=False)
        result = run_scenario(config)
        assert [(w.auction_id, w.identity) for w in result.winners] == [
            (0, b"bidder-1"), (1, b"bidder-1")]

    def test_run_rejects_invalid_config(self):
        with pytest.raises(ValueError):
            run_scenario(ScenarioConfig(bidders=0))


def _refuse(exc):
    def refuse(*args, **kwargs):
        raise exc
    return refuse


# Each step the run wraps in a ScenarioError, made to fail: (name in
# harness, stand-in, the message's start).  A proof of (0, 0) fails the
# registrar's own check.
RUN_FAILURES = {
    "group": ("authority_setup", _refuse(ValueError("no prime")), "group generation failed: "),
    "registration": ("make_registration", lambda *args: RegistrationProof(0, 0),
                     "bidder-0: registration failed: possession proof failed"),
    "opening": ("open_protocol", _refuse(Untraceable("two slots match")),
                "auction 0: opening failed: two slots match"),
}


class TestScenarioErrors:
    @pytest.mark.parametrize("phase", RUN_FAILURES)
    def test_failure_names_its_phase(self, monkeypatch, phase):
        name, stand_in, message = RUN_FAILURES[phase]
        monkeypatch.setattr(harness, name, stand_in)
        with pytest.raises(ScenarioError) as failure:
            run_scenario(ScenarioConfig(bidders=2))
        assert str(failure.value).startswith(message)

    def test_cli_run_exits_one_and_writes_nothing(self, monkeypatch, tmp_path, capsys):
        name, stand_in, message = RUN_FAILURES["registration"]
        monkeypatch.setattr(harness, name, stand_in)
        scenario = tmp_path / "s.scenario"
        scenario.write_text("bidders = 2\n")
        out = tmp_path / "t.txt"
        assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 1
        assert f"scenario failed: {message}" in capsys.readouterr().err
        assert not out.exists()


def _renumbered(lines):
    """The header line, then each record with its position as its seq."""
    return [lines[0], *(f"{i} {line.split(' ', 1)[1]}" for i, line in enumerate(lines[1:]))]


def _posted_bids(transcript, pp):
    """seq -> parsed bid for every bid-posted line of a transcript."""
    posted = {}
    for line in transcript.decode().splitlines()[1:]:
        seq_text, kind, payload_hex = line.split(" ")
        if kind == "bid-posted":
            posted[int(seq_text)] = parse_bid_payload(pp.group, bytes.fromhex(payload_hex))
    return posted


# ---------------------------------------------------------------------------
# transcript replay

class TestVerifyTranscript:
    def test_clean_transcript_is_valid(self, full_run):
        report = verify_transcript(full_run.transcript)
        assert report.valid
        # the replayed board renders the transcript, which reads back as its records
        assert render_transcript(report.board) == full_run.transcript
        assert read_transcript(render_transcript(report.board)).records == report.board.entries()
        posted = list(_posted_bids(full_run.transcript, full_run.public_params))  # board order
        assert list(report.board.heads) == posted
        assert report.reason is None
        assert report.records == len(full_run.transcript.decode().splitlines()) - 1
        assert report.winners == tuple(
            (w.auction_id, w.seq, w.price) for w in full_run.winners)

    def test_empty_transcript_is_valid(self):
        # b"" is the one spelling of a transcript with no board: blank lines
        # are records that do not read.
        assert verify_transcript(b"")
        report = verify_transcript(b"  \n \n")
        assert (report.valid, report.failing_line, report.failing_seq, report.reason) == (
            False, 1, 0, "seq is not the record's position")

    def test_header_only_is_valid(self, full_run):
        header = full_run.transcript.decode().splitlines()[0]
        assert verify_transcript((header + "\n").encode())

    def test_header_params_roundtrip(self, full_run):
        header = full_run.transcript.decode().splitlines()[0]
        pp = public_params_from_json(bytes.fromhex(header.split(" ", 1)[1]))
        grp = pp.group
        assert grp.pair(pp.key_base, grp.h) == grp.pair(grp.g, pp.blind_base)

    def test_unverifiable_posted_bid_is_legitimate(self, full_run):
        # admission is lazy, so a posted bid with a broken signature is an
        # honest part of the public record — replay must not reject it
        pp = full_run.public_params
        posted = _posted_bids(full_run.transcript, pp)
        assert any(not verify(pp, b.ring, b.message_bytes(), b.signature)
                   for b in posted.values())
        assert verify_transcript(full_run.transcript).valid

    def test_signatures_decoded_only_for_verified_bids(self, full_run, monkeypatch):
        # A bid's signature points are decoded when the winner rule verifies
        # it, once each.  The report's board holds every posted bid as the
        # head the replay read, and reading one decodes nothing; the board
        # decodes any other bid on request.
        decoded, points = [], []
        real, decode = registry.deserialize_signature, group_module.decode_point_bytes
        monkeypatch.setattr(registry, "deserialize_signature",
                            lambda *args: decoded.append(args) or real(*args))
        monkeypatch.setattr(group_module, "decode_point_bytes",
                            lambda data, ell: points.append(data) or decode(data, ell))
        report = verify_transcript(full_run.transcript)
        said = Counter("not needed" if outcome == "not needed" else
                       "verified" if outcome == "verified" else "failed"
                       for _, outcome in report.outcomes)
        assert said["not needed"] and said["verified"]
        assert len(decoded) == said["verified"] + said["failed"]
        before = len(decoded), len(points)
        heads = dict(report.board.heads)
        assert (len(decoded), len(points)) == before
        monkeypatch.undo()
        assert all(isinstance(head, BidHead) for head in heads.values())
        unneeded = next(seq for seq, outcome in report.outcomes if outcome == "not needed")
        posted = _posted_bids(full_run.transcript, full_run.public_params)
        assert report.board.bid(unneeded) == posted[unneeded]

    def test_replay_decodes_only_the_bids_it_verifies(self, full_run, monkeypatch):
        # Every header point, then each distinct ring key of the bids the
        # winner rule verifies and their 2 + 2l signature points: nothing
        # else, and no Ring for a bid it does not need.
        decoded, rings = [], []
        decode, make_ring = group_module.decode_point_bytes, registry.Ring
        monkeypatch.setattr(group_module, "decode_point_bytes",
                            lambda data, ell: decoded.append(data) or decode(data, ell))
        monkeypatch.setattr(registry, "Ring",
                            lambda group, keys: rings.append(keys) or make_ring(group, keys))
        report = verify_transcript(full_run.transcript)
        monkeypatch.undo()
        assert report.valid
        posted = _posted_bids(full_run.transcript, full_run.public_params)
        checked = [posted[seq].ring for seq, outcome in report.outcomes
                   if outcome != "not needed"]
        assert len(checked) < len(posted)
        assert len(rings) == len(checked)
        header = 6 + len(full_run.public_params.hash_gens)  # g, h, 4 bases, the generators
        keys = {encoding for ring in checked for encoding in ring.encodings}
        assert len(keys) < sum(len(ring) for ring in checked)  # a key shared by two rings
        assert len(decoded) == header + len(keys) + sum(2 + 2 * len(ring) for ring in checked)

    def test_run_decodes_no_point(self, monkeypatch):
        def refuse(data, ell):
            raise AssertionError("the run decoded a point")

        monkeypatch.setattr(group_module, "decode_point_bytes", refuse)
        assert run_scenario(FULL_CAST, counted=False).winners

    def test_transcript_without_announcements_is_valid(self, full_run):
        lines = _renumbered([line for line in full_run.transcript.decode().splitlines()
                             if " winner-announced " not in line])
        data = ("\n".join(lines) + "\n").encode()
        report = verify_transcript(data)
        assert report.valid
        assert report.winners == ()
        posted = _posted_bids(data, full_run.public_params)
        assert report.outcomes == tuple((seq, "not needed") for seq in posted)

    def test_not_utf8_rejected(self):
        assert not verify_transcript(b"\xff\xfe\x00")

    def test_missing_header_rejected(self, full_run):
        body = full_run.transcript.decode().splitlines()[1:]
        report = verify_transcript(("\n".join(body) + "\n").encode())
        assert not report.valid
        assert report.reason == "missing params header"

    def test_corrupt_header_rejected(self, full_run):
        lines = full_run.transcript.decode().splitlines()
        lines[0] = "params deadbeef"
        report = verify_transcript(("\n".join(lines) + "\n").encode())
        assert not report.valid
        assert report.reason.startswith("bad params header")

    @pytest.mark.parametrize("name", HOSTILE_HEADERS)
    def test_hostile_header_rejected(self, full_run, name):
        report = verify_transcript(_with_hostile_header(full_run.transcript, name))
        assert not report.valid
        assert report.reason.startswith("bad params header")

    def test_over_cap_ell_rejected_before_the_primality_test(self, full_run, monkeypatch):
        def refuse(m):
            raise AssertionError(f"primality test reached at {m.bit_length()} bits")

        monkeypatch.setattr("ringauction.group.is_probable_prime", refuse)
        report = verify_transcript(_with_hostile_header(full_run.transcript, "ell-over-cap"))
        assert report.reason == f"bad params header: ell must have at most {_MAX_ELL_BITS} bits"

    def test_ell_primality_tested_once_per_setup_and_replay(self, full_run, monkeypatch):
        ell = full_run.public_params.group.ell
        tested = Counter()

        def counting(m):
            tested[m] += 1
            return is_probable_prime(m)

        monkeypatch.setattr("ringauction.group.is_probable_prime", counting)
        assert verify_transcript(full_run.transcript)
        assert tested[ell] == 1
        tested.clear()
        cast = replace(FULL_CAST, auctions=1, rounds=1)
        assert run_scenario(cast, counted=False).public_params.group.ell == ell
        assert tested[ell] == 1


@pytest.fixture(scope="module")
def run_and_lines():
    config = ScenarioConfig(
        bidders=3, rounds=2, auctions=1, k=16, seed=7,
        strategies=(HONEST, INVALID_SIGNATURE, REPUDIATOR),
    )
    result = run_scenario(config)
    lines = result.transcript.decode().splitlines()
    return result, lines


class TestTranscriptMutations:
    """Every locally detectable mutation is caught at its exact record."""

    def reverify(self, lines):
        data = ("\n".join(lines) + "\n").encode()
        report = verify_transcript(data)
        assert verdict(report) == verdict(eager_verify_transcript(data))
        return report

    def classify(self, result, lines):
        pp = result.public_params
        rows = {}
        for line in lines[1:]:
            seq_text, kind, payload_hex = line.split(" ")
            rows[int(seq_text)] = (kind, payload_hex)
        posted = _posted_bids(result.transcript, pp)
        verifying = {seq for seq, bid in posted.items()
                     if verify(pp, bid.ring, bid.message_bytes(), bid.signature)}
        return rows, posted, verifying

    def find_line(self, lines, kind, offset=0):
        hits = [i for i, line in enumerate(lines) if f" {kind} " in line]
        return hits[offset]

    def test_swapped_records_fail_on_sequence(self, run_and_lines):
        _, lines = run_and_lines
        mutated = list(lines)
        mutated[2], mutated[3] = mutated[3], mutated[2]
        report = self.reverify(mutated)
        assert not report.valid
        assert report.reason == "seq is not the record's position"
        assert report.failing_seq == int(lines[2].split(" ")[0])

    def test_unknown_kind_fails_at_its_seq(self, run_and_lines):
        _, lines = run_and_lines
        idx = self.find_line(lines, "bid-posted")
        seq, _, payload = lines[idx].split(" ")
        mutated = list(lines)
        mutated[idx] = f"{seq} bid-rumored {payload}"
        report = self.reverify(mutated)
        assert report.failing_seq == int(seq)
        assert "unknown record kind" in report.reason

    def test_non_hex_payload_fails_at_its_seq(self, run_and_lines):
        _, lines = run_and_lines
        idx = self.find_line(lines, "bid-posted")
        seq, kind, _ = lines[idx].split(" ")
        mutated = list(lines)
        mutated[idx] = f"{seq} {kind} zz"
        report = self.reverify(mutated)
        assert report.failing_seq == int(seq)
        assert report.reason == "payload is not lowercase hex"

    def test_unreadable_key_fails_at_its_seq(self, run_and_lines):
        result, lines = run_and_lines
        idx = self.find_line(lines, "key-published")
        seq, kind, payload = lines[idx].split(" ")
        mutated = list(lines)
        mutated[idx] = f"{seq} {kind} {'ff' * (len(payload) // 2)}"
        report = self.reverify(mutated)
        assert report.failing_seq == int(seq)
        assert "unreadable key" in report.reason

    def test_republished_key_fails_at_its_seq(self, run_and_lines):
        _, lines = run_and_lines
        first = self.find_line(lines, "key-published")
        second = self.find_line(lines, "key-published", offset=1)
        payload = lines[first].split(" ")[2]
        seq, kind, _ = lines[second].split(" ")
        mutated = list(lines)
        mutated[second] = f"{seq} {kind} {payload}"
        report = self.reverify(mutated)
        assert report.failing_seq == int(seq)
        assert report.reason == "key is already active"

    def test_republished_evicted_key_fails_at_its_seq(self, run_and_lines):
        # The evicted key published again as the next seq: no black list, the
        # board's own key-evicted record refuses it, live and on replay alike.
        result, lines = run_and_lines
        key = lines[self.find_line(lines, "key-evicted")].split(" ")[2]
        seq = len(lines) - 1
        report = self.reverify(lines + [f"{seq} key-published {key}"])
        assert (report.failing_seq, report.reason) == (seq, KEY_WAS_EVICTED)
        board = verify_transcript(result.transcript).board
        with pytest.raises(MalformedBoard) as live:
            board.append(KEY_PUBLISHED, bytes.fromhex(key))
        assert (live.value.seq, live.value.reason) == (seq, KEY_WAS_EVICTED)
        assert len(board.entries()) == seq and bytes.fromhex(key) not in board.active

    def test_eviction_of_inactive_key_fails(self, run_and_lines):
        result, lines = run_and_lines
        idx = self.find_line(lines, "key-evicted")
        seq, kind, payload = lines[idx].split(" ")
        zero = "00" * (len(payload) // 2)  # identity encoding is never active
        mutated = list(lines)
        mutated[idx] = f"{seq} {kind} {zero}"
        report = self.reverify(mutated)
        assert report.failing_seq == int(seq)
        assert report.reason == "evicting a key that is not active"

    def test_bid_with_foreign_ring_key_fails(self, run_and_lines):
        # remove one key publication and renumber: the first bid that rings
        # that key fails its active-view check
        result, lines = run_and_lines
        idx = self.find_line(lines, "key-published")
        mutated = _renumbered([line for i, line in enumerate(lines) if i != idx])
        report = self.reverify(mutated)
        first_bid_seq = int(lines[self.find_line(lines, "bid-posted")].split(" ")[0])
        assert not report.valid
        assert report.failing_seq == first_bid_seq - 1
        assert report.reason == "ring key not in the active view"

    def test_winner_referencing_unknown_bid_fails(self, run_and_lines):
        _, lines = run_and_lines
        idx = self.find_line(lines, "winner-announced")
        seq, kind, payload = lines[idx].split(" ")
        body = payload[16:]
        mutated = list(lines)
        mutated[idx] = f"{seq} {kind} {(9999).to_bytes(8, 'big').hex()}{body}"
        report = self.reverify(mutated)
        assert report.failing_seq == int(seq)
        assert report.reason == "winner references an unknown bid"

    def test_winner_with_mismatched_body_fails(self, run_and_lines):
        _, lines = run_and_lines
        idx = self.find_line(lines, "winner-announced")
        seq, kind, payload = lines[idx].split(" ")
        tampered = payload[:-2] + ("00" if payload[-2:] != "00" else "01")
        mutated = list(lines)
        mutated[idx] = f"{seq} {kind} {tampered}"
        report = self.reverify(mutated)
        assert report.failing_seq == int(seq)
        assert report.reason == "winner payload differs from the referenced bid"

    def test_winner_pointing_at_unverifiable_bid_fails(self, run_and_lines):
        result, lines = run_and_lines
        rows, posted, verifying = self.classify(result, lines)
        bad_seq = next(seq for seq in posted if seq not in verifying)
        idx = self.find_line(lines, "winner-announced")
        seq, kind, _ = lines[idx].split(" ")
        forged = bad_seq.to_bytes(8, "big").hex() + rows[bad_seq][1]
        mutated = list(lines)
        mutated[idx] = f"{seq} {kind} {forged}"
        report = self.reverify(mutated)
        assert report.failing_seq == int(seq)
        assert report.reason == "announced winner's signature does not verify"

    def test_winner_that_is_not_the_best_bid_fails(self, run_and_lines):
        result, lines = run_and_lines
        rows, posted, verifying = self.classify(result, lines)
        best = min(verifying, key=lambda s: (-posted[s].price, s))
        lesser = next(s for s in sorted(verifying) if s != best)
        idx = self.find_line(lines, "winner-announced")
        seq, kind, _ = lines[idx].split(" ")
        forged = lesser.to_bytes(8, "big").hex() + rows[lesser][1]
        mutated = list(lines)
        mutated[idx] = f"{seq} {kind} {forged}"
        report = self.reverify(mutated)
        assert report.failing_seq == int(seq)
        assert report.reason == "a better verifying bid exists than the announced winner"

    def test_winner_repointed_at_each_posted_bid(self, run_and_lines):
        # Lower, failing and equal bids alike: the lazy replay reaches the
        # eager verdict and verifies nothing ranked below the named bid.
        result, lines = run_and_lines
        rows, posted, verifying = self.classify(result, lines)
        idx = self.find_line(lines, "winner-announced")
        seq, kind, _ = lines[idx].split(" ")
        for target in posted:
            mutated = list(lines)
            mutated[idx] = f"{seq} {kind} {target.to_bytes(8, 'big').hex()}{rows[target][1]}"
            report = self.reverify(mutated)
            rank = (-posted[target].price, target)
            checked = {s for s, outcome in report.outcomes if outcome != "not needed"}
            assert target in checked
            assert all((-posted[s].price, s) <= rank for s in checked)
            assert report.valid == (target == result.winners[0].seq)

    def test_second_winner_at_failing_bid_reports_signature(self, run_and_lines):
        # The signature check comes before the already-announced check.
        result, lines = run_and_lines
        rows, posted, verifying = self.classify(result, lines)
        bad_seq = next(seq for seq in posted if seq not in verifying)
        last_seq = int(lines[-1].split(" ")[0])
        forged = bad_seq.to_bytes(8, "big").hex() + rows[bad_seq][1]
        report = self.reverify(list(lines) + [f"{last_seq + 1} winner-announced {forged}"])
        assert report.failing_seq == last_seq + 1
        assert report.reason == "announced winner's signature does not verify"
        assert (bad_seq, "failed: main-equation") in report.outcomes

    @pytest.mark.parametrize("fault, reason", [
        ("off-curve", "x coordinate is not on the curve"),
        ("odd-tag-at-zero", "y = 0 takes the even parity tag"),
    ])
    def test_undecodable_point_in_a_bid_never_verified(self, run_and_lines, fault, reason):
        # The replay leaves the signature points of such a bid encoded, yet
        # still refuses the bid at its seq, as the eager replay does.
        result, lines = run_and_lines
        outcomes = dict(verify_transcript(result.transcript).outcomes)
        unneeded = next(seq for seq, outcome in outcomes.items() if outcome == "not needed")
        group = result.public_params.group
        ell, width = group.ell, group.point_bytes
        if fault == "off-curve":
            x = next(x for x in range(1, ell) if pow(x ** 3 + x, (ell - 1) // 2, ell) == ell - 1)
            bad = x.to_bytes(group.coord_bytes, "big") + b"\x02"
        else:
            bad = bytes(group.coord_bytes) + b"\x03"
        idx = next(i for i, line in enumerate(lines) if line.startswith(f"{unneeded} "))
        seq, kind, payload_hex = lines[idx].split(" ")
        payload = bytes.fromhex(payload_hex)
        count = int.from_bytes(payload[BID_MESSAGE_LEN: BID_MESSAGE_LEN + 4], "big")
        at = BID_MESSAGE_LEN + 4 + (count + 1) * width  # s2, after the ring and s1
        mutated = list(lines)
        mutated[idx] = f"{seq} {kind} {(payload[:at] + bad + payload[at + width:]).hex()}"
        report = self.reverify(mutated)
        assert report.failing_seq == unneeded
        assert report.reason == f"unreadable bid: {reason}"

    def test_undecodable_inactive_ring_key_in_a_bid_never_verified(self, run_and_lines):
        # The key is checked before the active view, in both replays.
        result, lines = run_and_lines
        outcomes = dict(verify_transcript(result.transcript).outcomes)
        unneeded = next(seq for seq, outcome in outcomes.items() if outcome == "not needed")
        group = result.public_params.group
        ell, width = group.ell, group.point_bytes
        x = next(x for x in range(ell - 1, 0, -1)
                 if pow(x ** 3 + x, (ell - 1) // 2, ell) == ell - 1)
        bad = x.to_bytes(group.coord_bytes, "big") + b"\x02"
        idx = next(i for i, line in enumerate(lines) if line.startswith(f"{unneeded} "))
        seq, kind, payload_hex = lines[idx].split(" ")
        payload = bytes.fromhex(payload_hex)
        count = int.from_bytes(payload[BID_MESSAGE_LEN: BID_MESSAGE_LEN + 4], "big")
        at = BID_MESSAGE_LEN + 4 + (count - 1) * width  # the last ring key
        assert payload[at: at + width] < bad  # so the ring stays in canonical order
        mutated = list(lines)
        mutated[idx] = f"{seq} {kind} {(payload[:at] + bad + payload[at + width:]).hex()}"
        report = self.reverify(mutated)
        assert report.failing_seq == unneeded
        assert report.reason == "unreadable bid: x coordinate is not on the curve"

    def test_zero_price_bid_fails_at_its_seq(self, run_and_lines):
        # The price is read before any signature is, in both replays.
        _, lines = run_and_lines
        idx = self.find_line(lines, "bid-posted")
        seq, kind, payload_hex = lines[idx].split(" ")
        payload = bytes.fromhex(payload_hex)
        auction_id, round_no, _ = decode_bid_message(payload[:BID_MESSAGE_LEN])
        zero = encode_bid_message(auction_id, round_no, 0) + payload[BID_MESSAGE_LEN:]
        mutated = list(lines)
        mutated[idx] = f"{seq} {kind} {zero.hex()}"
        report = self.reverify(mutated)
        assert report.failing_seq == int(seq)
        assert report.reason == "non-positive price"

    def test_repeated_ring_key_fails_at_its_seq(self, run_and_lines):
        # The first ring key written twice keeps the ring in canonical order,
        # so only the distinctness check refuses it.
        result, lines = run_and_lines
        group = result.public_params.group
        width, start = group.point_bytes, BID_MESSAGE_LEN + 4
        idx = self.find_line(lines, "bid-posted")
        seq, kind, payload_hex = lines[idx].split(" ")
        payload = bytes.fromhex(payload_hex)
        assert int.from_bytes(payload[BID_MESSAGE_LEN: start], "big") >= 2
        repeated = payload[:start + width] + payload[start: start + width] + payload[start + 2 * width:]
        with pytest.raises(MalformedBid, match="^ring keys must be distinct$"):
            parse_bid_payload(group, repeated)
        mutated = list(lines)
        mutated[idx] = f"{seq} {kind} {repeated.hex()}"
        report = self.reverify(mutated)
        assert report.failing_seq == int(seq)
        assert report.reason == "unreadable bid: ring keys must be distinct"

    def test_duplicate_winner_announcement_fails(self, run_and_lines):
        _, lines = run_and_lines
        idx = self.find_line(lines, "winner-announced")
        _, kind, payload = lines[idx].split(" ")
        last_seq = int(lines[-1].split(" ")[0])
        mutated = list(lines) + [f"{last_seq + 1} {kind} {payload}"]
        report = self.reverify(mutated)
        assert report.failing_seq == last_seq + 1
        assert report.reason == "auction already has an announced winner"

    def test_reposted_bid_fails_at_its_seq(self):
        # A payload holds its auction id, so a copy is a repeat in the same
        # auction: the board refuses it on replay, as the manager does live.
        # Every ring key here stays active, so only that rule refuses it.
        result = run_scenario(ScenarioConfig(seed=7), counted=False)
        lines = result.transcript.decode().splitlines()
        _, kind, payload = lines[self.find_line(lines, "bid-posted")].split(" ")
        last_seq = int(lines[-1].split(" ")[0])
        report = self.reverify(list(lines) + [f"{last_seq + 1} {kind} {payload}"])
        assert (report.valid, report.failing_seq) == (False, last_seq + 1)
        assert report.reason == BID_REPOSTED == "bid payload already posted"

    def test_bid_after_its_auctions_winner_fails_at_its_seq(self):
        # A bid for auction 0 after its winner record, signed by a key
        # published just before it, verifies and outbids the winner: the board
        # refuses it on replay and live, as the manager refuses it as
        # auction-closed, and the announced winner stays the leader.
        result = run_scenario(ScenarioConfig(bidders=3, seed=7), counted=False)
        pp, lines = result.public_params, result.transcript.decode().splitlines()
        winner = int(lines[-1].split(" ")[0])
        assert lines[-1].split(" ")[1] == WINNER_ANNOUNCED
        rng = random.Random(38)
        late = keygen(pp, rng)
        decoy = pp.group.decode_point(bytes.fromhex(lines[1].split(" ")[2]))
        ring = Ring(pp.group, [late.pub_key, decoy])
        message = encode_bid_message(0, 0, 10**6)
        bid = Bid(0, 0, 10**6, ring, sign(pp, ring, late, message, rng))
        assert verify(pp, ring, message, bid.signature)
        lines += [f"{winner + 1} {KEY_PUBLISHED} {pp.group.encode_point(late.pub_key).hex()}",
                  f"{winner + 2} {BID_POSTED} {serialize_bid_payload(bid).hex()}"]
        report = self.reverify(lines)
        assert (report.valid, report.failing_seq) == (False, winner + 2)
        assert report.reason == BID_AFTER_WINNER == "bid posted after its auction's winner"
        board = self.reverify(lines[:-1]).board
        with pytest.raises(MalformedBoard) as refused:
            board.append(BID_POSTED, bid)
        assert (refused.value.seq, refused.value.reason) == (winner + 2, BID_AFTER_WINNER)
        assert board.leader(0) == board.winners[0][1]  # the announced winner

    def test_short_winner_record_fails(self, run_and_lines):
        _, lines = run_and_lines
        idx = self.find_line(lines, "winner-announced")
        seq, kind, _ = lines[idx].split(" ")
        mutated = list(lines)
        mutated[idx] = f"{seq} {kind} 0011"
        report = self.reverify(mutated)
        assert report.failing_seq == int(seq)
        assert report.reason == "winner record too short"

    def test_malformed_record_shape_fails(self, run_and_lines):
        _, lines = run_and_lines
        mutated = list(lines) + ["toofew fields"]
        report = self.reverify(mutated)
        assert not report.valid
        assert report.reason == "record is not 'seq kind payload'"

    def test_non_integer_seq_fails(self, run_and_lines):
        _, lines = run_and_lines
        mutated = list(lines) + ["x key-evicted 00"]
        report = self.reverify(mutated)
        assert not report.valid
        assert (report.failing_seq, report.reason) == (
            len(lines) - 1, "seq is not the record's position")


# Point defects, each written at a key record, at a posted bid's first ring
# key (the ring re-sorted, so only the key check can refuse it) and at its s2;
# a key record also takes the identity and the point (0, 0), which decode.
def _defect(name: str, group) -> bytes:
    ell, width = group.ell, group.coord_bytes
    x = next(x for x in range(1, ell) if pow(x ** 3 + x, (ell - 1) // 2, ell) == ell - 1)
    return {
        "bad-tag": (1).to_bytes(width, "big") + b"\x05",
        "x-at-least-ell": ell.to_bytes(width, "big") + b"\x02",
        "x-off-curve": x.to_bytes(width, "big") + b"\x02",
        "odd-tag-at-zero": bytes(width) + b"\x03",
        "nonzero-identity": (1).to_bytes(width, "big") + b"\x00",
        "identity": bytes(width + 1),
        "order-two": bytes(width) + b"\x02",
    }[name]


def _bid_fault(name: str, group, payload: bytes, lines) -> bytes:
    width, start = group.point_bytes, BID_MESSAGE_LEN + 4
    count = int.from_bytes(payload[BID_MESSAGE_LEN: start], "big")
    keys = [payload[at: at + width] for at in range(start, start + count * width, width)]
    signature = payload[start + count * width:]
    head = payload[:start]
    ring = lambda keys: head + b"".join(keys) + signature
    if name.startswith("ring-key "):
        return ring(sorted([_defect(name[9:], group), *keys[1:]]))
    if name.startswith("s2 "):
        return head + b"".join(keys) + signature[:width] + _defect(name[3:], group) + (
            signature[2 * width:])
    if name == "wrong-point-length":
        return payload[:-1]
    if name == "unsorted-ring":
        return ring([keys[1], keys[0], *keys[2:]])
    if name == "repeated-ring-key":
        return ring([keys[0], keys[0], *keys[2:]])
    if name == "key-not-on-board":
        published = {line.split(" ")[2] for line in lines if " key-published " in line}
        stranger = next(enc for enc in (group.encode_point(group.mul(k, group.g))
                                        for k in range(2, 99)) if enc.hex() not in published)
        return ring(sorted([stranger, *keys[1:]]))
    if name == "empty-ring":
        return payload[:BID_MESSAGE_LEN] + bytes(4) + payload[start:]
    if name == "short-payload":
        return payload[:start - 1]
    if name == "after-winner":  # its price raised by one, so no repeat
        price = int.from_bytes(payload[BID_MESSAGE_LEN - 8:BID_MESSAGE_LEN], "big") + 1
        return payload[:BID_MESSAGE_LEN - 8] + price.to_bytes(8, "big") + payload[BID_MESSAGE_LEN:]
    assert name == "zero-price"
    return payload[:BID_MESSAGE_LEN - 8] + bytes(8) + payload[BID_MESSAGE_LEN:]


# (record kind, fault) -> the replay's (valid, failing_seq, reason), pinned so
# that a faster reader keeps every verdict, seq and reason; each fault is made
# in the first record of its kind of the ``run_and_lines`` transcript.
REASON_TABLE = {
    ("key-published", "bad-tag"): (False, 0, "unreadable key: unknown parity tag 0x05"),
    ("key-published", "x-at-least-ell"): (False, 0, "unreadable key: x coordinate out of range"),
    ("key-published", "x-off-curve"):
        (False, 0, "unreadable key: x coordinate is not on the curve"),
    ("key-published", "odd-tag-at-zero"):
        (False, 0, "unreadable key: y = 0 takes the even parity tag"),
    ("key-published", "nonzero-identity"):
        (False, 0, "unreadable key: identity encoding must be all zero"),
    ("key-published", "identity"): (False, 0, "identity point published as a key"),
    ("key-published", "order-two"): (False, 0, "order-2 point published as a key"),
    ("key-published", "wrong-point-length"):
        (False, 0, "unreadable key: wrong point encoding length"),
    ("bid-posted", "ring-key bad-tag"): (False, 3, "unreadable bid: unknown parity tag 0x05"),
    ("bid-posted", "ring-key x-at-least-ell"):
        (False, 3, "unreadable bid: x coordinate out of range"),
    ("bid-posted", "ring-key x-off-curve"):
        (False, 3, "unreadable bid: x coordinate is not on the curve"),
    ("bid-posted", "ring-key odd-tag-at-zero"):
        (False, 3, "unreadable bid: y = 0 takes the even parity tag"),
    ("bid-posted", "ring-key nonzero-identity"):
        (False, 3, "unreadable bid: identity encoding must be all zero"),
    ("bid-posted", "s2 bad-tag"): (False, 3, "unreadable bid: unknown parity tag 0x05"),
    ("bid-posted", "s2 x-at-least-ell"): (False, 3, "unreadable bid: x coordinate out of range"),
    ("bid-posted", "s2 x-off-curve"):
        (False, 3, "unreadable bid: x coordinate is not on the curve"),
    ("bid-posted", "s2 odd-tag-at-zero"):
        (False, 3, "unreadable bid: y = 0 takes the even parity tag"),
    ("bid-posted", "s2 nonzero-identity"):
        (False, 3, "unreadable bid: identity encoding must be all zero"),
    ("bid-posted", "wrong-point-length"):
        (False, 3, "unreadable bid: payload length does not match ring size"),
    ("bid-posted", "unsorted-ring"):
        (False, 3, "unreadable bid: ring keys are not in canonical order"),
    ("bid-posted", "repeated-ring-key"): (False, 3, "unreadable bid: ring keys must be distinct"),
    ("bid-posted", "key-not-on-board"): (False, 3, "ring key not in the active view"),
    ("bid-posted", "empty-ring"): (False, 3, "unreadable bid: empty ring"),
    ("bid-posted", "short-payload"): (False, 3, "unreadable bid: payload too short"),
    ("bid-posted", "zero-price"): (False, 3, "non-positive price"),
    ("bid-posted", "after-winner"): (False, 11, "bid posted after its auction's winner"),
}


@pytest.mark.parametrize("kind, fault", REASON_TABLE)
def test_reason_table(run_and_lines, kind, fault):
    result, lines = run_and_lines
    group = result.public_params.group
    idx = next(i for i, line in enumerate(lines) if f" {kind} " in line)
    seq, _, payload_hex = lines[idx].split(" ")
    payload = bytes.fromhex(payload_hex)
    if kind == "bid-posted":
        payload = _bid_fault(fault, group, payload, lines)
    else:
        payload = payload[:-1] if fault == "wrong-point-length" else _defect(fault, group)
    mutated = list(lines)
    if fault == "after-winner":  # posted as the next seq, past the winner record
        mutated.append(f"{len(lines) - 1} {kind} {payload.hex()}")
    else:
        mutated[idx] = f"{seq} {kind} {payload.hex()}"
    data = ("\n".join(mutated) + "\n").encode()
    report = verify_transcript(data)
    assert verdict(report) == verdict(eager_verify_transcript(data))
    assert (report.valid, report.failing_seq, report.reason) == REASON_TABLE[kind, fault]


def _text(header: str, records, end: str = "\n") -> str:
    return "".join(line + end for line in (header, *records))


def _respelled(header: str, records, edit=dict, **dumps) -> str:
    """The transcript with its header JSON edited, then written with ``dumps``
    (by default as ``public_params_to_json`` writes it)."""
    fields = edit(json.loads(bytes.fromhex(header.split(" ", 1)[1])))
    dumps = dumps or {"separators": (",", ":")}
    return _text("params " + json.dumps(fields, sort_keys=True, **dumps).encode().hex(), records)


# Byte strings other than the canonical one for the same board, four in the
# header's JSON and four in the line ends: the replay refuses each.
SPELLINGS = {
    "n-padded": lambda header, records: _respelled(
        header, records, lambda fields: {**fields, "n": f"  {fields['n']}  "}),
    "g-uppercase": lambda header, records: _respelled(
        header, records, lambda fields: {**fields, "g": fields["g"].upper()}),
    "indented-json": lambda header, records: _respelled(header, records, indent=2),
    "extra-field": lambda header, records: _respelled(
        header, records, lambda fields: {**fields, "extra": 1}),
    "crlf": lambda header, records: _text(header, records, "\r\n"),
    "form-feeds": lambda header, records: _text(header, records, "\f"),
    "no-final-newline": lambda header, records: _text(header, records)[:-1],
    "leading-blank-lines": lambda header, records: "\n\n" + _text(header, records),
}


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_one_spelling_per_transcript(run_and_lines, spelling):
    _, (header, *records) = run_and_lines
    canonical = _text(header, records)
    assert _respelled(header, records) == canonical
    respelled = SPELLINGS[spelling](header, records)
    assert respelled != canonical
    assert verify_transcript(canonical.encode())
    assert not verify_transcript(respelled.encode())


# Transcripts cut at or around the header, each made from the header line and
# the record lines of ``run_and_lines``.
HEADER_EDGES = {
    "empty": lambda header, records: b"",
    "newline": lambda header, records: b"\n",
    "params-zz": lambda header, records: b"params zz",
    "header-line": lambda header, records: (header + "\n").encode(),
    "header-no-newline": lambda header, records: header.encode(),
    "headerless": lambda header, records: "".join(line + "\n" for line in records).encode(),
    "not-utf8": lambda header, records: b"\xff",
}
NOT_AS_WRITTEN = "params header is not as render_transcript writes it"
# The replay's (valid, failing_seq, failing_line, reason) on each respelling
# and each header edge, pinned so that a rewrite of the reader keeps which
# fault it reports first and where.
READER_VERDICTS = {
    "n-padded": (False, None, 1, NOT_AS_WRITTEN),
    "g-uppercase": (False, None, 1, NOT_AS_WRITTEN),
    "indented-json": (False, None, 1, NOT_AS_WRITTEN),
    "extra-field": (False, None, 1, NOT_AS_WRITTEN),
    "crlf": (False, 0, 2, "payload is not lowercase hex"),
    "form-feeds": (False, None, None, "bad params header: non-hexadecimal number found in "
                   "fromhex() arg at position 962"),
    "no-final-newline": (False, None, 12, "line does not end with a newline"),
    "leading-blank-lines": (False, None, 1, "record is not 'seq kind payload'"),
    "empty": (True, None, None, None),
    "newline": (False, None, 1, "record is not 'seq kind payload'"),
    "params-zz": (False, None, None, "bad params header: non-hexadecimal number found in "
                  "fromhex() arg at position 0"),
    "header-line": (True, None, None, None),
    "header-no-newline": (False, None, 1, NOT_AS_WRITTEN),
    "headerless": (False, None, None, "missing params header"),
    "not-utf8": (False, None, None, "transcript is not utf-8 text"),
}


@pytest.mark.parametrize("name", READER_VERDICTS)
def test_reader_verdicts(run_and_lines, name):
    _, (header, *records) = run_and_lines
    if name in SPELLINGS:
        data = SPELLINGS[name](header, records).encode()
    else:
        data = HEADER_EDGES[name](header, records)
    report = verify_transcript(data)
    assert (report.valid, report.failing_seq, report.failing_line,
            report.reason) == READER_VERDICTS[name]


def test_replay_writes_every_record_through_append(run_and_lines, monkeypatch):
    # One write path: the replay posts each record as a live board would.
    result, (_, *records) = run_and_lines
    posted = []
    append = BulletinBoard.append

    def counted(board, kind, payload):
        posted.append((kind, payload.hex()))
        return append(board, kind, payload)

    monkeypatch.setattr(BulletinBoard, "append", counted)
    report = verify_transcript(result.transcript)
    assert report.valid and report.records == len(records)
    assert posted == [tuple(record.split(" ")[1:]) for record in records]


# One bad record per structural fault, made from a posted bid's line.
STRUCTURAL_FAULTS = {
    "shape": lambda seq, kind, payload: f"{seq} {kind} {payload} extra",
    "seq-number": lambda seq, kind, payload: f"x{seq} {kind} {payload}",
    "seq-order": lambda seq, kind, payload: f"{int(seq) - 1} {kind} {payload}",
    "kind": lambda seq, kind, payload: f"{seq} bid-rumored {payload}",
    "hex": lambda seq, kind, payload: f"{seq} {kind} zz",
}


@pytest.mark.parametrize("fault", STRUCTURAL_FAULTS)
def test_one_parser_one_answer(run_and_lines, tmp_path, capsys, fault):
    """The transcript reader, the replay and the trace command agree on a bad record."""
    result, lines = run_and_lines
    idx = next(i for i, line in enumerate(lines) if " bid-posted " in line)
    seq, kind, payload = lines[idx].split(" ")
    mutated = list(lines)
    mutated[idx] = STRUCTURAL_FAULTS[fault](seq, kind, payload)
    data = ("\n".join(mutated) + "\n").encode()
    with pytest.raises(MalformedBoard) as caught:
        read_transcript(data)
    assert caught.value.line == idx + 1  # line numbers count the header
    report = verify_transcript(data)
    assert not report.valid
    assert (report.reason, report.failing_seq, report.failing_line) == (
        caught.value.reason, caught.value.seq, caught.value.line)

    transcript = tmp_path / "t.txt"
    transcript.write_text("\n".join(mutated) + "\n")
    tracekey = tmp_path / "k.txt"
    tracekey.write_text(f"{result.trace_key.q}\n")
    assert main(["trace", "--transcript", str(transcript), "--seq", seq,
                 "--tracekey", str(tracekey)]) == 2
    # line numbers count the header, so they match the transcript file
    assert f"line {idx + 1}: {report.reason}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def hostile_base(tmp_path_factory):
    """A small real transcript (three keys, three bids of which two verify,
    a winner, an eviction) and the files the CLI needs to read it."""
    config = ScenarioConfig(bidders=3, rounds=1, auctions=1, k=8, seed=11,
                            strategies=(HONEST, INVALID_SIGNATURE, REPUDIATOR))
    result = run_scenario(config, counted=False)
    workdir = tmp_path_factory.mktemp("hostile")
    tracekey = workdir / "k.txt"
    tracekey.write_text(f"{result.trace_key.q}\n")
    return result.transcript.decode().splitlines(), workdir / "t.txt", tracekey


def _mutate(data, lines: list[str]) -> list[str]:
    """Apply one to three hostile edits: flip a character to a hex digit,
    truncate a payload, swap or drop lines, edit the params header, point
    a winner record (the last one, or a new one) at any posted bid, or
    append a key publication or eviction of a key already on the board.
    A dropped record's successors move up a seq, and an appended record
    takes the next seq, so that each edit reaches the board's fold."""
    hex_digits = st.sampled_from("0123456789abcdef")
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(
            ("flip", "truncate", "swap", "drop", "header", "winner", "key")))
        i = data.draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        if op == "flip":
            j = data.draw(st.integers(0, len(line) - 1))
            lines[i] = line[:j] + data.draw(hex_digits) + line[j + 1:]
        elif op == "truncate":
            head, _, payload = line.rpartition(" ")
            lines[i] = f"{head} {payload[:data.draw(st.integers(0, len(payload)))]}"
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "drop":
            del lines[i]
            if line.split(" ")[0].isdigit():  # a record
                for k in range(i, len(lines)):
                    seq, _, rest = lines[k].partition(" ")
                    if seq.isdigit():
                        lines[k] = f"{int(seq) - 1} {rest}"
        elif op == "header":
            head = lines[0]
            j = data.draw(st.integers(len("params "), len(head)))
            if data.draw(st.booleans()):
                lines[0] = head[:j]
            else:
                lines[0] = head[:j] + data.draw(hex_digits) + head[j + 1:]
        elif op == "winner":
            posted = [fields for fields in (text.split(" ") for text in lines)
                      if len(fields) == 3 and fields[1] == "bid-posted" and fields[0].isdigit()]
            if not posted:
                continue
            seq, _, payload = data.draw(st.sampled_from(posted))
            record = f"winner-announced {int(seq).to_bytes(8, 'big').hex()}{payload}"
            at = [k for k, text in enumerate(lines) if " winner-announced " in text]
            if at and data.draw(st.booleans()):
                lines[at[-1]] = f"{lines[at[-1]].split(' ')[0]} {record}"
            else:
                lines.append(f"{len(lines) - 1} {record}")  # the header is line 0
        elif op == "key":
            keys = [fields[2] for fields in (text.split(" ") for text in lines)
                    if len(fields) == 3 and fields[1] == "key-published"]
            if not keys:
                continue
            kind = data.draw(st.sampled_from(("key-published", "key-evicted")))
            lines.append(f"{len(lines) - 1} {kind} {data.draw(st.sampled_from(keys))}")
    return lines


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_hostile_transcripts_never_crash(hostile_base, data):
    lines, transcript, tracekey = hostile_base
    mutated = "\n".join(_mutate(data, list(lines))) + "\n"
    report = verify_transcript(mutated.encode())
    assert isinstance(report, TranscriptReport)
    assert verdict(report) == verdict(eager_verify_transcript(mutated.encode()))
    if report.valid:  # one spelling per board
        assert render_transcript(report.board) == mutated.encode()
    transcript.write_text(mutated)
    assert main(["verify", "--transcript", str(transcript)]) == (0 if report.valid else 1)
    seq = data.draw(st.sampled_from([line.split(" ")[0] for line in lines
                                     if " bid-posted " in line]))
    code = main(["trace", "--transcript", str(transcript), "--seq", seq,
                 "--tracekey", str(tracekey)])
    assert code in ((0, 1, 2) if report.valid else (2,))


@st.composite
def scenario_configs(draw):
    bidders = draw(st.integers(2, 8))
    ring_policy = draw(st.sampled_from((RING_ALL_ACTIVE, RING_RANDOM_SUBSET)))
    return ScenarioConfig(
        p_bits=draw(st.integers(8, 16)),
        q_bits=draw(st.integers(8, 16)),
        seed=draw(st.integers(0, 2**32)),
        bidders=bidders,
        rounds=draw(st.integers(1, 3)),
        auctions=draw(st.integers(1, 3)),
        strategies=tuple(draw(st.lists(st.sampled_from(STRATEGIES), max_size=bidders))),
        ring_size=draw(st.integers(1, bidders)) if ring_policy == RING_RANDOM_SUBSET else None,
        monotonic=draw(st.booleans()),
    )


@settings(max_examples=20, deadline=None, derandomize=True)
@given(config=scenario_configs())
# one key here passes the trace test in every ring slot; the openings still name the signers
@example(config=ScenarioConfig(p_bits=8, q_bits=8, seed=41596247, bidders=2, auctions=2,
                               monotonic=False))
def test_random_scenarios_three_verdicts_agree(tmp_path_factory, config):
    """A run, the lazy replay and the eager replay agree on every scenario
    that completes, and the trace command opens each winner to its key."""
    try:
        result = run_scenario(config)
    except ScenarioError:
        return
    report = verify_transcript(result.transcript)
    assert report.valid, report.reason
    assert report.winners == tuple((w.auction_id, w.seq, w.price) for w in result.winners)
    # The run's evictions are its transcript's, in order.
    records = read_transcript(result.transcript).records
    assert result.evicted == tuple(payload.hex() for kind, payload in records
                                   if kind == KEY_EVICTED)
    assert verdict(eager_verify_transcript(result.transcript)) == verdict(report)
    assert run_scenario(config, counted=False).transcript == result.transcript

    workdir = tmp_path_factory.mktemp("scenario")
    transcript = workdir / "t.txt"
    transcript.write_bytes(result.transcript)
    tracekey = workdir / "k.txt"
    tracekey.write_text(f"{result.trace_key.q}\n")
    for win in result.winners:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["trace", "--transcript", str(transcript), "--seq", str(win.seq),
                         "--tracekey", str(tracekey)])
        assert code == 0
        assert out.getvalue().strip().endswith(f": {win.pub_key_hex}")


# ---------------------------------------------------------------------------
# cost accounting

class TestEfficiency:
    def test_a_replay_recodes_n_once(self, full_run, monkeypatch):
        # n's signed steps are recoded as the replay's group is made and
        # kept: every variable loop and every stored-line build reads them.
        recoded, loops = [], []
        recode, miller = group_module._double_and_add, group_module._miller
        monkeypatch.setattr(group_module, "_double_and_add", lambda k: recoded.append(k) or recode(k))
        monkeypatch.setattr(group_module, "_miller", lambda *a: loops.append(a) or miller(*a))
        assert verify_transcript(full_run.transcript).valid
        assert recoded == [full_run.public_params.group.n]
        assert len(loops) >= 2

    def test_signing_exponentiations_grow_linearly(self):
        counts = {l: measure_signing(l, 16).phase("bidding")["exp"]
                  for l in (1, 2, 4, 8)}
        assert counts[8] - counts[4] == 4 * (counts[2] - counts[1])
        assert counts[2] - counts[1] == 2  # two per added ring member

    def test_exact_exponentiation_count(self):
        # commitment + proof per member, then the two signature points and
        # the aggregate blinding term: 2l + 3 in total
        for l in (1, 3, 6):
            report = measure_signing(l, 16)
            assert report.phase("bidding")["exp"] == 2 * l + 3

    def test_one_message_hash_per_signing(self):
        for l in (1, 4):
            assert measure_signing(l, 16).phase("bidding")["hash"] == 1

    def test_signing_needs_no_pairing(self):
        assert "pair" not in measure_signing(4, 16).phase("bidding")

    def test_report_within_nominal_budget(self):
        summary = efficiency_sweep(ring_sizes=(1, 4), k=16)
        budget = 5 * 4 + 16 + 2
        assert summary.rows[4] == measure_signing(4, 16).phase("bidding")
        assert summary.rows[4]["exp"] <= budget
        assert summary.all_within_budget
        assert f"\n  4 {summary.rows[4]['exp']:>6} {budget:>7} " in summary.table

    def test_slope_needs_one_integer_step(self, monkeypatch):
        # Steps of 2 and then 3 per added member are no integer growth rate,
        # and a single ring size gives no step at all.
        exps = {1: 10, 2: 12, 4: 18}

        def measure(l, k):
            counter = OpCounter()
            counter.phases["bidding"] = {"exp": exps[l], "hash": 1}
            return counter

        monkeypatch.setattr(harness, "measure_signing", measure)
        summary = efficiency_sweep(ring_sizes=(1, 2, 4), k=16)
        assert (summary.slope, summary.slope_ok) == (8 / 3, False)
        with pytest.raises(ValueError):
            efficiency_sweep(ring_sizes=(4, 4), k=16)

    def test_sweep_summary(self):
        summary = efficiency_sweep(ring_sizes=(1, 2, 4, 8), k=160)
        assert summary.slope_ok
        assert round(summary.slope) == 2
        assert summary.all_within_budget
        assert summary.one_hash_per_signing
        assert "upper bound" in summary.table
        assert f"{5 * 8 + 160 + 2}" in summary.table  # the l=8 budget figure

    def test_scenario_reports_all_phases(self, full_run):
        phases = set(full_run.report.phases)
        assert phases == {"initial", "registration", "bidding", "winner", "open"}
        assert full_run.report.phase("winner")["pair"] > 0

    def test_phase_view_is_a_copy(self, full_run):
        view = full_run.report.phase("bidding")
        view["exp"] = -1
        assert full_run.report.phase("bidding")["exp"] != -1


# ---------------------------------------------------------------------------
# command line

def _duplicate_key(lines):
    """The first published key published again at the end."""
    key = next(line for line in lines if " key-published " in line).split(" ")[2]
    return lines + [f"{int(lines[-1].split(' ')[0]) + 1} key-published {key}"]


def _removed_key(lines):
    """The last key publication before the first bid left out and the records
    renumbered, so the rings name a key that was never on the board."""
    first_bid = next(i for i, line in enumerate(lines) if " bid-posted " in line)
    last_key = max(i for i in range(first_bid) if " key-published " in lines[i])
    return _renumbered(lines[:last_key] + lines[last_key + 1:])


# Key-record edits that verify rejects while leaving every bid record as it was.
BOARD_FAULTS = {"duplicate-key": _duplicate_key, "removed-key": _removed_key}


SCENARIO_TEXT = """
p_bits = 16
q_bits = 16
k = 16
seed = 7
bidders = 3
rounds = 1
auctions = 1
strategy.1 = invalid-signature
"""


class TestCli:
    def test_setup_writes_params_and_tracekey(self, tmp_path, capsys):
        out = tmp_path / "params.json"
        code = main(["setup", "--p-bits", "16", "--q-bits", "16",
                     "--k", "8", "--seed", "3", "--out", str(out)])
        assert code == 0
        pp = public_params_from_json(out.read_bytes())
        grp = pp.group
        assert grp.pair(pp.key_base, grp.h) == grp.pair(grp.g, pp.blind_base)
        tracekey = int((tmp_path / "params.json.tracekey").read_text())
        assert pp.group.n % tracekey == 0  # the secret factor divides the order
        assert "wrote public parameters" in capsys.readouterr().out

    def test_setup_writes_the_params_header_of_a_run(self, tmp_path, capsys):
        # The authority's seeded setup has one owner: setup --seed S writes
        # the parameters a scenario with seed S publishes.
        params = tmp_path / "params.json"
        assert main(["setup", "--p-bits", "16", "--q-bits", "24", "--k", "8",
                     "--seed", "5", "--out", str(params)]) == 0
        scenario = tmp_path / "s.scenario"
        scenario.write_text("p_bits = 16\nq_bits = 24\nk = 8\nseed = 5\nbidders = 2\n")
        transcript = tmp_path / "t.txt"
        assert main(["run", "--scenario", str(scenario), "--out", str(transcript)]) == 0
        header = transcript.read_text().splitlines()[0]
        assert header == "params " + params.read_bytes().hex()

    def test_setup_with_zero_hash_bits_returns_two(self, tmp_path, capsys):
        assert main(["setup", "--k", "0", "--out", str(tmp_path / "p.json")]) == 2
        assert "setup failed" in capsys.readouterr().err

    def test_setup_above_the_prime_size_bound_returns_two(self, tmp_path, capsys):
        assert main(["setup", "--p-bits", str(MAX_PRIME_BITS + 1),
                     "--out", str(tmp_path / "p.json")]) == 2
        assert "setup failed" in capsys.readouterr().err

    def test_run_verify_trace_happy_path(self, tmp_path, capsys):
        scenario = tmp_path / "s.scenario"
        scenario.write_text(SCENARIO_TEXT)
        transcript = tmp_path / "t.txt"
        tracekey = tmp_path / "k.txt"
        assert main(["run", "--scenario", str(scenario), "--out", str(transcript),
                     "--tracekey-out", str(tracekey), "--counts"]) == 0
        out = capsys.readouterr().out
        assert "winner" in out
        assert "operation counts by phase" in out

        assert main(["verify", "--transcript", str(transcript)]) == 0
        assert "transcript valid" in capsys.readouterr().out

        winner_seq = None
        for line in transcript.read_text().splitlines():
            if " winner-announced " in line:
                payload = bytes.fromhex(line.split(" ")[2])
                winner_seq = int.from_bytes(payload[:8], "big")
        assert winner_seq is not None
        code = main(["trace", "--transcript", str(transcript),
                     "--seq", str(winner_seq), "--tracekey", str(tracekey)])
        assert code == 0
        assert "traced to ring member" in capsys.readouterr().out

    @pytest.fixture(scope="class")
    def singleton_rings(self, tmp_path_factory):
        """A transcript whose rings hold one key each, where a zero trace key
        used to name member 0: its path, winner seq, group order and q."""
        result = run_scenario(ScenarioConfig(ring_size=1))
        transcript = tmp_path_factory.mktemp("singleton") / "t.txt"
        transcript.write_bytes(result.transcript)
        return (transcript, result.winners[0].seq,
                result.public_params.group.n, result.trace_key.q)

    def _trace_with_key(self, singleton_rings, tmp_path, key):
        transcript, seq, _, _ = singleton_rings
        tracekey = tmp_path / "k.txt"
        tracekey.write_text(f"{key}\n")
        return main(["trace", "--transcript", str(transcript), "--seq", str(seq),
                     "--tracekey", str(tracekey)])

    @pytest.mark.parametrize("key", ("0", "1", "-3", "n", "p"))
    def test_trace_rejects_a_bad_trace_key(self, singleton_rings, tmp_path, capsys, key):
        _, _, n, q = singleton_rings
        value = {"0": 0, "1": 1, "-3": -3, "n": n, "p": n // q}[key]
        assert self._trace_with_key(singleton_rings, tmp_path, value) == 2
        assert "bad trace key" in capsys.readouterr().err

    @pytest.mark.parametrize("multiple", (1, 2))
    def test_trace_accepts_the_key_and_its_multiples(self, singleton_rings, tmp_path,
                                                     capsys, multiple):
        _, _, _, q = singleton_rings
        assert self._trace_with_key(singleton_rings, tmp_path, multiple * q) == 0
        assert "traced to ring member 0" in capsys.readouterr().out

    @pytest.mark.parametrize("content", (None, "q\n"))
    def test_trace_with_an_unreadable_trace_key_returns_two(self, singleton_rings, tmp_path,
                                                            capsys, content):
        # A missing trace-key file, or one that holds no integer.
        transcript, seq, _, _ = singleton_rings
        tracekey = tmp_path / "k.txt"
        if content is not None:
            tracekey.write_text(content)
        assert main(["trace", "--transcript", str(transcript), "--seq", str(seq),
                     "--tracekey", str(tracekey)]) == 2
        assert capsys.readouterr().err.startswith("cannot read inputs: ")

    def test_trace_unverifiable_bid_returns_one(self, tmp_path, capsys):
        scenario = tmp_path / "s.scenario"
        scenario.write_text(SCENARIO_TEXT)
        transcript = tmp_path / "t.txt"
        tracekey = tmp_path / "k.txt"
        main(["run", "--scenario", str(scenario), "--out", str(transcript),
              "--tracekey-out", str(tracekey)])
        capsys.readouterr()
        pp = public_params_from_json(bytes.fromhex(
            transcript.read_text().splitlines()[0].split(" ", 1)[1]))
        bad_seq = None
        for line in transcript.read_text().splitlines()[1:]:
            seq_text, kind, payload_hex = line.split(" ")
            if kind != "bid-posted":
                continue
            bid = parse_bid_payload(pp.group, bytes.fromhex(payload_hex))
            if not verify(pp, bid.ring, bid.message_bytes(), bid.signature):
                bad_seq = int(seq_text)
        assert bad_seq is not None
        code = main(["trace", "--transcript", str(transcript), "--seq", str(bad_seq),
                     "--tracekey", str(tracekey)])
        assert code == 1
        assert "does not verify" in capsys.readouterr().out

    def test_trace_pairs_no_more_than_verify(self, tmp_path, capsys):
        # trace takes the winner's verdict from the replay, which verify also
        # runs, so it adds no pairing of its own.
        scenario, transcript, tracekey = (tmp_path / name for name in ("s", "t", "k"))
        scenario.write_text(SCENARIO_TEXT)
        main(["run", "--scenario", str(scenario), "--out", str(transcript),
              "--tracekey-out", str(tracekey)])
        ((_, seq, _),) = verify_transcript(transcript.read_bytes()).winners
        pairs = {}
        for command, extra in (("verify", []),
                               ("trace", ["--seq", str(seq), "--tracekey", str(tracekey)])):
            counter = OpCounter()
            with group_module.count_ops(counter):
                assert main([command, "--transcript", str(transcript), *extra]) == 0
            pairs[command] = sum(tally.get("pair", 0) for tally in counter.phases.values())
        capsys.readouterr()
        assert 0 < pairs["trace"] <= pairs["verify"]

    def test_verify_corrupted_transcript_returns_one(self, tmp_path, capsys):
        scenario = tmp_path / "s.scenario"
        scenario.write_text(SCENARIO_TEXT)
        transcript = tmp_path / "t.txt"
        main(["run", "--scenario", str(scenario), "--out", str(transcript)])
        lines = transcript.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        transcript.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "--transcript", str(transcript)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_bad_scenario_returns_two(self, tmp_path, capsys):
        scenario = tmp_path / "s.scenario"
        scenario.write_text("nonsense = 1\n")
        assert main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "t.txt")]) == 2

    def test_too_small_primes_are_a_bad_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "s.scenario"
        scenario.write_text("p_bits = 4\n")
        assert main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "t.txt")]) == 2
        assert "bad scenario" in capsys.readouterr().err

    def test_failing_scenario_returns_one(self, tmp_path, capsys):
        # the only bidder posts a broken signature, so no bid can win
        scenario = tmp_path / "s.scenario"
        scenario.write_text("bidders = 1\nstrategy.0 = invalid-signature\n")
        assert main(["run", "--scenario", str(scenario),
                     "--out", str(tmp_path / "t.txt")]) == 1
        assert "scenario failed" in capsys.readouterr().err

    def test_missing_files_return_two(self, tmp_path, capsys):
        assert main(["verify", "--transcript", str(tmp_path / "nope.txt")]) == 2
        assert main(["run", "--scenario", str(tmp_path / "nope.scn"),
                     "--out", str(tmp_path / "t.txt")]) == 2

    @pytest.mark.parametrize("flag", ("--out", "--tracekey-out"))
    def test_setup_unwritable_output_returns_two(self, tmp_path, capsys, flag):
        paths = {"--out": str(tmp_path / "p.json"), "--tracekey-out": str(tmp_path / "k.txt")}
        paths[flag] = str(tmp_path / "missing" / "f")
        assert main(["setup", "--k", "8", "--out", paths["--out"],
                     "--tracekey-out", paths["--tracekey-out"]]) == 2
        assert f"cannot write {paths[flag]}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ("--out", "--tracekey-out"))
    def test_run_unwritable_output_returns_two(self, tmp_path, capsys, flag):
        scenario = tmp_path / "s.scenario"
        scenario.write_text(SCENARIO_TEXT)
        paths = {name: str(tmp_path / f"{name[2:]}.txt")
                 for name in ("--out", "--tracekey-out")}
        paths[flag] = str(tmp_path / "missing" / "f")
        argv = ["run", "--scenario", str(scenario)]
        for name, path in paths.items():
            argv += [name, path]
        assert main(argv) == 2
        assert f"cannot write {paths[flag]}" in capsys.readouterr().err

    def test_trace_names_the_signer_of_a_bid_never_verified(self, full_run, tmp_path, capsys):
        transcript = tmp_path / "t.txt"
        transcript.write_bytes(full_run.transcript)
        tracekey = tmp_path / "k.txt"
        tracekey.write_text(f"{full_run.trace_key.q}\n")
        pp = full_run.public_params
        posted = _posted_bids(full_run.transcript, pp)
        outcomes = verify_transcript(full_run.transcript).outcomes
        seq = next(seq for seq, outcome in outcomes if outcome == "not needed"
                   and verify(pp, posted[seq].ring, posted[seq].message_bytes(),
                              posted[seq].signature))
        bid = posted[seq]
        index, signer = trace(full_run.trace_key, pp, bid.ring, bid.message_bytes(), bid.signature)
        assert main(["trace", "--transcript", str(transcript), "--seq", str(seq),
                     "--tracekey", str(tracekey)]) == 0
        assert capsys.readouterr().out == (f"bid seq {seq} traced to ring member {index}: "
                                           f"{pp.group.encode_point(signer).hex()}\n")

    def test_trace_decodes_only_the_bid_it_opens(self, full_run, tmp_path, monkeypatch, capsys):
        # Beyond what the replay decodes, trace decodes the one bid it opens,
        # through the replay's key memo: the ring keys the replay did not
        # decode and the 2 + 2l signature points, no point twice.
        transcript = tmp_path / "t.txt"
        transcript.write_bytes(full_run.transcript)
        tracekey = tmp_path / "k.txt"
        tracekey.write_text(f"{full_run.trace_key.q}\n")
        decoded = []
        decode = group_module.decode_point_bytes
        monkeypatch.setattr(group_module, "decode_point_bytes",
                            lambda data, ell: decoded.append(data) or decode(data, ell))
        report = verify_transcript(full_run.transcript)
        replayed = list(decoded)
        seq = next(seq for seq, outcome in report.outcomes if outcome == "not needed")
        head = report.board.heads[seq]
        width = full_run.public_params.group.point_bytes
        points = [head.signature[at: at + width] for at in range(0, len(head.signature), width)]
        assert len(points) == 2 + 2 * len(head.ring)
        new_keys = [key for key in head.ring if key not in replayed]
        decoded.clear()
        assert main(["trace", "--transcript", str(transcript), "--seq", str(seq),
                     "--tracekey", str(tracekey)]) in (0, 1)
        capsys.readouterr()
        assert decoded[:len(replayed)] == replayed
        assert sorted(decoded[len(replayed):]) == sorted([*new_keys, *points])
        assert len(set(decoded)) == len(decoded)

    @pytest.mark.parametrize("text, err", (
        ("", "seq 0 is not a posted bid\n"),
        ("\n  \n", "bad transcript at line 1: record is not 'seq kind payload'\n"),
    ), ids=("empty", "blank-lines"))
    def test_trace_on_a_transcript_without_records_returns_two(self, tmp_path, capsys,
                                                               text, err):
        # The empty transcript verifies, and its replay has no board; blank
        # lines do not verify.
        transcript, tracekey = tmp_path / "t.txt", tmp_path / "k.txt"
        transcript.write_text(text)
        tracekey.write_text("7\n")
        assert verify_transcript(transcript.read_bytes()).valid == (text == "")
        assert main(["trace", "--transcript", str(transcript), "--seq", "0",
                     "--tracekey", str(tracekey)]) == 2
        assert capsys.readouterr().err == err

    def test_trace_on_non_bid_seq_returns_two(self, tmp_path, capsys):
        scenario = tmp_path / "s.scenario"
        scenario.write_text(SCENARIO_TEXT)
        transcript = tmp_path / "t.txt"
        tracekey = tmp_path / "k.txt"
        main(["run", "--scenario", str(scenario), "--out", str(transcript),
              "--tracekey-out", str(tracekey)])
        capsys.readouterr()
        assert main(["trace", "--transcript", str(transcript), "--seq", "0",
                     "--tracekey", str(tracekey)]) == 2

    def _header_fault(self, full_run, tmp_path, capsys, data):
        """verify's reason for a transcript whose header is at fault, once
        trace has exited 2 printing that reason word for word."""
        transcript = tmp_path / "t.txt"
        transcript.write_bytes(data)
        tracekey = tmp_path / "k.txt"
        tracekey.write_text(f"{full_run.trace_key.q}\n")
        assert main(["verify", "--transcript", str(transcript)]) == 1
        reason = capsys.readouterr().out.split("transcript INVALID: ", 1)[1].strip()
        bid_seq = next((int(line.split(" ")[0]) for line in data.decode().splitlines()
                        if " bid-posted " in line), 0)
        assert main(["trace", "--transcript", str(transcript), "--seq", str(bid_seq),
                     "--tracekey", str(tracekey)]) == 2
        assert reason in capsys.readouterr().err
        return reason

    @pytest.mark.parametrize("name", HOSTILE_HEADERS)
    def test_hostile_header_exits_cleanly(self, full_run, tmp_path, capsys, name):
        data = _with_hostile_header(full_run.transcript, name)
        reason = self._header_fault(full_run, tmp_path, capsys, data)
        assert reason.startswith("bad params header")

    def test_even_n_exits_cleanly(self, full_run, tmp_path, capsys):
        # A header over n = 4 used to replay as a valid empty transcript.
        data = _even_n_transcript()
        assert not verify_transcript(data)
        reason = self._header_fault(full_run, tmp_path, capsys, data)
        assert reason == "bad params header: n must be odd and above 1"

    def test_composite_ell_exits_cleanly(self, full_run, tmp_path, capsys):
        # A replay over a composite ell used to hit a non-invertible
        # denominator in point addition.
        data = _composite_ell_transcript()
        assert not verify_transcript(data)
        reason = self._header_fault(full_run, tmp_path, capsys, data)
        assert reason == "bad params header: ell must be prime"

    def test_missing_header_exits_cleanly(self, full_run, tmp_path, capsys):
        body = full_run.transcript.decode().splitlines()[1:]
        data = ("\n".join(body) + "\n").encode()
        assert self._header_fault(full_run, tmp_path, capsys, data) == "missing params header"

    @pytest.mark.parametrize("edit", BOARD_FAULTS)
    def test_trace_refuses_a_transcript_that_fails(self, full_run, tmp_path, capsys, edit):
        # the bid records are untouched; only the key records around them changed
        lines = full_run.transcript.decode().splitlines()
        transcript = tmp_path / "t.txt"
        transcript.write_text("\n".join(BOARD_FAULTS[edit](lines)) + "\n")
        tracekey = tmp_path / "k.txt"
        tracekey.write_text(f"{full_run.trace_key.q}\n")
        assert main(["verify", "--transcript", str(transcript)]) == 1
        reason = capsys.readouterr().out.split(": ", 1)[1].strip()
        assert reason == {"duplicate-key": "key is already active",
                          "removed-key": "ring key not in the active view"}[edit]
        posted = [line.split(" ")[0] for line in lines if " bid-posted " in line]
        for seq in posted:
            assert main(["trace", "--transcript", str(transcript), "--seq", seq,
                         "--tracekey", str(tracekey)]) == 2
            assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("fault", STRUCTURAL_FAULTS)
    def test_verify_and_trace_locate_a_fault_alike(self, run_and_lines, tmp_path,
                                                   capsys, fault):
        result, lines = run_and_lines
        idx = next(i for i, line in enumerate(lines) if " bid-posted " in line)
        seq, kind, payload = lines[idx].split(" ")
        mutated = list(lines)
        mutated[idx] = STRUCTURAL_FAULTS[fault](seq, kind, payload)
        transcript = tmp_path / "t.txt"
        transcript.write_text("\n".join(mutated) + "\n")
        tracekey = tmp_path / "k.txt"
        tracekey.write_text(f"{result.trace_key.q}\n")
        assert main(["verify", "--transcript", str(transcript)]) == 1
        verify_says = capsys.readouterr().out.strip().removeprefix("transcript INVALID")
        assert main(["trace", "--transcript", str(transcript), "--seq", seq,
                     "--tracekey", str(tracekey)]) == 2
        assert capsys.readouterr().err.strip() == f"bad transcript{verify_says}"
        assert f"line {idx + 1}: " in verify_says

    def test_usage_errors_return_two(self, capsys):
        assert main([]) == 2
        assert main(["run"]) == 2
        capsys.readouterr()

    def test_help_returns_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["--out", "p.json", "setup"],  # no command, or an unknown one
        ["setup", "--out", "p.json", "--bogus", "1"], ["verify", "--transcript", "t", "extra"],
        ["setup", "--out"], ["run", "--scenario", "s", "--out", "--counts"],
        ["run", "--scenario", "s", "--out", "t", "--counts=1"],
        ["setup", "--out", "p.json", "--p-bits", "x"], ["setup", "--out", "p.json", "--k="],
        ["trace", "--transcript", "t", "--tracekey", "k", "--seq", "1.5"],
        ["setup"], ["run", "--out", "t"], ["trace", "--transcript", "t", "--seq", "1"],
    ], ids=repr)
    def test_usage_error_prints_usage_to_stderr_only(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: ringauction ")
        assert "ringauction: error: " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_names_every_option(self, capsys, command, flag):
        assert main([command, flag] if command else [flag]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: ringauction ") and err == ""
        names = COMMANDS[command][1] if command else COMMANDS
        assert all(f"  {name} " in out for name in names)

    @pytest.mark.parametrize("argv, expected", [
        (["setup", "--out", "p"], dict(
            p_bits=16, q_bits=16, k=16, seed=0, out="p", tracekey_out=None)),
        (["setup", "--out=a", "--k=8", "--seed", "-3", "--out", "b", "--p-bits=24"], dict(
            p_bits=24, q_bits=16, k=8, seed=-3, out="b", tracekey_out=None)),
        (["run", "--counts", "--scenario=s=1", "--out", "t"], dict(
            scenario="s=1", out="t", counts=True, tracekey_out=None)),
        (["verify", "--transcript", "t"], dict(transcript="t")),
        (["trace", "--seq", "9", "--tracekey", "k", "--transcript", "t", "--seq=4"], dict(
            transcript="t", seq=4, tracekey="k")),
    ])
    def test_handlers_get_the_options_by_name(self, monkeypatch, argv, expected):
        # --opt=value is accepted and a repeated option keeps its last value,
        # as under argparse.
        seen = []
        monkeypatch.setattr(cli, f"_cmd_{argv[0]}", lambda args: seen.append(vars(args)) or 0)
        assert main(argv) == 0
        assert seen == [expected]

    def test_module_entry_point(self, tmp_path):
        # python -m ringauction runs the same main() through __main__.py.
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "ringauction", *argv], cwd=tmp_path,
                                  capture_output=True, text=True, timeout=60,
                                  env={**os.environ, "PYTHONPATH": path})

        helped = run("-h")
        assert helped.returncode == 0, helped.stderr
        assert helped.stdout.startswith("usage: ringauction ")
        missing = run("verify", "--transcript", str(tmp_path / "missing.txt"))
        assert missing.returncode == 2
        assert missing.stderr.startswith("cannot read transcript: ")

    def test_cold_start_imports_no_argparse(self, tmp_path):
        # The console script's path: main() reads sys.argv.  A role must not
        # pay for argparse, or for the gettext and locale it pulls in, nor
        # for statistics and the fractions and decimal it pulls in.
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from ringauction.cli import main\n"
            "sys.argv = ['ringauction', 'setup', '--k', '8', '--out', sys.argv[1]]\n"
            "assert main() == 0\n"
            "sys.argv = ['ringauction', '--help']\n"
            "assert main() == 0\n"
            "print(sorted({'argparse', 'gettext', 'locale', 'statistics', 'fractions', 'decimal'}\n"
            "             & (set(sys.modules) - before)))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "p.json")],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "p.json").exists()
