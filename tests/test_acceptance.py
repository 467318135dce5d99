"""Acceptance gate: one test per promised property, one PASS line each.

Run with ``pytest -v tests/test_acceptance.py``; each test prints an
``ACCEPTANCE <name>: PASS`` line on success (visible with ``-s`` or ``-rA``)
and enforces the stated runtime budget where one applies.
"""

import hashlib
import random
import time
from dataclasses import replace

import pytest

from ringauction import registry
from ringauction.auction import parse_bid_payload
from ringauction.group import gen_group_params, group_from_primes
from ringauction.harness import (
    HONEST,
    INVALID_SIGNATURE,
    REPUDIATOR,
    SNIPER,
    ScenarioConfig,
    efficiency_sweep,
    run_scenario,
    verify_transcript,
)
from ringauction.registry import (
    RegistrationProof,
    make_registration,
    parse_board_text,
    verify_registration,
)
from ringauction.ringsig import Ring, keygen, setup, sign, trace, verify

from .support import naive_add, naive_mul, naive_neg

RING_SIZES = (1, 2, 4, 8)
SEEDS_PER_CASE = 20


@pytest.fixture(scope="module")
def env16():
    params = gen_group_params(16, 16, random.Random(1000))
    pp, tk = setup(params, 16, random.Random(1001))
    return params, pp, tk


def fresh_ring(pp, size, rng):
    keypairs = []
    seen = set()
    while len(keypairs) < size:
        kp = keygen(pp, rng)
        if kp.pub_key not in seen:
            seen.add(kp.pub_key)
            keypairs.append(kp)
    return Ring(pp.group, [kp.pub_key for kp in keypairs]), keypairs


@pytest.fixture(scope="module")
def sweep(env16):
    """Every ring size x every signer position x 20 seeds, signed once."""
    _, pp, tk = env16
    t0 = time.monotonic()
    results = []
    for size in RING_SIZES:
        for position in range(size):
            for seed in range(SEEDS_PER_CASE):
                rng = random.Random(f"sweep:{size}:{position}:{seed}")
                ring, keypairs = fresh_ring(pp, size, rng)
                signer = next(kp for kp in keypairs if kp.pub_key == ring[position])
                message = b"sweep %d %d %d" % (size, position, seed)
                sig = sign(pp, ring, signer, message, rng)
                verified = bool(verify(pp, ring, message, sig))
                traced = trace(tk, pp, ring, message, sig)
                results.append((size, position, verified,
                                traced[0] if traced else None))
    return results, time.monotonic() - t0


def test_group_correctness():
    t0 = time.monotonic()
    params = gen_group_params(16, 16, random.Random(2024))
    group = params.group
    g, h, n, q = params.group.g, params.group.h, params.group.n, params.q

    base = group.pair(g, g)
    rng = random.Random(2025)
    passes = 0
    for _ in range(200):
        a, b = rng.randrange(n), rng.randrange(n)
        if group.pair(group.mul(a, g), group.mul(b, g)) == base ** (a * b):
            passes += 1
    assert passes == 200

    assert group.mul(n, g) is None
    assert group.mul(q, h) is None
    for k in (1, 17, 12345):
        assert (group.pair(h, group.mul(k, g)) ** q).is_one()
    assert (group.pair(h, h) ** q).is_one()

    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"group correctness took {elapsed:.1f}s"
    print("\nACCEPTANCE group-correctness: PASS "
          f"(200/200 bilinear, identities hold, {elapsed:.1f}s)")


def test_signature_completeness_sweep(sweep):
    results, elapsed = sweep
    total = len(results)
    accepted = sum(1 for _, _, verified, _ in results if verified)
    assert total == sum(RING_SIZES) * SEEDS_PER_CASE
    assert accepted == total, f"{total - accepted} signatures failed to verify"
    assert elapsed < 120, f"sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE completeness-sweep: PASS ({accepted}/{total} accepted, "
          f"{elapsed:.1f}s)")


def test_trace_exactness(sweep):
    results, _ = sweep
    exact = sum(1 for _, position, _, traced in results if traced == position)
    assert exact == len(results), \
        f"{len(results) - exact} signatures traced to the wrong position"

    # Counterexample in the 35-element group: opening a commitment by
    # projecting it and adding back the offset point compares garbage
    # against the key — the offset must stay inside the projection.
    params = group_from_primes(5, 7, random.Random(1))
    pp, tk = setup(params, 8, random.Random(0))
    ell, q = params.group.ell, 7
    rng = random.Random(3000)

    def usable(pub):  # avoid toy-size degeneracies in the demonstration
        offset = naive_add(pub, naive_neg(pp.commit_offset, ell), ell)
        return pub != pp.commit_offset and naive_mul(q, offset, ell) is not None

    keypairs = []
    while len(keypairs) < 3:
        kp = keygen(pp, rng)
        if usable(kp.pub_key) and all(k.pub_key != kp.pub_key for k in keypairs):
            keypairs.append(kp)
    ring = Ring(params.group, [kp.pub_key for kp in keypairs])
    signer = keypairs[0]
    position = ring.keys.index(signer.pub_key)
    sig = sign(pp, ring, signer, b"counterexample", rng)
    assert verify(pp, ring, b"counterexample", sig)

    literal_matches = []
    for i, pub in enumerate(ring):
        projected = naive_mul(q, sig.members[i].commit, ell)
        candidate = naive_add(projected, pp.commit_offset, ell)
        if candidate == pub:
            literal_matches.append(i)
    assert literal_matches == [], "the naive opening formula unexpectedly matched"
    assert trace(tk, pp, ring, b"counterexample", sig) == (position, signer.pub_key)
    print(f"\nACCEPTANCE trace-exactness: PASS ({len(results)}/{len(results)} exact; "
          "naive-projection form matches nobody on an honest signature at n=35)")


def test_mutation_rejection(env16):
    _, pp, _ = env16
    group = pp.group
    rejected = total = 0
    for size in RING_SIZES:
        rng = random.Random(f"mutate:{size}")
        ring, keypairs = fresh_ring(pp, size, rng)
        signer = keypairs[0]
        message = b"mutation target %d" % size
        sig = sign(pp, ring, signer, message, rng)
        assert verify(pp, ring, message, sig)
        components = 2 + 2 * size  # s1, s2, and one commit/proof per member
        for trial in range(100):
            which = rng.randrange(components)
            delta = group.mul(rng.randrange(1, group.n), group.g)
            mutated = _mutate_component(group, sig, which, delta)
            total += 1
            if not verify(pp, ring, message, mutated):
                rejected += 1
    assert rejected == total == 100 * len(RING_SIZES)
    print(f"\nACCEPTANCE mutation-rejection: PASS ({rejected}/{total} rejected)")


def _mutate_component(group, sig, which, delta):
    """Add ``delta`` to exactly one of the signature's point components."""
    if which == 0:
        return replace(sig, s1=group.add(sig.s1, delta))
    if which == 1:
        return replace(sig, s2=group.add(sig.s2, delta))
    index, field = divmod(which - 2, 2)
    members = list(sig.members)
    member = members[index]
    if field == 0:
        members[index] = replace(member, commit=group.add(member.commit, delta))
    else:
        members[index] = replace(member, proof=group.add(member.proof, delta))
    return replace(sig, members=tuple(members))


def test_registration_soundness(env16):
    params, _, _ = env16
    group = params.group
    assert group.n.bit_length() in (31, 32, 33)  # two 16-bit primes
    rng = random.Random(4000)
    for i in range(100):
        x = rng.randrange(1, group.n)
        pub = group.mul(x, group.g)
        identity = b"honest-%d" % i
        proof = make_registration(x, pub, identity, group, rng)
        assert verify_registration(pub, identity, proof, group), i
    target = group.mul(rng.randrange(1, group.n), group.g)
    for i in range(100):
        forged = RegistrationProof(rng.randrange(group.n), rng.randrange(group.n))
        assert not verify_registration(target, b"victim", forged, group), i
    print("\nACCEPTANCE registration-soundness: PASS "
          "(100/100 honest accepted, 100/100 forgeries rejected)")


def test_round_count():
    config = ScenarioConfig(bidders=3, rounds=2, auctions=2, k=16, seed=50)
    result = run_scenario(config, counted=False)
    messages = result.messages
    for i in range(config.bidders):
        name = f"bidder-{i}"
        assert messages[name, "registration"] == 1  # one-time, ever
        assert messages[name, "bidding"] == config.rounds * config.auctions

    single = run_scenario(replace(config, auctions=1), counted=False)
    for i in range(config.bidders):
        name = f"bidder-{i}"
        # the second auction added bid messages but zero registrations
        assert single.messages[name, "registration"] == 1
        assert messages[name, "registration"] == 1
    print("\nACCEPTANCE round-count: PASS (1 registration ever + 1 bid message "
          "per bidder per round; extra auctions add no registrations)")


def test_efficiency_bound():
    summary = efficiency_sweep(ring_sizes=RING_SIZES, k=160)
    counts = {l: tally["exp"] for l, tally in summary.rows.items()}
    for l, exps in counts.items():
        assert exps <= 5 * l + 160 + 2, f"l={l}: {exps} > {5 * l + 160 + 2}"
    per_member = counts[2] - counts[1]
    assert counts[4] - counts[2] == 2 * per_member  # affine growth, exactly
    assert counts[8] - counts[4] == 4 * per_member
    assert summary.one_hash_per_signing
    print(f"\nACCEPTANCE efficiency-bound: PASS (counts {counts} all within "
          f"5l+k+2 at k=160; affine with slope {summary.slope:.0f}; "
          "one message hash per signing)")


END_TO_END = ScenarioConfig(
    p_bits=32, q_bits=32, k=16, seed=77,
    bidders=4, rounds=2, auctions=2,
    strategies=(HONEST, INVALID_SIGNATURE, SNIPER, REPUDIATOR),
)


def test_end_to_end_protocol():
    t0 = time.monotonic()
    config = END_TO_END
    result = run_scenario(config, counted=False)
    group = result.public_params.group

    # the repudiator was traced and evicted after the first auction
    assert len(result.evicted) == 1
    evicted_hex = result.evicted[0]
    assert all(w.pub_key_hex != evicted_hex for w in result.winners)

    # winners are the highest verifying bids; the public replay re-derives
    # them from the transcript without any secret
    report = verify_transcript(result.transcript)
    assert report.valid, report.reason
    assert report.winners == tuple(
        (w.auction_id, w.seq, w.price) for w in result.winners)
    assert len(result.winners) == 2

    posted = {}
    for line in result.transcript.decode().splitlines()[1:]:
        seq_text, kind, payload_hex = line.split(" ")
        if kind == "bid-posted":
            posted[int(seq_text)] = parse_bid_payload(group, bytes.fromhex(payload_hex))
    pp = result.public_params
    for summary in result.winners:
        for seq, bid in posted.items():
            if bid.auction_id != summary.auction_id or bid.price <= summary.price:
                continue
            # anything priced above the winner must fail verification
            assert not verify(pp, bid.ring, bid.message_bytes(), bid.signature), seq

    # eviction is reflected in later ring admission: no second-auction ring
    # contains the evicted key
    second_auction_rings = [bid.ring for bid in posted.values() if bid.auction_id == 1]
    assert second_auction_rings
    for ring in second_auction_rings:
        assert all(group.encode_point(key).hex() != evicted_hex for key in ring)

    # the evicted bidder sent bids only while its key was active
    assert result.messages["bidder-3", "bidding"] == config.rounds  # first auction only
    assert result.messages["bidder-0", "bidding"] == config.rounds * config.auctions

    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"end-to-end run took {elapsed:.1f}s"
    print(f"\nACCEPTANCE end-to-end: PASS (2 auctions at 64-bit group order, "
          f"winner re-derived publicly, repudiator evicted, {elapsed:.1f}s)")


@pytest.mark.parametrize("strategies", (
    END_TO_END.strategies,
    (HONEST, HONEST, HONEST, INVALID_SIGNATURE),  # failing bids outbid the winners
))
def test_replay_verifies_only_deciding_bids(monkeypatch, strategies):
    # The replay verifies each winner and the bids ranked ahead of it, all
    # of which fail; every other posted bid is reported as not needed.
    result = run_scenario(replace(END_TO_END, strategies=strategies), counted=False)
    pp = result.public_params
    posted = {}
    for line in result.transcript.decode().splitlines()[1:]:
        seq_text, kind, payload_hex = line.split(" ")
        if kind == "bid-posted":
            posted[int(seq_text)] = parse_bid_payload(pp.group, bytes.fromhex(payload_hex))
    ahead = {seq for w in result.winners for seq, bid in posted.items()
             if bid.auction_id == w.auction_id and (-bid.price, seq) < (-w.price, w.seq)}
    winners = {w.seq for w in result.winners}
    calls = []
    monkeypatch.setattr(registry, "verify", lambda *args: calls.append(args) or verify(*args))
    report = verify_transcript(result.transcript)
    assert report.valid, report.reason
    assert len(calls) == len(winners) + len(ahead)
    assert {seq for seq, outcome in report.outcomes if outcome == "verified"} == winners
    assert {seq for seq, outcome in report.outcomes if outcome.startswith("failed: ")} == ahead
    assert [seq for seq, _ in report.outcomes] == sorted(posted)
    print(f"\nACCEPTANCE lazy-replay: PASS ({len(calls)} verifies for "
          f"{len(posted)} posted bids, {len(winners)} winners)")


def test_determinism():
    config = ScenarioConfig(
        bidders=4, rounds=2, auctions=2, k=16, seed=7,
        strategies=(HONEST, INVALID_SIGNATURE, SNIPER, REPUDIATOR),
    )
    first = run_scenario(config)
    second = run_scenario(config)
    assert first.transcript == second.transcript
    assert first.winners == second.winners
    assert first.evicted == second.evicted
    # Pinned literals: a change to the arithmetic kernels must move neither
    # a transcript byte nor an operation count.
    assert hashlib.sha256(first.transcript).hexdigest() == (
        "48e789e18cf4885085c913c8f5bc8e4f60a8c307c8e05c94e02e71940bef6b63")
    assert first.report.phases == {
        "initial": {"exp": 20},
        "registration": {"exp": 24, "hash": 8, "inv": 4, "mul": 4},
        "bidding": {"exp": 122, "hash": 12, "inv": 4, "mul": 134},
        "winner": {"hash": 2, "inv": 9, "mul": 31, "pair": 20},
        "open": {"exp": 11, "hash": 1, "inv": 16, "mul": 27, "pair": 11},
    }
    assert first.report.paths == {
        "initial": {"exp.ladder": 1, "exp.window": 19},
        "registration": {"exp.ladder": 4, "exp.member": 4, "exp.window": 16},
        "bidding": {"exp.ladder": 55, "exp.window": 67},
        "winner": {"pair.lines": 9, "pair.var": 11},
        "open": {"exp.ladder": 11, "pair.lines": 5, "pair.var": 6},
    }
    print("\nACCEPTANCE determinism: PASS (byte-identical transcripts across "
          "repeat runs, matching the pinned digest "
          "and operation counts)")


def test_determinism_past_the_joint_table_threshold():
    # Every bid rings all 16 keys, so each key serves 31 or 60 member proofs:
    # the first 15 on the ladder, the rest from its joint table with h.  The
    # digest was recorded before member proofs had a joint path.
    config = ScenarioConfig(
        bidders=16, rounds=2, auctions=2, seed=7, strategies=(HONEST, SNIPER, REPUDIATOR),
    )
    result = run_scenario(config)
    assert hashlib.sha256(result.transcript).hexdigest() == (
        "ec81b017aa292081bc625e3cf69acf3614892d54f5966537ffbe41cc20a959a6")
    assert result.report.paths["bidding"] == {
        "exp.joint": 691, "exp.ladder": 300, "exp.window": 1051}
    assert result.evicted and verify_transcript(result.transcript).valid
    print("\nACCEPTANCE determinism past the joint-table threshold: PASS (pinned "
          "digest with 691 member proofs on the joint path)")


def test_determinism_after_eviction():
    # The repudiator wins auction 0 and is evicted; auction 1 then samples
    # its random-subset rings from an active view that has lost a key from
    # the middle of its sorted order.
    config = ScenarioConfig(
        bidders=6, auctions=2, k=16, seed=4, strategies=(HONEST, HONEST, REPUDIATOR),
        ring_size=3,
    )
    result = run_scenario(config)
    assert hashlib.sha256(result.transcript).hexdigest() == (
        "ceb2253285ddb5c8e241e5de548491a6a5b8b8412617426e4cfac44c89e630c6")
    entries = parse_board_text(result.transcript.decode().split("\n", 1)[1])
    published = sorted(e.payload for e in entries if e.kind == "key-published")
    (evicted,) = [e for e in entries if e.kind == "key-evicted"]
    assert 0 < published.index(evicted.payload) < len(published) - 1
    later = [parse_bid_payload(result.public_params.group, e.payload)
             for e in entries[entries.index(evicted) + 1:] if e.kind == "bid-posted"]
    assert later and all(bid.auction_id == 1 for bid in later)
    assert all(evicted.payload not in bid.ring.encodings for bid in later)
    assert verify_transcript(result.transcript).valid
    print("\nACCEPTANCE determinism after eviction: PASS (pinned digest; later "
          "rings drawn without the evicted key)")
