"""Deterministic protocol simulator, public transcript replay, cost reports.

Scenarios are fully seeded: every random draw comes from a stream derived
from the master seed and a structural label (bidder index, auction, round),
so a configuration always produces byte-identical transcripts.
``authority_setup`` owns the labels of the authority's two streams, so
``ringauction setup`` and a scenario with the same seed publish the same
parameters.  Every tally is an ``OpCounter`` or a ``collections.Counter``.

A transcript is one ``params`` header line (the public parameters, hex of
canonical JSON) followed by the bulletin-board records, record i as
``i kind payload-hex``, each line ending with ``\\n``: one spelling per
board.  This module alone spells that format: ``render_transcript`` writes
it, and ``read_transcript`` reads the header and the records in one pass
into a ``Transcript`` of the ``(kind, payload)`` pairs the board stores.
``verify_transcript`` is the one replay: it needs no secrets and folds the
records into a fresh ``BulletinBoard``, the live board's own class, which
re-derives the winner of every announced auction.  The report hands back
that board, so a posted bid is read from the replay by its seq, as from the
live board.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping, NamedTuple

from .auction import AuctionManager, BidderAgent, open_protocol
from .group import (
    MAX_PRIME_BITS,
    MIN_PRIME_BITS,
    GroupError,
    OpCounter,
    count_ops,
    gen_group_params,
)
from .registry import (
    ENTRY_KINDS,
    KEY_EVICTED,
    BulletinBoard,
    MalformedBoard,
    RegistrationManager,
    make_registration,
)
from .ringsig import (
    PublicParams,
    Ring,
    TraceKey,
    Untraceable,
    keygen,
    public_params_from_json,
    public_params_to_json,
    setup,
    sign,
)

HONEST = "honest-increment"
SNIPER = "sniper"
INVALID_SIGNATURE = "invalid-signature"
REPUDIATOR = "repudiator"
STRATEGIES = (HONEST, SNIPER, INVALID_SIGNATURE, REPUDIATOR)

# Price jumps over the round-start high bid, per strategy.  The bidder index
# is added on top so simultaneous bids never tie.
_PRICE_BUMPS = {HONEST: 1, REPUDIATOR: 150, INVALID_SIGNATURE: 100, SNIPER: 500}

RING_ALL_ACTIVE = "all-active"
RING_RANDOM_SUBSET = "random-subset"

_TRANSCRIPT_HEADER = "params "


class ScenarioError(Exception):
    """A scenario failed mid-run; the message names the failing actor/phase."""


@dataclass
class ScenarioConfig:
    p_bits: int = 16
    q_bits: int = 16
    k: int = 16
    seed: int = 0
    bidders: int = 3
    rounds: int = 1
    auctions: int = 1
    strategies: tuple[str, ...] = ()
    # None rings every active key; N rings the signer and N - 1 others at random
    ring_size: int | None = None
    monotonic: bool = True

    def strategy_of(self, index: int) -> str:
        if index < len(self.strategies):
            return self.strategies[index]
        return HONEST

    def validate(self) -> None:
        sizes = (self.p_bits, self.q_bits)
        if min(sizes) < MIN_PRIME_BITS or max(sizes) > MAX_PRIME_BITS:
            raise ValueError(f"p_bits and q_bits must lie in {MIN_PRIME_BITS}..{MAX_PRIME_BITS}")
        if self.bidders < 1:
            raise ValueError("need at least one bidder")
        if self.rounds < 1 or self.auctions < 1:
            raise ValueError("rounds and auctions must be at least 1")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if len(self.strategies) > self.bidders:
            raise ValueError("more strategies than bidders")
        for strategy in self.strategies:
            if strategy not in STRATEGIES:
                raise ValueError(f"unknown strategy {strategy!r}")
        if self.ring_size is not None and not 1 <= self.ring_size <= self.bidders:
            raise ValueError("ring size must be between 1 and the number of bidders")


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse the line-oriented key=value scenario format (# for comments);
    a malformed line raises ValueError with a ``line N:`` prefix."""
    config = ScenarioConfig()
    strategies: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ValueError("expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in ("p_bits", "q_bits", "k", "seed", "bidders", "rounds", "auctions"):
                setattr(config, key, int(value))
            elif key.startswith("strategy."):
                strategies[int(key.split(".", 1)[1])] = value
            elif key == "ring_policy":
                if value == RING_ALL_ACTIVE:
                    config.ring_size = None
                elif value.startswith(RING_RANDOM_SUBSET + ":"):
                    config.ring_size = int(value.split(":", 1)[1])
                else:
                    raise ValueError(f"unknown ring policy {value!r}")
            elif key == "monotonic_prices":
                if value not in ("on", "off"):
                    raise ValueError("monotonic_prices must be on or off")
                config.monotonic = value == "on"
            else:
                raise ValueError(f"unknown scenario key {key!r}")
        except ValueError as exc:  # int()'s own message on a bad literal too
            raise ValueError(f"line {lineno}: {exc}") from None
    if strategies:
        if min(strategies) < 0 or max(strategies) >= config.bidders:
            raise ValueError("strategy index out of range")
        config.strategies = tuple(
            strategies.get(i, HONEST) for i in range(max(strategies) + 1)
        )
    config.validate()
    return config


@dataclass(frozen=True)
class WinnerSummary:
    auction_id: int
    seq: int
    price: int
    pub_key_hex: str
    identity: bytes


@dataclass
class ScenarioResult:
    """A run's transcript and reports; its winners and evictions are read from its board."""

    transcript: bytes
    report: OpCounter  # counts nothing when the run was not counted
    messages: Counter  # (sender, phase) -> protocol messages sent
    winners: tuple[WinnerSummary, ...]
    evicted: tuple[str, ...]  # hex of the key-evicted payloads, in board order
    public_params: object
    trace_key: object


@dataclass
class _Actor:
    name: str
    index: int
    strategy: str
    agent: BidderAgent
    own: bytes  # encoding of the actor's published key
    last_admitted: int | None = None  # seq of the actor's last posted bid


def _child_rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def authority_setup(p_bits: int, q_bits: int, k: int, seed: int) -> tuple[PublicParams, TraceKey]:
    """The authority's seeded setup: the group from the ``group`` stream, then
    the public parameters and trace key from the ``setup`` stream."""
    params = gen_group_params(p_bits, q_bits, _child_rng(seed, "group"))
    return setup(params, k, _child_rng(seed, "setup"))


def _wants_to_bid(strategy: str, round_no: int, rounds: int) -> bool:
    if strategy == SNIPER:
        return round_no == rounds - 1
    return True


def _choose_ring(group, order, points, own: bytes, config: ScenarioConfig, rng) -> Ring:
    if config.ring_size is None:
        chosen = order
    else:
        at = bisect.bisect_left(order, own)
        others = order[:at] + order[at + 1:]
        take = min(config.ring_size - 1, len(others))
        chosen = [own] + rng.sample(others, take)
    return Ring(group, [points[encoding] for encoding in chosen])


def run_scenario(config: ScenarioConfig, *, counted: bool = True) -> ScenarioResult:
    """Run a fully seeded scenario and return its transcript and reports.

    ``counted=False`` disables instrumentation entirely; the transcript is
    byte-identical either way.
    """
    config.validate()
    counter = OpCounter()
    with count_ops(counter if counted else None):
        return _run(config, counter)


def _run(config: ScenarioConfig, counter: OpCounter) -> ScenarioResult:
    """Setup, registration, then per auction its rounds, winner and openings;
    winners and evictions are read from the board, with no list beside it."""
    seed = config.seed
    counter.set_phase("initial")
    try:
        pp, trace_key = authority_setup(config.p_bits, config.q_bits, config.k, seed)
    except Exception as exc:
        raise ScenarioError(f"group generation failed: {exc}") from exc
    group = pp.group
    board = BulletinBoard(pp)
    rm = RegistrationManager(board)
    am = AuctionManager(trace_key, board)
    messages: Counter = Counter()

    counter.set_phase("registration")
    actors: list[_Actor] = []
    for index in range(config.bidders):
        name = f"bidder-{index}"
        keypair = keygen(pp, _child_rng(seed, f"key:{index}"))
        proof = make_registration(keypair.x, keypair.pub_key, name.encode(),
                                  group, _child_rng(seed, f"reg:{index}"))
        messages[name, "registration"] += 1
        try:
            rm.register(keypair.pub_key, name.encode(), proof)
        except Exception as exc:
            raise ScenarioError(f"{name}: registration failed: {exc}") from exc
        actors.append(_Actor(name=name, index=index, strategy=config.strategy_of(index),
                             agent=BidderAgent(keypair, board),
                             own=group.encode_point(keypair.pub_key)))
    # Every published key is a bidder's: rings take their points from here.
    points = {actor.own: actor.agent.keypair.pub_key for actor in actors}

    winners: list[WinnerSummary] = []
    for auction_no in range(config.auctions):
        am.open_auction(auction_no, monotonic=config.monotonic)
        counter.set_phase("bidding")
        for round_no in range(config.rounds):
            high = board.high(auction_no)
            order = board.active_view()  # keys change only at openings
            for actor in actors:
                if actor.own not in board.active:
                    continue  # evicted bidders are out
                if not _wants_to_bid(actor.strategy, round_no, config.rounds):
                    continue
                # Each bid draws from its own rng stream, so it does not
                # depend on the bids built before it.
                rng = _child_rng(seed, f"bid:{auction_no}:{round_no}:{actor.index}")
                ring = _choose_ring(group, order, points, actor.own, config, rng)
                price = high + _PRICE_BUMPS[actor.strategy] + actor.index
                bid = actor.agent.place_bid(auction_no, round_no, price, ring, rng)
                if actor.strategy == INVALID_SIGNATURE:
                    broken = group.add(bid.signature.s1, group.g)
                    bid = replace(bid, signature=replace(bid.signature, s1=broken))
                messages[actor.name, "bidding"] += 1
                admitted = am.admit_bid(bid)
                if admitted:
                    actor.last_admitted = admitted.seq
        am.close_auction(auction_no)

        counter.set_phase("winner")
        try:
            winner_seq = am.determine_winner(auction_no)
        except Exception as exc:
            raise ScenarioError(f"auction {auction_no}: {exc}") from exc

        counter.set_phase("open")
        try:
            pub_key, identity = open_protocol(am, rm, winner_seq)
            for actor in actors:  # a repudiated bid's opening evicts its signer
                seq = actor.last_admitted
                if (actor.strategy == REPUDIATOR and seq is not None
                        and board.heads[seq].auction_id == auction_no):
                    open_protocol(am, rm, seq, malicious=True)
        except Untraceable as exc:  # no slot, or several, match the tracing test
            raise ScenarioError(f"auction {auction_no}: opening failed: {exc}") from exc
        winners.append(WinnerSummary(*board.winners[auction_no],
                                     group.encode_point(pub_key).hex(), identity))

    return ScenarioResult(
        transcript=render_transcript(board),
        report=counter,
        messages=messages,
        winners=tuple(winners),
        evicted=tuple(payload.hex() for kind, payload in board.entries() if kind == KEY_EVICTED),
        public_params=pp,
        trace_key=trace_key,
    )


# ---------------------------------------------------------------------------
# transcript rendering and public replay

def render_transcript(board: BulletinBoard) -> bytes:
    header = f"{_TRANSCRIPT_HEADER}{public_params_to_json(board.pp).hex()}\n"
    return (header + "".join(f"{seq} {kind} {payload.hex()}\n"
                             for seq, (kind, payload) in enumerate(board.entries()))).encode()


class Transcript(NamedTuple):  # params is None only for the empty transcript
    params: PublicParams | None
    records: tuple[tuple[str, bytes], ...]  # (kind, payload), as the board stores them


def read_transcript(data: bytes) -> Transcript:
    """Inverse of render_transcript: takes only the bytes it writes, each line
    ending with ``\\n``, record i with seq ``str(i)``, a known kind and a
    lowercase hex payload.  Every record is read before the header is
    decoded.  Raises MalformedBoard, its line number counting the header, for
    text that is not UTF-8, a malformed record, or a missing or bad header.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedBoard("transcript is not utf-8 text") from None
    header, newline, records = text.partition("\n")
    first = 2
    if not header.startswith(_TRANSCRIPT_HEADER):
        header, records, first = None, text, 1
    lines = records.split("\n")
    if lines.pop():  # the text after the last newline
        raise MalformedBoard("line does not end with a newline", line=first + len(lines))
    entries = []
    for lineno, line in enumerate(lines, start=first):
        parts = line.split(" ")
        if len(parts) != 3:
            raise MalformedBoard("record is not 'seq kind payload'", line=lineno)
        seq, kind = len(entries), parts[1]
        if parts[0] != str(seq):
            raise MalformedBoard("seq is not the record's position", line=lineno, seq=seq)
        if kind not in ENTRY_KINDS:
            raise MalformedBoard(f"unknown record kind {kind!r}", line=lineno, seq=seq)
        try:
            payload = bytes.fromhex(parts[2])
        except ValueError:
            payload = None
        if payload is None or payload.hex() != parts[2]:
            raise MalformedBoard("payload is not lowercase hex", line=lineno, seq=seq)
        entries.append((kind, payload))
    if header is None:
        if entries:
            raise MalformedBoard("missing params header")
        return Transcript(None, ())
    params_hex = header[len(_TRANSCRIPT_HEADER):]
    try:
        pp = public_params_from_json(bytes.fromhex(params_hex))
    except (ValueError, GroupError) as exc:
        raise MalformedBoard(f"bad params header: {exc}") from exc
    if not newline or public_params_to_json(pp).hex() != params_hex:
        raise MalformedBoard("params header is not as render_transcript writes it", line=1)
    return Transcript(pp, tuple(entries))


@dataclass(frozen=True)
class TranscriptReport:
    valid: bool
    failing_seq: int | None = None
    reason: str | None = None
    records: int = 0
    winners: tuple[tuple[int, int, int], ...] = ()  # (auction_id, seq, price)
    # (seq, "verified" | "failed: <reason>" | "not needed") per posted bid read
    outcomes: tuple[tuple[int, str], ...] = ()
    # The replayed board; None for an invalid transcript or one with no header.
    board: BulletinBoard | None = None
    failing_line: int | None = None  # line number of a record that fails to parse

    def __bool__(self) -> bool:
        return self.valid


def verify_transcript(data: bytes) -> TranscriptReport:
    """Replay a transcript using public data only: ``read_transcript``, then
    each record appended to a fresh ``registry.BulletinBoard``, its one write
    path, so a transcript is valid exactly when a live board takes each record.

    The board checks every posted point but decodes only the bids the winner
    rule verifies: each announced winner and the bids of its auction ranked
    ahead of it, each at most once; ``outcomes`` records which.  Bids whose
    signatures fail are legitimate content — admission is lazy — but can
    never be announced winners.  The report's ``board`` decodes any other
    posted bid on request (``BulletinBoard.bid``).
    """
    try:
        pp, entries = read_transcript(data)
    except MalformedBoard as exc:
        return TranscriptReport(False, failing_seq=exc.seq, reason=exc.reason,
                                failing_line=exc.line)
    if pp is None:
        return TranscriptReport(True)
    board = BulletinBoard(pp)

    def outcomes() -> tuple[tuple[int, str], ...]:
        said = {seq: "verified" if ok else f"failed: {ok.reason}"
                for seq, ok in board.results.items()}
        return tuple((seq, said.get(seq, "not needed")) for seq in board.heads)

    try:
        for entry in entries:
            board.append(*entry)
    except MalformedBoard as exc:
        return TranscriptReport(False, failing_seq=exc.seq, reason=exc.reason,
                                outcomes=outcomes())
    return TranscriptReport(True, records=len(entries), winners=tuple(board.winners.values()),
                            outcomes=outcomes(), board=board)


# ---------------------------------------------------------------------------
# cost accounting

@dataclass(frozen=True)
class EfficiencySummary:
    k: int
    rows: Mapping[int, Mapping[str, int]]  # ring size -> one signing's op tally
    slope: float
    slope_ok: bool  # one integer step per added member between consecutive sizes
    all_within_budget: bool  # nominal signing budget: 5*l + k + 2 exponentiations
    one_hash_per_signing: bool
    table: str


def measure_signing(ring_size: int, k: int) -> OpCounter:
    """Count exactly one signing, as phase ``bidding``, over a fresh ring of
    ``ring_size`` keys, in a 16-bit group drawn from a fixed seed."""
    seed = 2024
    pp, _ = authority_setup(16, 16, k, seed)
    keypairs = [keygen(pp, _child_rng(seed, f"key:{i}")) for i in range(ring_size)]
    ring = Ring(pp.group, [kp.pub_key for kp in keypairs])
    signer = keypairs[0]
    counter = OpCounter()
    with count_ops(counter):
        counter.set_phase("bidding")
        sign(pp, ring, signer, b"cost probe", _child_rng(seed, "sig"))
    return counter


def efficiency_sweep(ring_sizes: tuple[int, ...] = (1, 2, 4, 8), k: int = 160) -> EfficiencySummary:
    """Measure signing cost across ring sizes and its growth per added member.

    The budget 5*l + k + 2 is an upper bound, not a prediction: the measured
    exponentiation count is the exact tally and is reported beside it.
    """
    if len(set(ring_sizes)) < 2:
        raise ValueError("the slope needs at least two ring sizes")
    rows = {l: measure_signing(l, k).phase("bidding") for l in ring_sizes}
    exps = {l: tally.get("exp", 0) for l, tally in rows.items()}
    sizes = sorted(exps)
    steps = {(exps[b] - exps[a]) / (b - a) for a, b in zip(sizes, sizes[1:])}
    slope = (exps[sizes[-1]] - exps[sizes[0]]) / (sizes[-1] - sizes[0])
    slope_ok = len(steps) == 1 and slope.is_integer()
    header = (
        f"signing cost, k={k} (budget = 5*l + k + 2 exponentiations; the budget is\n"
        f"an upper bound — measured counts are exact tallies and run well below it)\n"
        f"{'l':>3} {'exp':>6} {'budget':>7} {'adds':>6} {'negs':>6} {'hashes':>7} {'pairings':>9}\n"
    )
    body = "".join(
        f"{l:>3} {exps[l]:>6} {5 * l + k + 2:>7} {tally.get('mul', 0):>6} "
        f"{tally.get('inv', 0):>6} {tally.get('hash', 0):>7} {tally.get('pair', 0):>9}\n"
        for l, tally in rows.items()
    )
    footer = f"exponentiations per added ring member: {slope:.3f}\n"
    return EfficiencySummary(
        k=k,
        rows=rows,
        slope=slope,
        slope_ok=slope_ok,
        all_within_budget=all(e <= 5 * l + k + 2 for l, e in exps.items()),
        one_hash_per_signing=all(tally.get("hash", 0) == 1 for tally in rows.values()),
        table=header + body + footer,
    )
