"""Conditionally anonymous English auctions built on revocable ring signatures.

The package has five layers:

- :mod:`ringauction.group` — a composite-order bilinear group on a
  supersingular curve, with a modified Tate pairing and operation counting;
- :mod:`ringauction.ringsig` — the ring signature scheme: anyone can sign on
  behalf of a set of public keys, signatures are unlinkable, and the holder
  of the trace key (the group order's secret factor) can identify the signer;
- :mod:`ringauction.registry` — one-time identity registration and the
  append-only bulletin board that every protocol message lands on;
- :mod:`ringauction.auction` — bid admission, winner determination, and the
  open protocol that de-anonymizes only the winner (or a cheat, who is then
  evicted);
- :mod:`ringauction.harness` — seeded end-to-end scenarios, public transcript
  replay, and signing-cost reports read from an ``OpCounter``.

All parameters in the examples and tests are toy-sized for speed; nothing
here is hardened for production use.
"""

from .auction import (
    AuctionError,
    AuctionManager,
    Bid,
    BidderAgent,
    NoValidBid,
    decode_bid_message,
    encode_bid_message,
    open_protocol,
    parse_bid_payload,
    serialize_bid_payload,
)
from .group import (
    GroupError,
    GroupParams,
    InvalidPoint,
    OpCounter,
    PairingGroup,
    count_ops,
    gen_group_params,
    group_from_primes,
)
from .harness import (
    EfficiencySummary,
    ScenarioConfig,
    ScenarioResult,
    TranscriptReport,
    efficiency_sweep,
    measure_signing,
    parse_scenario,
    render_transcript,
    run_scenario,
    verify_transcript,
)
from .registry import (
    BulletinBoard,
    DuplicateKey,
    InvalidProof,
    RegistrationManager,
    RegistryError,
    board_to_text,
    make_registration,
    parse_board_text,
    verify_registration,
)
from .ringsig import (
    BidderKeyPair,
    NotVerified,
    PublicParams,
    Ring,
    RingSignature,
    TraceKey,
    Untraceable,
    VerifyResult,
    keygen,
    public_params_from_json,
    public_params_to_json,
    setup,
    sign,
    trace,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "AuctionError",
    "AuctionManager",
    "Bid",
    "BidderAgent",
    "BidderKeyPair",
    "BulletinBoard",
    "DuplicateKey",
    "EfficiencySummary",
    "GroupError",
    "GroupParams",
    "InvalidPoint",
    "InvalidProof",
    "NoValidBid",
    "NotVerified",
    "OpCounter",
    "PairingGroup",
    "PublicParams",
    "RegistrationManager",
    "RegistryError",
    "Ring",
    "RingSignature",
    "ScenarioConfig",
    "ScenarioResult",
    "TraceKey",
    "TranscriptReport",
    "Untraceable",
    "VerifyResult",
    "board_to_text",
    "count_ops",
    "decode_bid_message",
    "efficiency_sweep",
    "encode_bid_message",
    "gen_group_params",
    "group_from_primes",
    "keygen",
    "make_registration",
    "measure_signing",
    "open_protocol",
    "parse_bid_payload",
    "parse_board_text",
    "parse_scenario",
    "public_params_from_json",
    "public_params_to_json",
    "render_transcript",
    "run_scenario",
    "serialize_bid_payload",
    "setup",
    "sign",
    "trace",
    "verify",
    "verify_registration",
    "verify_transcript",
]
