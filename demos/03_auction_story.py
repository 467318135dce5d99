"""One complete anonymous English auction, narrated.

Four bidders with different temperaments:

  bidder-0   honest, raises by the minimum each round
  bidder-1   posts garbage signatures on aggressive prices
  bidder-2   a sniper who only shows up for the final round, bidding high
  bidder-3   bids honestly, wins nothing, then tries to repudiate a bid

Everything below runs through the public bulletin board.  Watch for three
things: invalid bids sit on the board but can never win; the winner is
announced by re-checking signatures, not by trusting the poster; and the
repudiator is traced by the auctioneer's key and evicted, which removes
them from every later ring.
"""

from ringauction.harness import (
    HONEST,
    INVALID_SIGNATURE,
    REPUDIATOR,
    SNIPER,
    ScenarioConfig,
    run_scenario,
    verify_transcript,
)

config = ScenarioConfig(
    p_bits=16, q_bits=16, k=16, seed=7,
    bidders=4, rounds=2, auctions=2,
    strategies=(HONEST, INVALID_SIGNATURE, SNIPER, REPUDIATOR),
)
result = run_scenario(config)

print("=== bulletin board ===")
lines = result.transcript.decode().splitlines()
print(f"(params header omitted, {len(lines[0])} chars)")
for line in lines[1:]:
    seq, kind, payload = line.split(" ")
    print(f"  {seq:>3}  {kind:<18} {len(payload) // 2:>4} bytes")

print()
print("=== outcomes ===")
for w in result.winners:
    print(f"auction {w.auction_id}: winner {w.identity.decode()} "
          f"at price {w.price} (board seq {w.seq})")
for key_hex in result.evicted:
    print(f"evicted key: {key_hex[:16]}…")

print()
print("=== public replay ===")
# Anyone holding only the transcript bytes — no secret key, no trace key —
# can re-run the whole auction and confirm every announcement.
report = verify_transcript(result.transcript)
print(f"transcript valid: {report.valid}")
print(f"re-derived winners: {report.winners}")
assert report.valid
assert report.winners == tuple(
    (w.auction_id, w.seq, w.price) for w in result.winners)

print()
print("=== message economy ===")
for name in sorted({sender for sender, _ in result.messages}):
    reg = result.messages[name, "registration"]
    bids = result.messages[name, "bidding"]
    print(f"  {name}: {reg} registration + {bids} bid messages")
print()
print("Registration happens once per bidder, ever.  Each auction round costs")
print("one message per active bidder — there is no interactive challenge")
print("phase, which is the protocol's whole reason for existing.")
print()
print("Note that bidder-3 stops sending after the first auction: the")
print("repudiated bid was traced to their registered key and the key was")
print("evicted, so later rings simply exclude them.")
