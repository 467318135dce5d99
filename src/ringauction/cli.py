"""Command-line front end: setup, run, verify, trace.

``harness.read_transcript`` decodes the transcript header and
``ringsig.trace`` checks the trace key; the commands map outcomes to exit codes.

Exit codes: 0 success, 1 a protocol-level negative (invalid transcript,
failed signature, no unique traced member, a scenario that fails mid-run),
2 bad usage, unreadable input, a bad trace key or an output file that
cannot be written.
"""

from __future__ import annotations

import argparse
import random
import sys

from .auction import MalformedBid, parse_bid_payload
from .group import gen_group_params
from .harness import (
    ScenarioError,
    parse_scenario,
    read_transcript,
    run_scenario,
    verify_transcript,
)
from .registry import BID_POSTED, MalformedBoard
from .ringsig import NotVerified, TraceKey, public_params_to_json, setup, trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringauction",
        description="Anonymous English auctions over revocable ring signatures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_setup = sub.add_parser("setup", help="generate public parameters and a trace key")
    p_setup.add_argument("--p-bits", type=int, default=16)
    p_setup.add_argument("--q-bits", type=int, default=16)
    p_setup.add_argument("--k", type=int, default=16, help="message-hash output bits")
    p_setup.add_argument("--seed", type=int, default=0)
    p_setup.add_argument("--out", required=True, help="public parameters file (JSON)")
    p_setup.add_argument("--tracekey-out", default=None,
                         help="trace key file (default: OUT + '.tracekey')")

    p_run = sub.add_parser("run", help="run a scenario file and write its transcript")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--out", required=True, help="transcript file")
    p_run.add_argument("--counts", action="store_true",
                       help="print per-phase operation counts")
    p_run.add_argument("--tracekey-out", default=None,
                       help="also write the trace key to this file")

    p_verify = sub.add_parser("verify", help="replay a transcript from public data")
    p_verify.add_argument("--transcript", required=True)

    p_trace = sub.add_parser("trace",
                             help="verify one posted bid, then trace it to its ring member")
    p_trace.add_argument("--transcript", required=True)
    p_trace.add_argument("--seq", type=int, required=True)
    p_trace.add_argument("--tracekey", required=True)
    return parser


def _write_files(files) -> bool:
    for path, data in files:
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"cannot write {path}: {exc}", file=sys.stderr)
            return False
    return True


def _cmd_setup(args) -> int:
    rng = random.Random(f"{args.seed}:group")
    try:
        params = gen_group_params(args.p_bits, args.q_bits, rng)
        pp, tk = setup(params, args.k, random.Random(f"{args.seed}:setup"))
    except ValueError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    tracekey_path = args.tracekey_out or args.out + ".tracekey"
    if not _write_files([(args.out, public_params_to_json(pp)),
                         (tracekey_path, f"{tk.q}\n".encode())]):
        return 2
    print(f"wrote public parameters to {args.out} "
          f"(group order {params.n}, field size {params.ell})")
    print(f"wrote trace key to {tracekey_path}")
    return 0


def _cmd_run(args) -> int:
    try:
        with open(args.scenario) as fh:
            config = parse_scenario(fh.read())
    except (OSError, ValueError) as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_scenario(config, counted=args.counts)
    except ScenarioError as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        return 1
    files = [(args.out, result.transcript)]
    if args.tracekey_out:
        files.append((args.tracekey_out, f"{result.trace_key.q}\n".encode()))
    if not _write_files(files):
        return 2
    for win in result.winners:
        identity = win.identity.decode("utf-8", "replace")
        print(f"auction {win.auction_id}: winner {identity} "
              f"at price {win.price} (bid seq {win.seq})")
    for key_hex in result.evicted:
        print(f"evicted key {key_hex}")
    if args.counts:
        print("operation counts by phase:")
        for phase, counts in result.report.phases.items():
            if not counts:
                continue
            joined = " ".join(f"{op}={counts[op]}" for op in sorted(counts))
            print(f"  {phase}: {joined}")
    print(f"transcript written to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.transcript, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        print(f"cannot read transcript: {exc}", file=sys.stderr)
        return 2
    report = verify_transcript(data)
    if report.valid:
        print(f"transcript valid: {report.records} records, "
              f"{len(report.winners)} announced winner(s)")
        for auction_id, seq, price in report.winners:
            print(f"  auction {auction_id}: bid seq {seq} at price {price}")
        return 0
    where = "" if report.failing_seq is None else f" at seq {report.failing_seq}"
    print(f"transcript INVALID{where}: {report.reason}")
    return 1


def _cmd_trace(args) -> int:
    try:
        with open(args.transcript, "rb") as fh:
            data = fh.read()
        with open(args.tracekey) as fh:
            tk = TraceKey(int(fh.read().strip()))
    except (OSError, ValueError) as exc:
        print(f"cannot read inputs: {exc}", file=sys.stderr)
        return 2
    try:
        pp, entries = read_transcript(data)
    except MalformedBoard as exc:
        print(f"bad transcript: {exc}", file=sys.stderr)
        return 2

    entry = next((e for e in entries if e.seq == args.seq), None)
    if entry is None or entry.kind != BID_POSTED:
        print(f"seq {args.seq} is not a posted bid", file=sys.stderr)
        return 2
    grp = pp.group
    try:
        bid = parse_bid_payload(grp, entry.payload)
    except MalformedBid as exc:
        print(f"unreadable bid payload: {exc}", file=sys.stderr)
        return 2

    try:
        traced = trace(tk, pp, bid.ring, bid.message_bytes(), bid.signature)
    except ValueError as exc:  # a bad trace key
        print(exc, file=sys.stderr)
        return 2
    except NotVerified as exc:
        print(f"bid seq {args.seq} does not verify: {exc}")
        return 1
    if traced is None:
        print(f"bid seq {args.seq}: no unique ring member matched")
        return 1
    index, pub_key = traced
    print(f"bid seq {args.seq} traced to ring member {index}: "
          f"{grp.encode_point(pub_key).hex()}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    handlers = {
        "setup": _cmd_setup,
        "run": _cmd_run,
        "verify": _cmd_verify,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
