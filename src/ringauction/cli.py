"""Command-line front end: setup, run, verify, trace.

``harness.verify_transcript`` is the one reader of a transcript: it folds the
records into a ``registry.BulletinBoard``.  So ``trace`` opens one bid only
from a transcript that verifies: after ``ringsig.check_trace_key`` it runs
the auction side's ``auction.trace_bid`` on the replayed board, which reads
the bid and its verdict by seq; a bid no single member can be named for
prints ``ringsig.Untraceable``'s own words.  The commands map outcomes to
exit codes.

Exit codes: 0 success, 1 a protocol-level negative (invalid transcript,
failed signature, no unique traced member, a scenario that fails mid-run),
2 bad usage, unreadable input, a bad trace key or an output file that
cannot be written.

Each role runs as one fresh process, so options are read from the literal table
``COMMANDS``, which also writes every -h text: argparse cost each role about
2.5 ms, as it loads gettext and locale and builds a parser per command.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .harness import (
    ScenarioError,
    authority_setup,
    parse_scenario,
    run_scenario,
    verify_transcript,
)
# After harness, which loads auction: loading auction first moves the cyclic
# GC's import-time generation-1 pass into each role's first call (ROADMAP item 2).
from .auction import trace_bid
from .ringsig import NotVerified, TraceKey, Untraceable, check_trace_key, public_params_to_json

# command -> (help, option -> (type, default, help)); default ... = required, bool = flag
COMMANDS = {
    "setup": ("generate public parameters and a trace key", {
        "--p-bits": (int, 16, "bits of the prime p"),
        "--q-bits": (int, 16, "bits of the prime q"),
        "--k": (int, 16, "message-hash output bits"),
        "--seed": (int, 0, "seed of the authority's randomness"),
        "--out": (str, ..., "public parameters file (JSON)"),
        "--tracekey-out": (str, None, "trace key file (default: OUT + '.tracekey')")}),
    "run": ("run a scenario file and write its transcript", {
        "--scenario": (str, ..., "scenario file"),
        "--out": (str, ..., "transcript file"),
        "--counts": (bool, False, "print per-phase operation counts"),
        "--tracekey-out": (str, None, "also write the trace key to this file")}),
    "verify": ("replay a transcript from public data", {
        "--transcript": (str, ..., "transcript file")}),
    "trace": ("verify one posted bid, then trace it to its ring member", {
        "--transcript": (str, ..., "transcript file"),
        "--seq": (int, ..., "seq of the posted bid"),
        "--tracekey": (str, ..., "trace key file")}),
}


def _help(command) -> str:
    """The -h text of ``command`` (of the program if None), usage line first."""
    if command is None:
        usage = "[-h] {" + ",".join(COMMANDS) + "} ..."
        about = "Anonymous English auctions over revocable ring signatures.\n\ncommands:"
        rows = [(name, text) for name, (text, _) in COMMANDS.items()]
    else:
        (about, options), usage = COMMANDS[command], f"{command} [-h] [options]"
        about += "\n\noptions:"
        rows = [(opt if kind is bool else f"{opt} {opt[2:].replace('-', '_').upper()}",
                 text + " (required)" * (default is ...))
                for opt, (kind, default, text) in options.items()]
    return "\n".join([f"usage: ringauction {usage}", "", about,
                      *(f"  {word:<30}{text}" for word, text in rows)])


def _parse(command, words) -> SimpleNamespace:
    """The options ``words`` give ``command``; a ValueError names a usage error."""
    options = COMMANDS[command][1]
    values = {opt: spec[1] for opt, spec in options.items()}
    rest = iter(words)
    for word in rest:
        opt, eq, value = word.partition("=")
        kind = options.get(opt, (None,))[0]
        if kind is None or kind is bool and eq:
            raise ValueError(f"unrecognized argument {word}")
        if not eq:  # a flag takes no word (bool("1") is True), other options the next
            value = "1" if kind is bool else next(rest, "-")
        if not value.removeprefix("-").isdigit() and (kind is int or not eq and value[:1] == "-"):
            raise ValueError(f"{opt} needs {'an integer' if kind is int else 'a value'}")
        values[opt] = kind(value)
    if ... in values.values():
        raise ValueError("missing " + ", ".join(opt for opt, v in values.items() if v is ...))
    return SimpleNamespace(**{opt[2:].replace("-", "_"): v for opt, v in values.items()})


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
    try:
        pp, tk = authority_setup(args.p_bits, args.q_bits, args.k, args.seed)
    except ValueError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    tracekey_path = args.tracekey_out or args.out + ".tracekey"
    if not _write_files([(args.out, public_params_to_json(pp)),
                         (tracekey_path, f"{tk.q}\n".encode())]):
        return 2
    print(f"wrote public parameters to {args.out} "
          f"(group order {pp.group.n}, field size {pp.group.ell})")
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
        print(f"transcript valid: {len(report.board.entries())} records, "
              f"{len(report.winners)} announced winner(s)")
        for auction_id, seq, price in report.winners:
            print(f"  auction {auction_id}: bid seq {seq} at price {price}")
        return 0
    print(f"transcript INVALID{_failure(report)}")
    return 1


def _failure(report) -> str:
    """Where an invalid transcript failed, by seq and line when known, and why."""
    at = [f"{name} {value}" for name, value in
          (("seq", report.failing_seq), ("line", report.failing_line)) if value is not None]
    return (f" at {', '.join(at)}" if at else "") + f": {report.reason}"


def _cmd_trace(args) -> int:
    try:
        with open(args.transcript, "rb") as fh:
            data = fh.read()
        with open(args.tracekey) as fh:
            tk = TraceKey(int(fh.read().strip()))
    except (OSError, ValueError) as exc:
        print(f"cannot read inputs: {exc}", file=sys.stderr)
        return 2
    report = verify_transcript(data)
    if not report.valid:
        print(f"bad transcript{_failure(report)}", file=sys.stderr)
        return 2
    board = report.board
    try:
        check_trace_key(tk, board.pp)
        index, pub_key = trace_bid(board, tk, args.seq)
    except KeyError:
        print(f"seq {args.seq} is not a posted bid", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    except NotVerified as exc:
        print(f"bid seq {args.seq} does not verify: {exc}")
        return 1
    except Untraceable as exc:
        print(f"bid seq {args.seq}: {exc}")
        return 1
    print(f"bid seq {args.seq} traced to ring member {index}: "
          f"{board.group.encode_point(pub_key).hex()}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if "-h" in argv or "--help" in argv:
        print(_help(command))
        return 0
    try:
        if command is None:
            raise ValueError("choose a command: " + ", ".join(COMMANDS))
        args = _parse(command, argv[1:])
    except ValueError as exc:
        print(_help(command).partition("\n")[0], f"ringauction: error: {exc}",
              sep="\n", file=sys.stderr)
        return 2
    handlers = {"setup": _cmd_setup, "run": _cmd_run, "verify": _cmd_verify, "trace": _cmd_trace}
    return handlers[command](args)
