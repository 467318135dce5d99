"""Run one ringauction role in a fresh process and time it.

Usage: python3 perfbench/worker.py JOB_JSON

JOB_JSON holds "role" (setup, run, verify or tamper), "argv" (the CLI
arguments after the subcommand), "cpu" (pin to this CPU, or null), "traced",
"probe" (time the call against ``speed.py``'s reference loop) and
"spans_out".  The worker imports the package from the checkout's ``src``,
installs its spans, makes the call as the process's first ringauction work,
and prints one JSON line with the exit code, the wall time of the call, its
time at the reference speed if probed, and the span summary.

Untraced workers wrap only the role entry points (a bid, an auction's
announcement, a replay), each of which lasts a millisecond or more; traced
workers wrap every span in ``spans.SPANS``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

import spans
from speed import Probe

SRC = Path(__file__).resolve().parent.parent / "src"


def tamper(transcript: str, out: str) -> None:
    """Write a copy cut after the first winner announcement, with that winner's
    s1 shifted by g in both its bid-posted and winner-announced records."""
    from dataclasses import replace

    from ringauction.auction import parse_bid_payload, serialize_bid_payload
    from ringauction.ringsig import public_params_from_json

    lines = Path(transcript).read_text().splitlines()
    group = public_params_from_json(bytes.fromhex(lines[0].split(" ", 1)[1])).group
    records = [line.split(" ") for line in lines[1:]]
    cut = next(i for i, (_, kind, _) in enumerate(records) if kind == "winner-announced")
    payload = bytes.fromhex(records[cut][2])
    ref, body = payload[:8], payload[8:]
    bid = parse_bid_payload(group, body)
    shifted = replace(bid, signature=replace(bid.signature,
                                             s1=group.add(bid.signature.s1, group.g)))
    forged = serialize_bid_payload(shifted)
    for record in records[:cut]:
        if record[0] == str(int.from_bytes(ref, "big")):
            record[2] = forged.hex()
    records[cut][2] = (ref + forged).hex()
    kept = [lines[0]] + [" ".join(record) for record in records[:cut + 1]]
    Path(out).write_text("".join(line + "\n" for line in kept))


def main() -> int:
    job = json.loads(sys.argv[1])
    if job.get("cpu") is not None:
        os.sched_setaffinity(0, {job["cpu"]})
    sys.path.insert(0, str(SRC))
    import ringauction  # noqa: F401  (loads every submodule before patching)
    from ringauction import cli

    if job["role"] == "tamper":
        tamper(*job["argv"])
        print(json.dumps({"rc": 0}))
        return 0

    recorder = spans.Recorder()
    names = list(spans.SPANS) if job["traced"] else [
        name for name in spans.ROLES if name != "harness.verify_transcript"]
    absent = spans.install(recorder, names)
    probe = Probe() if job.get("probe") else None
    out = io.StringIO()
    error = None
    with probe or contextlib.nullcontext():
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main([job["role"], *job["argv"]])
        except Exception:  # reported to run.py as a failed call
            rc, error = None, traceback.format_exc()
        end = time.perf_counter_ns()
    if job.get("spans_out"):
        recorder.dump(job["spans_out"])
    report = {"rc": rc, "error": error, "elapsed_s": (end - start) / 1e9, "absent": absent}
    if probe:
        report["scaled_s"] = probe.scaled(start, end) / 1e9
    report["summary"] = recorder.summary(probe and probe.scaled)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
