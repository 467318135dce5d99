"""ringauction benchmark: seeded auction lifecycles, timed role by role.

Usage (from the repository root):

    python3 perfbench/run.py --workload ring16 --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

A workload is a scenario file under ``perfbench/workloads``; its reasons and
recorded transcript digests are in ``perfbench/workloads.json``.  One
lifecycle is the authority's ``ringauction setup``, the scenario's
``ringauction run`` and the auditor's ``ringauction verify``, each the first
call of its own fresh worker process, so no process-wide memo can carry work
from one role into another.  Iteration ``i`` of a run uses scenario seed
``derive_seed(seed, i)``, so no timed call sees the same input twice.  The
loop is closed with one client (this script); no threads are started.

``--trace 0`` runs the workload's fixed number of lifecycles (``lifecycles``
in workloads.json), so every version of the program is measured on the same
scenario seeds, and reports the end-to-end metrics (see ``end_to_end``),
each timing scaled to a reference speed by ``speed.py``; the raw samples
are kept in ``.perfbench/<workload>/samples.json``.
``--seconds`` is only a cap: once it has passed no further lifecycle starts
and the run fails a check.  ``--trace 1`` runs iteration 0 once
untraced and twice with every layer's spans installed, all three with the
harness's op counts on, and reports the per-layer metrics of the first
traced lifecycle; its spans are written to
``.perfbench/<workload>/*.spans.jsonl``.  Every run checks the program's
outputs; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import P50_SPANS, SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
BUDGET_S = 170  # each invocation must end within 180 s

# Spans reported per phase.  Replay keeps group.mul although verify does no
# scalar multiplication today: a nonzero count there is news.
PHASE_SPANS = {
    "setup": ("cli.main", "group.gen_group_params", "ringsig.setup", "group.mul"),
    "run": tuple(name for name in SPANS if name not in (
        "ringsig.deserialize_signature", "auction.parse_bid_payload",
        "harness.verify_transcript")),
    "replay": ("cli.main", "harness.verify_transcript", "auction.parse_bid_payload",
               "ringsig.deserialize_signature", "ringsig.verify", "group.decode_point",
               "group.hash_to_bits", "group.add", "group.pair", "group.mul"),
}
PHASE_ROLE = {"setup": "setup", "run": "run", "replay": "verify"}

# The harness's OpCountReport tallies that are nonzero on every workload.
OPS = ("initial.exp",
       "registration.exp", "registration.mul", "registration.inv", "registration.hash",
       "bidding.exp", "bidding.mul", "bidding.inv", "bidding.hash",
       "winner.mul", "winner.inv", "winner.hash", "winner.pair",
       "open.exp", "open.mul", "open.inv", "open.hash", "open.pair")


def derive_seed(seed: int, index: int) -> int:
    """Scenario seed of iteration ``index`` of a run at benchmark seed ``seed``."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{index}".encode()).digest()[:4], "big")


class Workload:
    def __init__(self, name: str, spec: dict) -> None:
        from ringauction.harness import parse_scenario

        self.name = name
        self.scenario = (HERE / spec["scenario"]).read_text()
        self.lifecycles = spec["lifecycles"]
        self.digests = spec["digests"]
        config = parse_scenario(self.scenario)
        self.sizes = [str(config.p_bits), str(config.q_bits), str(config.k)]
        self.auctions = config.auctions


class Checks:
    """Correctness checks of one run; each failure is named."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def call(role: str, argv: list[str], deadline: float, *, cpu: int | None = None,
         traced: bool = False, probe: bool = False, spans_out: Path | None = None) -> dict:
    """Run one role in a fresh worker process, pinned to ``cpu``, and return its report."""
    job = json.dumps({"role": role, "argv": argv, "cpu": cpu, "traced": traced, "probe": probe,
                      "spans_out": str(spans_out) if spans_out else None})
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), job],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"{role} worker timed out"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"rc": None, "error": proc.stderr[-2000:]}
    return json.loads(proc.stdout.splitlines()[-1])


def record_kinds(transcript: bytes) -> list[str]:
    return [line.split(" ")[1] for line in transcript.decode(errors="replace").splitlines()[1:]
            if line.count(" ") == 2]


def lifecycle(workload: Workload, seed: int, index: int, checks: Checks, deadline: float,
              *, tag: str, traced: bool = False, counts: bool = False,
              probe: bool = False) -> dict:
    """setup, run and verify for iteration ``index``, each in a fresh process.

    ``counts`` passes ``--counts`` to ``run``; traced lifecycles and their
    untraced baseline set it, so the two differ only in their spans.

    Iterations take the allowed CPUs in turn, so a run samples each of them.
    ``probe`` times each role against the reference loop of ``speed.py``.
    """
    work = OUT / workload.name
    cpus = sorted(os.sched_getaffinity(0))
    cpu = cpus[index % len(cpus)]
    scenario_seed = derive_seed(seed, index)
    scenario = work / f"{tag}.cfg"
    scenario.write_text(workload.scenario + f"seed = {scenario_seed}\n")
    transcript = work / f"{tag}.transcript"
    p_bits, q_bits, k = workload.sizes

    def spans_out(phase):
        return work / f"{tag}.{phase}.spans.jsonl" if traced else None

    setup = call("setup", ["--p-bits", p_bits, "--q-bits", q_bits, "--k", k,
                           "--seed", str(scenario_seed), "--out", str(work / f"{tag}.params.json")],
                 deadline, cpu=cpu, traced=traced, probe=probe, spans_out=spans_out("setup"))
    run = call("run", ["--scenario", str(scenario), "--out", str(transcript)]
               + (["--counts"] if counts else []),
               deadline, cpu=cpu, traced=traced, probe=probe, spans_out=spans_out("run"))
    verify = call("verify", ["--transcript", str(transcript)],
                  deadline, cpu=cpu, traced=traced, probe=probe, spans_out=spans_out("replay"))
    for role, report in (("setup", setup), ("run", run), ("verify", verify)):
        if not checks.check(report["rc"] == 0, f"{tag}: {role} exits 0"):
            print(f"{tag}: {role} rc={report['rc']} {report.get('error') or ''}".rstrip(),
                  file=sys.stderr)
    data = transcript.read_bytes() if transcript.exists() else b""
    kinds = record_kinds(data)
    checks.check(kinds.count("winner-announced") == workload.auctions,
                 f"{tag}: one winner announced per auction")
    recorded = workload.digests.get(str(seed))
    if recorded is not None:
        checks.check(index < len(recorded) and hashlib.sha256(data).hexdigest() == recorded[index],
                     f"{tag}: transcript digest matches the recorded one")
    return {"setup": setup, "run": run, "verify": verify, "transcript": data,
            "path": transcript, "posted": kinds.count("bid-posted")}


def tamper_check(workload: Workload, transcript: Path, checks: Checks, deadline: float) -> None:
    """A copy whose first announced winner carries a shifted s1 must fail replay."""
    tampered = OUT / workload.name / "tampered.transcript"
    made = call("tamper", [str(transcript), str(tampered)], deadline)
    verdict = call("verify", ["--transcript", str(tampered)], deadline) if made["rc"] == 0 else made
    checks.check(verdict["rc"] == 1, "tampered transcript makes verify exit 1")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def decile(values, index: int) -> float:
    return statistics.quantiles(values, n=10)[index] if len(values) >= 2 else median(values)


def end_to_end(workload: Workload, lifecycles: list[dict]) -> tuple[dict, dict]:
    """Gated metrics and informational figures: name -> (value, unit, samples).

    Every timing is the program's time scaled to the reference speed (see
    ``speed.py``), so a host that slows by 1.7x for a second or two moves it
    by a few percent, not by 70%.  A role's time is the median over the
    run's lifecycles; bid latency is the median and 90th percentile of every
    bid in them.  The plain wall times are printed alongside, not gated.
    """
    ok = [lc for lc in lifecycles if lc["run"]["rc"] == 0]
    bids = [ms for lc in ok for ms in lc["run"]["summary"]["bid_ms"]]
    announces = [statistics.mean(lc["run"]["summary"]["announce_ms"]) for lc in ok
                 if lc["run"]["summary"]["announce_ms"]]
    sizes = [len(lc["transcript"]) for lc in lifecycles if lc["transcript"]]
    samples = {f"{name}_s": [lc[role]["scaled_s"] for lc in lifecycles if lc[role]["rc"] == 0]
               for name, role in (("setup", "setup"), ("run", "run"), ("replay", "verify"))}
    walls = {f"{name}_wall_s": [lc[role]["elapsed_s"] for lc in lifecycles if lc[role]["rc"] == 0]
             for name, role in (("setup", "setup"), ("run", "run"), ("replay", "verify"))}
    samples.update(announce_ms=announces, bid_ms=bids, **walls)
    (OUT / workload.name / "samples.json").write_text(json.dumps(samples))

    def mid(name, unit, what):
        values = samples[name]
        return median(values), unit, f"median of {len(values)} {what}"

    metrics = {
        "setup_s": mid("setup_s", "s", "setups"),
        "run_s": mid("run_s", "s", "runs"),
        "replay_s": mid("replay_s", "s", "replays"),
        "bid_ms_p50": (median(bids), "ms", f"p50 of {len(bids)} bids"),
        "bid_ms_p90": (decile(bids, 8), "ms", f"p90 of {len(bids)} bids"),
        "announce_ms": mid("announce_ms", "ms", "lifecycles, each its mean per auction"),
        "transcript_bytes": (median(sizes), "B", f"median of {len(sizes)} transcripts"),
    }
    info = {name: mid(name, "s", "calls, wall time, not gated") for name in walls}
    return metrics, info


def exact_counts(lc: dict) -> dict:
    counts = {phase: lc[role].get("summary", {}).get("calls") for phase, role in PHASE_ROLE.items()}
    counts["ops"] = lc["run"].get("summary", {}).get("ops")
    return counts


def per_layer(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced lifecycle: name -> (value, unit, samples)."""
    metrics = {}
    summaries = {phase: traced[role].get("summary") or {} for phase, role in PHASE_ROLE.items()}
    for phase, names in PHASE_SPANS.items():
        summary = summaries[phase]
        for name in names:
            calls = summary.get("calls", {}).get(name, 0)
            metrics[f"{phase}.{name}.calls"] = (calls, "count", "exact")
            metrics[f"{phase}.{name}.self_s"] = (
                summary.get("self_s", {}).get(name, 0.0), "s", f"sum over {calls} calls")
    for name in P50_SPANS:
        times = [ms for s in summaries.values() for ms in s.get("call_ms", {}).get(name, [])]
        metrics[f"{name}.ms_p50"] = (median(times), "ms", f"p50 of {len(times)} calls")

    def ratio(num, den):
        return num / den if den else 0.0

    run, replay = summaries["run"], summaries["replay"]
    for phase, summary, name, label in (
            ("run", run, "auction.admit_bid", "accepted_ratio"),
            ("run", run, "ringsig.verify", "ok_ratio"),
            ("replay", replay, "ringsig.verify", "ok_ratio")):
        ok = summary.get("true", {}).get(name, 0)
        calls = summary.get("calls", {}).get(name, 0)
        metrics[f"{phase}.{name}.{label}"] = (ratio(ok, calls), "ratio", f"{ok} of {calls}")
    winners = run.get("calls", {}).get("auction.determine_winner", 0)
    under = run.get("verifies_under_winner", 0)
    metrics["run.auction.determine_winner.verifies_per_winner"] = (
        ratio(under, winners), "ratio", f"{under} verifies over {winners} winners")
    replayed = replay.get("calls", {}).get("ringsig.verify", 0)
    metrics["replay.ringsig.verify.per_posted_bid"] = (
        ratio(replayed, traced["posted"]), "ratio",
        f"{replayed} verifies over {traced['posted']} posted bids")
    overhead = (traced["run"].get("elapsed_s", 0.0) - untraced["run"].get("elapsed_s", 0.0))
    metrics["tracing_overhead_s"] = (overhead, "s",
                                     "traced run_s minus untraced run_s, one pair, both counted")
    ops = run.get("ops") or {}
    for key in OPS:
        phase, op = key.split(".")
        metrics[f"ops.{key}"] = (ops.get(phase, {}).get(op, 0), "count", "exact")
    return metrics


def bench(workload: Workload, seed: int, seconds: int, trace: bool, deadline: float):
    """One workload's run: returns (metrics, informational figures, checks)."""
    shutil.rmtree(OUT / workload.name, ignore_errors=True)
    (OUT / workload.name).mkdir(parents=True)
    checks = Checks()
    if str(seed) not in workload.digests:
        print(f"note: seed {seed} has no recorded digests; transcripts are checked by replay only")
    if trace:
        untraced = lifecycle(workload, seed, 0, checks, deadline, tag="untraced", counts=True)
        first = lifecycle(workload, seed, 0, checks, deadline, tag="traced-1",
                          traced=True, counts=True)
        second = lifecycle(workload, seed, 0, checks, deadline, tag="traced-2",
                           traced=True, counts=True)
        for lc in (first, second):
            checks.check(lc["transcript"] == untraced["transcript"],
                         "traced transcript equals the untraced one")
        checks.check(exact_counts(first) == exact_counts(second),
                     "two traced runs report identical calls and ops counts")
        absent = sorted({name for lc in (first, second) for role in PHASE_ROLE.values()
                         for name in lc[role].get("absent", [])})
        if absent:
            print("absent spans (listed function no longer exists): " + ", ".join(absent))
        metrics = per_layer(first, untraced)
        tamper_check(workload, untraced["path"], checks, deadline)
        return metrics, {}, checks

    lifecycles = []
    start = time.monotonic()
    for index in range(workload.lifecycles):
        lifecycles.append(lifecycle(workload, seed, index, checks, deadline, tag=f"iter-{index}",
                                    probe=True))
        spent = time.monotonic() - start
        if spent > seconds:
            break
    print(f"{len(lifecycles)} of {workload.lifecycles} lifecycles in {spent:.1f} s")
    checks.check(len(lifecycles) == workload.lifecycles and spent <= seconds,
                 f"{workload.lifecycles} lifecycles end within --seconds {seconds}")
    tamper_check(workload, lifecycles[0]["path"], checks, deadline)
    return (*end_to_end(workload, lifecycles), checks)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the recorded default seed)")
    parser.add_argument("--seconds", type=int, default=45,
                        help="cap on the measured lifecycles; exceeding it fails the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ringauction" / "__init__.py").is_file():
        print(f"no ringauction sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "workloads.json").read_text())
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    if any(name not in spec["workloads"] for name in names):
        parser.error(f"unknown workload; choose from {', '.join(spec['workloads'])} or all")
    seed = spec["default_seed"] if args.seed is None else args.seed
    sys.path.insert(0, str(ROOT / "src"))
    deadline = time.monotonic() + BUDGET_S

    attempted, failures, result = 0, [], {}
    for name in names:
        metrics, info, checks = bench(Workload(name, spec["workloads"][name]), seed,
                                      args.seconds, bool(args.trace), deadline)
        attempted += checks.attempted
        failures += [f"{name}: {failure}" for failure in checks.failures]
        print(f"== {name} (seed {seed}, {'traced' if args.trace else 'untraced'})")
        for metric, (value, unit, samples) in metrics.items():
            print(f"{metric:<56} {value:>14.6g} {unit:<6} {samples}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            result[key] = {"value": value, "unit": unit}
        for metric, (value, unit, samples) in info.items():
            print(f"{metric:<56} {value:>14.6g} {unit:<6} {samples}")
        print(f"{'failed_ratio':<56} {len(checks.failures)}/{checks.attempted} checks")
    for failure in failures:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
