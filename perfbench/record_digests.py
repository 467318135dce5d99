"""Record the transcript digests that perfbench/run.py checks.

Usage (from the repository root): python3 perfbench/record_digests.py

For each workload and each seed in ``recorded_seeds`` of workloads.json,
runs the workload's ``lifecycles`` iterations of the scenario and stores the
SHA-256 of each transcript.  Transcripts are meant to stay byte-identical
across refactors, so rerun this only when the transcript format changes on
purpose.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from run import HERE, ROOT, derive_seed


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from ringauction.harness import parse_scenario, run_scenario

    path = HERE / "workloads.json"
    spec = json.loads(path.read_text())
    for name, workload in spec["workloads"].items():
        scenario = (HERE / workload["scenario"]).read_text()
        workload["digests"] = {}
        for seed in spec["recorded_seeds"]:
            digests = []
            for index in range(workload["lifecycles"]):
                config = parse_scenario(scenario + f"seed = {derive_seed(seed, index)}\n")
                transcript = run_scenario(config, counted=False).transcript
                digests.append(hashlib.sha256(transcript).hexdigest())
            workload["digests"][str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
    path.write_text(json.dumps(spec, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
