"""Spans around ringauction's public functions, installed from outside.

Each listed function is replaced by a wrapper that records one span per
call: name, start, end, parent span and request id.  Nothing in the
package is edited; the wrapper is patched in by identity, so a function
that another ringauction module imported by name (``auction.sign``,
``harness.verify``, ``cli.trace``, ...) is patched there too.  Methods are
patched on their class.  A listed function that no longer exists is
reported as absent, so a moved call site shows up instead of silently
reading as zero work.
"""

from __future__ import annotations

import json
import sys
import time

# span name -> (defining module, attribute); "Class.method" is patched on the class.
SPANS = {
    "group.mul": ("ringauction.group", "PairingGroup.mul"),
    "group.add": ("ringauction.group", "PairingGroup.add"),
    "group.pair": ("ringauction.group", "PairingGroup.pair"),
    "group.decode_point": ("ringauction.group", "PairingGroup.decode_point"),
    "group.hash_to_zn": ("ringauction.group", "PairingGroup.hash_to_zn"),
    "group.hash_to_bits": ("ringauction.group", "hash_to_bits"),
    "group.gen_group_params": ("ringauction.group", "gen_group_params"),
    "ringsig.setup": ("ringauction.ringsig", "setup"),
    "ringsig.keygen": ("ringauction.ringsig", "keygen"),
    "ringsig.sign": ("ringauction.ringsig", "sign"),
    "ringsig.verify": ("ringauction.ringsig", "verify"),
    "ringsig.trace": ("ringauction.ringsig", "trace"),
    "ringsig.deserialize_signature": ("ringauction.ringsig", "deserialize_signature"),
    "registry.make_registration": ("ringauction.registry", "make_registration"),
    "registry.verify_registration": ("ringauction.registry", "verify_registration"),
    "registry.register": ("ringauction.registry", "RegistrationManager.register"),
    "registry.evict": ("ringauction.registry", "RegistrationManager.evict"),
    "registry.append": ("ringauction.registry", "BulletinBoard.append"),
    "registry.active_keys": ("ringauction.registry", "BulletinBoard.active_keys"),
    "auction.place_bid": ("ringauction.auction", "BidderAgent.place_bid"),
    "auction.admit_bid": ("ringauction.auction", "AuctionManager.admit_bid"),
    "auction.determine_winner": ("ringauction.auction", "AuctionManager.determine_winner"),
    "auction.open_protocol": ("ringauction.auction", "open_protocol"),
    "auction.parse_bid_payload": ("ringauction.auction", "parse_bid_payload"),
    "harness.run_scenario": ("ringauction.harness", "run_scenario"),
    "harness.verify_transcript": ("ringauction.harness", "verify_transcript"),
    "cli.main": ("ringauction.cli", "main"),
}

# Top-level role spans and the request each one belongs to: every bid is its
# own request; an auction's announcement is determine_winner plus the
# open_protocol calls that follow it; a replay is one request.
ROLES = {
    "auction.place_bid": "bid",
    "auction.determine_winner": "announce",
    "auction.open_protocol": "announce",
    "harness.verify_transcript": "replay",
}

# Spans whose return value is kept with the span.
_OUTCOMES = {
    "auction.admit_bid": bool,
    "ringsig.verify": bool,
    "harness.run_scenario": lambda result: {
        phase: dict(counts) for phase, counts in result.report.phases.items()
    },
}

# Spans whose per-call times are kept, for a median.
P50_SPANS = ("group.mul", "group.pair", "ringsig.sign", "ringsig.verify", "ringsig.trace")


class Recorder:
    """Keeps every span in memory; ``dump`` writes them out at the end."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request, outcome]
        self._stack: list[int] = []
        self._requests = 0
        self._announce: str | None = None

    def _request_for(self, name: str, parent: int | None):
        if parent is not None and self.spans[parent][4] is not None:
            return self.spans[parent][4]
        role = ROLES.get(name)
        if role is None:
            return None
        if name == "auction.open_protocol" and self._announce is not None:
            return self._announce
        self._requests += 1
        request = f"{role}-{self._requests}"
        self._announce = request if role == "announce" else None
        return request

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        keep = _OUTCOMES.get(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [name, 0, 0, parent, self._request_for(name, parent), None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if keep is not None:
                record[5] = keep(result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request, outcome in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "request": request,
                                     "outcome": outcome}) + "\n")

    def summary(self, duration=None) -> dict:
        """Per-span call counts, self times, outcomes and per-request times.

        ``duration(start_ns, end_ns)`` gives a request's time in ns; by
        default its wall time.
        """
        duration = duration or (lambda start, end: end - start)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        call_ms: dict[str, list[float]] = {name: [] for name in P50_SPANS}
        true_count: dict[str, int] = {}
        requests: dict[str, float] = {}
        verifies_under_winner = 0
        ops = None
        for index, (name, start, end, parent, request, outcome) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child_ns[index]) / 1e9
            if name in call_ms:
                call_ms[name].append((end - start) / 1e6)
            if outcome is True:
                true_count[name] = true_count.get(name, 0) + 1
            if name == "harness.run_scenario":
                ops = outcome
            if request is not None and (parent is None or self.spans[parent][4] is None):
                requests[request] = requests.get(request, 0.0) + duration(start, end) / 1e6
            if name == "ringsig.verify" and self._under(index, "auction.determine_winner"):
                verifies_under_winner += 1
        return {
            "calls": calls,
            "self_s": self_s,
            "call_ms": call_ms,
            "true": true_count,
            "bid_ms": [ms for req, ms in requests.items() if req.startswith("bid-")],
            "announce_ms": [ms for req, ms in requests.items() if req.startswith("announce-")],
            "verifies_under_winner": verifies_under_winner,
            "ops": ops,
        }

    def _under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False


def install(recorder: Recorder, names) -> list[str]:
    """Patch each named span into every ringauction module; return the absent ones."""
    modules = [module for key, module in list(sys.modules.items())
               if key == "ringauction" or key.startswith("ringauction.")]
    absent = []
    for name in names:
        module_name, attr = SPANS[name]
        owner_name, _, member = attr.rpartition(".")
        owner = sys.modules.get(module_name)
        if owner is not None and owner_name:
            owner = getattr(owner, owner_name, None)
        original = vars(owner).get(member) if owner is not None else None
        if not callable(original):
            absent.append(name)
            continue
        wrapper = recorder.wrap(name, original)
        if owner_name:
            targets = [(owner, member)]
        else:
            targets = [(module, key) for module in modules
                       for key, value in vars(module).items() if value is original]
        for target, key in targets:
            setattr(target, key, wrapper)
    return absent
