"""Keep the demos, the README, the benchmark's span list and the committed
benchmark records in step with the code and with themselves."""

import ast
import importlib
import json
import math
import os
import re
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import ringauction
from ringauction import harness
from ringauction.auction import trace_bid
from ringauction.cli import main
from ringauction.harness import parse_scenario
from ringauction.registry import KEY_PUBLISHED
from ringauction.ringsig import NotVerified, TraceKey, Untraceable

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))
BENCHES = sorted(REPO.glob("BENCH_*.json"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = str(Path(ringauction.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.returncode == 0, done.stderr


def _readme_block(intro: str) -> str:
    """The first fenced block after ``intro`` in README.md, without its fences."""
    readme = (REPO / "README.md").read_text()
    assert intro in readme
    block = readme.split(intro, 1)[1].split("```", 2)[1]
    return block.split("\n", 1)[1]  # drop the rest of the opening fence line


def test_readme_scenario_block_parses():
    config = parse_scenario(_readme_block("A scenario file is plain `key=value` lines"))
    assert config.bidders == 4 and config.auctions == 2


def test_readme_quick_taste_runs():
    exec(compile(_readme_block("## Quick taste"), "README quick taste", "exec"), {})


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # The four commands as printed, run on the README's scenario saved as the
    # file they name.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "auction.cfg").write_text(
        _readme_block("A scenario file is plain `key=value` lines"))
    commands = [shlex.split(line) for line in
                _readme_block("Four subcommands cover the whole lifecycle:").splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["ringauction", name] for name in ("setup", "run", "verify", "trace")]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert "bid seq 9 traced to ring member" in capsys.readouterr().out


def test_trace_command_agrees_with_trace_bid(tmp_path, monkeypatch, capsys):
    # `ringauction trace` is the auction side's half of an opening: on every
    # bid the README's scenario posts, its exit code, slot and key are those
    # of trace_bid on the run's live board.
    scenario, transcript, tracekey = (tmp_path / name for name in ("auction.cfg", "t", "k"))
    scenario.write_text(_readme_block("A scenario file is plain `key=value` lines"))
    boards, render = [], harness.render_transcript
    monkeypatch.setattr(harness, "render_transcript",
                        lambda board: boards.append(board) or render(board))
    assert main(["run", "--scenario", str(scenario), "--out", str(transcript),
                 "--tracekey-out", str(tracekey)]) == 0
    (board,), tk = boards, TraceKey(int(tracekey.read_text()))
    capsys.readouterr()
    codes = set()
    for seq in board.heads:
        code = main(["trace", "--transcript", str(transcript), "--seq", str(seq),
                     "--tracekey", str(tracekey)])
        try:
            index, pub_key = trace_bid(board, tk, seq)
            said = f"traced to ring member {index}: {board.group.encode_point(pub_key).hex()}"
            expected = (0, f"bid seq {seq} {said}\n")
        except NotVerified as exc:
            expected = (1, f"bid seq {seq} does not verify: {exc}\n")
        except Untraceable as exc:
            expected = (1, f"bid seq {seq}: {exc}\n")
        assert (code, capsys.readouterr().out) == expected
        codes.add(code)
    assert codes == {0, 1}
    key_seq = next(seq for seq, (kind, _) in enumerate(board.entries()) if kind == KEY_PUBLISHED)
    with pytest.raises(KeyError):
        trace_bid(board, tk, key_seq)


def test_benchmark_spans_resolve():
    # perfbench/spans.py is read as text, not imported or run: every span it
    # wraps must name a function (or a method defined on its class) that
    # exists, or a benchmark run would only report it as absent.  Every
    # ringauction name perfbench/worker.py imports must exist too, or the
    # benchmark's workers would fail.
    worker = ast.parse((REPO / "perfbench" / "worker.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(worker)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ringauction")
                for alias in node.names]
    imported += [(alias.name, None) for node in ast.walk(worker) if isinstance(node, ast.Import)
                 for alias in node.names if alias.name.startswith("ringauction")]
    assert ("ringauction.auction", "parse_bid_payload") in imported
    for module_name, name in imported:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")  # a submodule
    tree = ast.parse((REPO / "perfbench" / "spans.py").read_text())
    spans = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "SPANS" for t in node.targets))
    assert spans
    for name, (module_name, attr) in spans.items():
        owner = importlib.import_module(module_name)
        *path, member = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(member)), f"span {name}: {module_name}.{attr}"


def _class_members() -> dict[str, set[str]]:
    """Each class defined in a ringauction module: its methods and
    properties, its class-level names (dataclass fields among them) and the
    attributes its __init__ assigns on self."""
    members = {}
    for path in (REPO / "src" / "ringauction").glob("*.py"):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = members.setdefault(cls.name, set())
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    names.add(node.name)
                    if node.name == "__init__":
                        names.update(target.attr for target in ast.walk(node)
                                     if isinstance(target, ast.Attribute)
                                     and isinstance(target.ctx, ast.Store)
                                     and getattr(target.value, "id", None) == "self")
                for target in ([node.target] if isinstance(node, ast.AnnAssign) else
                               node.targets if isinstance(node, ast.Assign) else []):
                    if isinstance(target, ast.Name):
                        names.add(target.id)
    return members


def test_readme_class_members_resolve():
    # A backticked `Class.attr` in README.md, Class a ringauction class, must
    # name something the class has.
    members = _class_members()
    readme = re.sub(r"```.*?```", "", (REPO / "README.md").read_text(), flags=re.S)
    named = [match.groups() for span in re.findall(r"`([^`]+)`", readme)
             for match in re.finditer(r"\b([A-Z]\w*)\.(\w+)", span)
             if match.group(1) in members]
    assert named
    assert [f"{cls}.{attr}" for cls, attr in named if attr not in members[cls]] == []


def _method(module: str, cls: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((REPO / "src" / "ringauction" / f"{module}.py").read_text())
    owner = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls)
    return next(node for node in owner.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_readme_auction_layer_names_every_admission_reason():
    # The manager's own reasons are the literals admit_bid refuses with; the
    # board's are the registry constants the fold's bid branch raises, which
    # admit_bid passes on.  README "The auction layer" names each of them.
    own = [node.value.value for node in ast.walk(_method("auction", "AuctionManager", "admit_bid"))
           if isinstance(node, ast.keyword) and node.arg == "reason"
           and isinstance(node.value, ast.Constant)]
    append = _method("registry", "BulletinBoard", "append")
    bid_branch = next(node for node in ast.walk(append)
                      if isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                      and getattr(node.test.comparators[0], "id", None) == "BID_POSTED")
    board = [node.args[0].id for stmt in bid_branch.body for node in ast.walk(stmt)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "MalformedBoard"
             and isinstance(node.args[0], ast.Name)]
    assert own == ["unknown-auction", "price-not-monotonic"]
    assert board == ["BID_REPOSTED", "BID_AFTER_WINNER", "RING_KEY_INACTIVE"]
    section = (REPO / "README.md").read_text().split("### The auction layer\n", 1)[1]
    section = section.split("\n#", 1)[0]
    assert [name for name in own + board if f"`{name}`" not in section] == []


def _bench_problems(node, where, seen):
    """Every entry of a BENCH record that disagrees with itself, walking the
    whole record: a ``correct`` that is not all true, a ``failed`` that is
    not all 0, a ``median`` that is not the median of its ``runs``, and a
    ``ratio`` that is not the change median over the parent median."""
    problems = []
    if isinstance(node, list):
        for index, item in enumerate(node):
            problems += _bench_problems(item, f"{where}[{index}]", seen)
        return problems
    if not isinstance(node, dict):
        return problems

    def leaves(value):
        if isinstance(value, (dict, list)):
            for item in value.values() if isinstance(value, dict) else value:
                yield from leaves(item)
        else:
            yield value

    if "correct" in node:
        seen["correct"] += 1
        if not all(leaf is True for leaf in leaves(node["correct"])):
            problems.append(f"{where}/correct: {node['correct']}")
    if "failed" in node:
        seen["failed"] += 1
        if not all(leaf == 0 for leaf in leaves(node["failed"])):
            problems.append(f"{where}/failed: {node['failed']}")
    if "median" in node and "runs" in node:
        seen["median"] += 1
        if not math.isclose(node["median"], statistics.median(node["runs"]), rel_tol=1e-9):
            problems.append(f"{where}/median {node['median']} is not the median of its runs")
    if "ratio" in node:
        seen["ratio"] += 1
        ratio = node["change"]["median"] / node["parent"]["median"]
        if not math.isclose(node["ratio"], ratio, rel_tol=1e-9):
            problems.append(f"{where}/ratio {node['ratio']} is not {ratio}")
    for key, value in node.items():
        problems += _bench_problems(value, f"{where}/{key}", seen)
    return problems


@pytest.mark.parametrize("bench", BENCHES, ids=lambda path: path.name)
def test_bench_record_agrees_with_itself(bench):
    seen = dict.fromkeys(("correct", "failed", "median", "ratio"), 0)
    assert _bench_problems(json.loads(bench.read_text()), "", seen) == []
    assert all(seen.values()), seen  # each kind of check found something to check
