"""Keep the demos, the README and the benchmark's span list in step with the code."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringauction
from ringauction.harness import parse_scenario

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    src = str(Path(ringauction.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert done.returncode == 0, done.stderr


def test_readme_scenario_block_parses():
    readme = (REPO / "README.md").read_text()
    intro = "A scenario file is plain `key=value` lines"
    assert intro in readme
    block = readme.split(intro, 1)[1].split("```", 2)[1]
    config = parse_scenario(block)
    assert config.bidders == 4 and config.auctions == 2


def test_benchmark_spans_resolve():
    # perfbench/spans.py is read as text, not imported or run: every span it
    # wraps must name a function (or a method defined on its class) that
    # exists, or a benchmark run would only report it as absent.
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
