"""Keep the demos and the README in step with the code."""

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
