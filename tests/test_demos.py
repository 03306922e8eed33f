"""Smoke runs of the scripts in demos/: each exits 0 under -X dev -W error
and prints something.  README's Python example runs the same way."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # under -X dev -W error a warning or an unclosed file fails the demo
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error",
                           str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_readme_python_example_prints_what_its_comments_say(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error",
                           "-c", example], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[:2] == ["(0, 6, 0, 0, 0, 0, 6, 12)",
                                            "nonexistent"]
