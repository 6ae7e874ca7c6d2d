"""The README's examples: every python block runs, every json block is a config."""

import json
import re
from pathlib import Path

import pytest

from vsmhl import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
# (language, body) of each fenced block
BLOCKS = [(m["lang"], m["body"]) for m in re.finditer(r"^```(?P<lang>\w*)\n(?P<body>.*?)^```$", TEXT, re.M | re.S)]


def blocks(lang: str) -> list:
    """The bodies of the lang blocks, each named by its ordinal among them, so
    an edit above a block does not rename its test."""
    bodies = [body for kind, body in BLOCKS if kind == lang]
    return [pytest.param(body, id=f"{lang} {i}") for i, body in enumerate(bodies, 1)]


def test_the_readme_has_examples():
    assert blocks("python") and blocks("json")


@pytest.mark.parametrize("body", blocks("python"))
def test_python_block_runs(body, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the blocks may write files
    exec(compile(body, str(README), "exec"), {})


@pytest.mark.parametrize("body", blocks("json"))
def test_json_block_is_a_config(body):
    ExperimentConfig.from_dict(json.loads(body))
