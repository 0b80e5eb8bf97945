"""The README's examples stay valid: every ``sfn`` command line of a
``sh`` block parses with the CLI parser, and every ``ini`` block parses
as a config that passes ``check_experiment`` (nothing is run)."""

import re
import shlex
from pathlib import Path

import pytest

from sfn import cli
from sfn.config import parse_config_text
from sfn.experiments import check_experiment

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def _sfn_lines():
    lines = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["sfn"]:
                lines.append(words[1:])
    return lines


def test_the_readme_has_examples():
    assert len(_sfn_lines()) >= 3
    assert len(_blocks("ini")) >= 1


@pytest.mark.parametrize("argv", _sfn_lines(), ids=" ".join)
def test_sfn_line_parses(argv):
    cli._build_parser().parse_args(argv)


@pytest.mark.parametrize("text", _blocks("ini"))
def test_ini_block_parses(text):
    check_experiment(parse_config_text(text, origin="README.md"))
