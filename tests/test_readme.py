"""The README's examples stay valid: every ``sfn`` command line of a
``sh`` block parses with the CLI parser, and every ``ini`` block parses
as a config that passes ``check_experiment`` (nothing is run). Its
kind x key table is the code's: the kinds that read each key, the key's
default and its bound."""

import re
import shlex
from pathlib import Path

import pytest

from sfn import cli
from sfn.config import KINDS, SCHEMA, ExperimentConfig, parse_config_text
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


def _key_table():
    """The README table whose header starts ``| key | default | bound |``,
    as its kind columns and its rows of cells."""
    text = README.read_text()
    lines = text[text.index("| key | default | bound |"):].split("\n\n")[0].splitlines()
    cells = [[cell.strip().strip("`") for cell in line.strip("|").split("|")] for line in lines]
    return cells[0][3:], cells[2:]


def test_the_key_table_is_the_schema():
    kinds, rows = _key_table()
    assert sorted(kinds) == sorted(KINDS)
    assert sorted(row[0] for row in rows) == sorted(SCHEMA)
    defaults = ExperimentConfig(kind="oracle-check", seed=0)
    for key, default, bound, *marks in rows:
        attr, parse, readers, key_bound = SCHEMA[key]
        assert {kind for kind, mark in zip(kinds, marks) if mark == "x"} == set(readers), key
        assert set(marks) <= {"x", ""}, key
        assert bound == ("" if key_bound is None else key_bound[0].split(" ", 1)[1]), key
        if default != "required":
            assert parse(default) == getattr(defaults, attr), key
