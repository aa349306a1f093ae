"""The python examples of README.md run as written."""

import pathlib
import re
import textwrap

import fracnoether as fn
from fracnoether import config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    """The README's python code blocks in order, each dedented (a block
    inside a list item is indented with its fence)."""
    pattern = re.compile(r"^( *)```python\n(.*?)^\1```", re.MULTILINE | re.DOTALL)
    return [textwrap.dedent(m.group(2)) for m in pattern.finditer(README.read_text())]


def test_examples_run_and_match_their_comments(capsys):
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)

    # the quick start prints the drift at alpha = 0.5 ("order 1: NOT
    # conserved") and then at alpha = 1 ("order 1e-5: conserved")
    fractional = fn.drift(namespace["series"]).relative_drift
    classical = fn.drift(namespace["series1"]).relative_drift
    assert fractional > 0.5
    assert classical < 1e-4
    printed = capsys.readouterr().out.split()
    assert [float(v) for v in printed] == [fractional, classical]
    assert isinstance(namespace["L"], fn.LagrangianSpec)


def config_key_rows():
    """The README's configuration-key table as {key: meaning}."""
    section = README.read_text().split("### Configuration keys", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.MULTILINE)
    return dict(rows)


def test_config_table_names_every_accepted_key():
    assert set(config_key_rows()) == config._KNOWN_KEYS


def test_group_row_names_every_group():
    names = re.findall(r"`(\w+)[^`]*`", config_key_rows()["group"])
    assert names == list(config.GROUPS)
