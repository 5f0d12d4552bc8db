"""The README's library quick tour runs as written against the package,
and its scenario table lists the CLI's scenarios."""

import pathlib
import re

from raftguard import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_scenario_table_lists_every_scenario_and_its_variable():
    text = README.read_text(encoding="utf-8")
    table = text.split("Scenarios and their sweep variables:\n\n", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\| `(\w+)` +\|", table, re.MULTILINE)
    assert dict(rows) == {name: spec.variable for name, spec in cli.SCENARIOS.items()}
    assert len(rows) == len(cli.SCENARIOS)
