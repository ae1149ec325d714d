"""Every program under ``examples/`` runs to completion.

They are the narrated end-to-end flows (and ``email_gateway.py`` reads
``audit.records[0]``), so a change to what a guard keeps must leave them
running.
"""

import os
import runpy

import pytest

EXAMPLES = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "examples"
)
NAMES = sorted(
    name for name in os.listdir(EXAMPLES) if name.endswith(".py")
)


def test_the_five_examples_are_the_ones_run():
    assert len(NAMES) == 5


@pytest.mark.parametrize("name", NAMES)
def test_example_runs(name, capsys):
    runpy.run_path(os.path.join(EXAMPLES, name), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    if name == "email_gateway.py":
        assert "database audit log (" in out
        assert "principals involved in grant #1:" in out
