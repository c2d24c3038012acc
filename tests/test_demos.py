"""Every narrative demo runs to completion and prints its story."""

import runpy
from pathlib import Path

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_run(capsys):
    assert DEMOS, "no demos found"
    for path in DEMOS:
        runpy.run_path(str(path), run_name="__main__")
        assert capsys.readouterr().out.strip(), f"{path.name} printed nothing"
