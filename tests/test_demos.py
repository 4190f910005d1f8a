from __future__ import annotations

import pathlib
import runpy

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
README = DEMO_DIR.parent / "README.md"


def test_demo_gallery_is_present():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, capsys):
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()


def test_readme_quickstart_runs():
    # the first python block after the "Library quickstart" heading; a README
    # that names a deleted or renamed public function fails here
    section = README.read_text().split("## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from slicefock import" in code
    exec(compile(code, str(README), "exec"), {})
