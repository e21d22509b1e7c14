"""The demo scripts and the README's library quickstart must keep running end to end."""

import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"


@pytest.mark.parametrize("script", sorted(DEMO_DIR.glob("0*.py")), ids=lambda p: p.name)
def test_demo_runs(script):
    runpy.run_path(str(script), run_name="__main__")


def test_full_suite_demo_prints_the_same_on_every_run(capsys):
    # demo 05 prints its suite report without the wall-time line
    outputs = []
    for _ in range(2):
        runpy.run_path(str(DEMO_DIR / "05_full_suite.py"), run_name="__main__")
        outputs.append(capsys.readouterr().out)
    assert "verdict: pass\n" in outputs[0]
    assert outputs[0] == outputs[1]


def test_readme_quickstart_runs():
    # the README's first python block, run as written
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    verdict = namespace["verdict"]
    assert verdict.holds and verdict.residual == pytest.approx(1.0)
    assert namespace["report"].verdict == "pass"
