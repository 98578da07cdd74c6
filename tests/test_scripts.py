from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, REPO / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_filter_comparison_prints_the_readme_table(capsys):
    script = _load_script("run_filter_comparison")
    assert script.main([]) == 0
    printed = capsys.readouterr().out.splitlines()
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    after_intro = readme.split("`scripts/run_filter_comparison.py` runs", 1)[1]
    table = after_intro.split("```\n")[1]
    assert printed[0].startswith("corpus: ")
    assert printed[1:] == table.splitlines()
