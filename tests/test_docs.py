"""The README's code and the remaining demo run as written."""

import re
import runpy
from pathlib import Path

from amboost.experiments import EXPERIMENTS

ROOT = Path(__file__).resolve().parent.parent


def readme():
    return (ROOT / "README.md").read_text()


def test_smoother_demo_runs(capsys):
    runpy.run_path(str(ROOT / "demos" / "07_smoother_contraction.py"),
                   run_name="__main__")
    assert "the guarantee holds for every selection rule" in capsys.readouterr().out


def test_library_in_one_minute_runs(capsys):
    section = readme().split("## Library in one minute", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.rstrip().endswith("True")


def test_readme_experiment_commands_name_experiments():
    # the claim table has one row per experiment; any other command names one
    rows = re.findall(r"^\|.*\| `amboost experiment (\w+)` \|", readme(), re.M)
    assert sorted(rows) == sorted(EXPERIMENTS)
    assert set(re.findall(r"amboost experiment (\w+)", readme())) <= set(EXPERIMENTS)
