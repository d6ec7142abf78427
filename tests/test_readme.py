"""The README's library quick start runs against the installed API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    sinr, result = namespace["sinr"], namespace["result"]
    assert sinr.shape == (namespace["sigma"].rx_sigma.size,) and (sinr >= 0.0).all()
    assert capsys.readouterr().out == f"{result.sum_se}\n"
