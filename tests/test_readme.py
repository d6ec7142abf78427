"""The README's quick starts run against the installed API, as written."""

import re
import shlex
from pathlib import Path

from holosim import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start(title, language):
    section = README.read_text(encoding="utf-8").split(f"## Quick start ({title})", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    namespace = {}
    exec(compile(quick_start("library", "python"), str(README), "exec"), namespace)
    result = namespace["result"]
    assert result.per_stream.shape == (namespace["rx_sigma"].size, 4)
    assert (result.per_stream >= 0.0).all()
    assert capsys.readouterr().out == f"{result.sum_se}\n"


def test_cli_quick_start_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    block = quick_start("CLI", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("holosim ")]
    assert len(commands) == 5
    for command in commands:
        assert cli.main(command[1:]) == 0, command
        out = Path(command[command.index("--out") + 1])
        assert out.is_file() or any(out.glob("*.csv")), command
