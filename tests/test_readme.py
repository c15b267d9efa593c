import re
from pathlib import Path


def test_python_quickstart_runs(capsys):
    # the README's Python quickstart, run as written; its last line prints
    # the thermal decision, which must land on the witness side
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Python quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(readme), "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == "True"
