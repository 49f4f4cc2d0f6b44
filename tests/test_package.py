import pathlib
import re

import locus

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in locus.__all__ if not hasattr(locus, name)]
    assert missing == []


def test_readme_library_quick_start_runs(capsys):
    # the README's example must keep matching the public signatures
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README}:quick start", "exec"), namespace)
    assert namespace["match"].per_source_corr.shape == (3,)
    assert capsys.readouterr().out
