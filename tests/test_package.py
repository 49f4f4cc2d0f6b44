import os
import pathlib
import re
import subprocess
import sys

import locus

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_import_loads_no_scipy():
    # scipy.optimize alone costs about 48 MB and 0.4 s per process, so
    # neither the library nor the CLI may import any part of scipy
    code = ("import sys, locus, locus.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "[]"
