"""The README's "Library quickstart" block runs as written: it runs in a
child process against this checkout's ``src`` and must exit 0, so its
asserts hold."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _quickstart():
    text = (ROOT / "README.md").read_text()
    found = re.search(r"^## Library quickstart\n+```python\n(.*?)^```", text,
                      re.DOTALL | re.MULTILINE)
    assert found, "no python block under '## Library quickstart'"
    return found.group(1)


def test_readme_quickstart_runs():
    code = _quickstart()
    assert "assert" in code
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
