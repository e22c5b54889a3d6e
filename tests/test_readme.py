"""The README's library example runs as written, in a fresh interpreter, and
its diagnostics paragraph names the fields `topk --output json` prints."""

import os
import re
import subprocess
import sys
from pathlib import Path

from tensor_topk import cli

ROOT = Path(__file__).resolve().parents[1]


def test_library_use_snippet_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 5


def test_diagnostics_paragraph_names_every_json_field():
    # a field added to, renamed in or deleted from `topk --output json`
    # must be added to, renamed in or deleted from the README too
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("`topk --output json` also prints a `diagnostics` object", 1)[1]
    paragraph = section.split("\n\n", 1)[0]
    names = set(re.findall(r"`([a-z_]+)`", paragraph))
    # sweeps_used is a field of the result itself, which the paragraph cites
    assert names - {"sweeps_used"} == set(cli.JSON_DIAGNOSTICS)
