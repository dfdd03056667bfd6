"""The CI workflow names only files that exist.

``.github/workflows/tests.yml`` lists test files and benchmark scripts by
hand, and it runs only where its tools can be installed.  This reads it
as text, with the standard library alone, so a renamed or deleted file
fails here first.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
PATH_RE = re.compile(r"(?<![\w./-])(?:tests|perfbench)/[\w./-]*\w")


def test_workflow_names_existing_files():
    paths = sorted(set(PATH_RE.findall(WORKFLOW.read_text(encoding="utf-8"))))
    assert {"tests/contract_check.py", "perfbench/run.py", "tests/test_cli.py"} <= set(paths)
    assert [p for p in paths if not (ROOT / p).exists()] == []
