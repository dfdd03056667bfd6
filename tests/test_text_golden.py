"""Byte-for-byte comparison of text reports with checked-in renderings.

Each job of the small CLI corpus (the ``input`` echoed by its expected JSON
report under ``perfbench/expected/cli-small``) runs in-process and is
rendered with the ``text`` format; the rendering must equal
``text_goldens/<job>.txt`` byte for byte.
"""

import json
from pathlib import Path

import pytest

from sftact.cli import emit_report, parse_job, run_job

HERE = Path(__file__).resolve().parent
JOBS = sorted((HERE.parent / "perfbench" / "expected" / "cli-small").glob("*.json"))
TEXT = HERE / "text_goldens"


def test_every_job_has_a_text_golden():
    assert len(JOBS) == 23
    assert sorted(path.stem for path in TEXT.glob("*.txt")) == [path.stem for path in JOBS]


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.stem)
def test_text_report_matches_golden(path):
    job = parse_job(json.dumps(json.loads(path.read_text())["input"]))
    assert emit_report(run_job(job), "text").encode() == (TEXT / f"{path.stem}.txt").read_bytes()
