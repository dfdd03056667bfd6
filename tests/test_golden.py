"""Byte-for-byte comparison with the benchmark's expected reports.

Each expected report echoes its job document under ``input``; the job is
rebuilt from that echo, survives a round trip through emit_job, and is
run in-process through parse_job, run_job and emit_report.  The set
covers every command of the small CLI corpus, both mirror paths (left
reduction, in-splitting) at S6 scale, the README quotient-counts example
and the bundle and representation-shift counts over the trefoil and
figure-eight presets.

The benchmark's traced run wraps library functions by name; a guard here
checks that every name it lists still resolves.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sftact import cli
from sftact.cli import COMMANDS, emit_job, emit_report, parse_job, run_job

EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "expected"
GOLDENS = sorted((EXPECTED / "cli-small").glob("*.json")) + [
    EXPECTED / "symmetry" / "s6-reduce.json",
    EXPECTED / "symmetry" / "s6-split-in.json",
    EXPECTED / "counting" / "readme-quotient-counts.json",
    EXPECTED / "counting" / "trefoil-d4-bundle.json",
    EXPECTED / "counting" / "figure8-s3-bundle.json",
    EXPECTED / "counting" / "figure8-q8-repshift.json",
]


def test_goldens_cover_every_command():
    commands = {json.loads(path.read_text())["command"] for path in GOLDENS}
    assert commands == set(COMMANDS)


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_report_matches_golden(path):
    golden = path.read_bytes()
    job = parse_job(json.dumps(json.loads(golden)["input"]))
    assert parse_job(emit_job(job)) == job
    assert emit_report(run_job(job)).encode() == golden


@pytest.mark.parametrize("path", sorted((EXPECTED / "cli-small").glob("*.json")), ids=lambda p: p.stem)
def test_runners_parse_nothing(path, monkeypatch):
    """run_job works from the parsed input alone: no parser runs again."""
    golden = path.read_bytes()
    job = parse_job(json.dumps(json.loads(golden)["input"]))

    def refuse(*args, **kwargs):
        raise AssertionError("a runner parsed its input again")

    for name in dir(cli):
        if name.startswith(("parse", "_parse", "_act", "_field", "_get_", "job_from", "_load")):
            monkeypatch.setattr(cli, name, refuse)
    assert emit_report(run_job(job)).encode() == golden


def _load_spans():
    """The benchmark's span recorder, loaded from its file without running it."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", EXPECTED.parent / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
TRACED = [(module, name) for module, names in SPANS.LAYERS.items() for name in names]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_layer_resolves(module, name):
    """Each traced name resolves the way ``Recorder.tracing`` looks it up:
    classes by their ``__post_init__`` in ``sftact.action``, functions in
    ``sftact.<module>`` under their possibly private name."""
    if name in SPANS.CLASSES:
        cls = getattr(importlib.import_module("sftact.action"), name)
        assert "__post_init__" in vars(cls)
    else:
        mod = importlib.import_module(f"sftact.{module}")
        assert callable(getattr(mod, SPANS.RENAMED.get(name, name)))


def test_traced_job_records_construction_spans():
    """A traced run times PermGroup and PermutationAction construction by
    rebinding their ``__post_init__``; the records must call the rebound
    one, and leaving the block restores the original."""
    from sftact.action import PermGroup, PermutationAction

    path = EXPECTED / "cli-small" / "trefoil-s3-tqft.json"
    golden = path.read_bytes()
    text = json.dumps(json.loads(golden)["input"])
    originals = {cls: vars(cls)["__post_init__"] for cls in (PermGroup, PermutationAction)}
    recorder = SPANS.Recorder()
    with recorder.tracing():
        report = cli.emit_report(cli.run_job(cli.parse_job(text)))
    assert report.encode() == golden
    names = {span[3] for span in recorder.spans}
    assert {"action.PermGroup", "action.PermutationAction", "cli.run_job"} <= names
    for cls, original in originals.items():
        assert vars(cls)["__post_init__"] is original


# Run in a fresh child: an invariants job executes only ``matrices``, so
# ``sse`` and ``repshift`` are still placeholders when tracing starts.
TRACE_CHILD = r"""
import importlib.util, json, sys
from types import ModuleType
from sftact import cli

expected = sys.argv[1]

def run(stem):
    golden = open(f"{expected}/cli-small/{stem}.json", encoding="utf-8").read()
    job = json.dumps(json.loads(golden)["input"])
    return cli.emit_report(cli.run_job(cli.parse_job(job))) == golden

def layers():
    return {name: module for name, module in sys.modules.items()
            if name == "sftact" or name.startswith("sftact.")}

def wrapped(module):
    return sorted(attr for attr, value in vars(module).items()
                  if getattr(value, "__qualname__", "").startswith("Recorder._wrap."))

spec = importlib.util.spec_from_file_location("perfbench_spans", f"{expected}/../spans.py")
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)

first = run("golden-invariants")
placeholders = sorted(name for name, module in layers().items() if type(module) is not ModuleType)
before = {name: dict(vars(module)) for name, module in layers().items() if type(module) is ModuleType}
from sftact.action import PermGroup, PermutationAction
inits = [vars(cls)["__post_init__"] for cls in (PermGroup, PermutationAction)]
recorder = spans.Recorder()
with recorder.tracing():
    second = run("six-burnside")
changed = sorted(
    f"{name}.{attr}" for name, binding in before.items()
    for attr, value in binding.items() if vars(sys.modules[name]).get(attr) is not value
)
print(json.dumps({
    "reports": [first, second],
    "placeholders": placeholders,
    "spans": sorted({span[3] for span in recorder.spans}),
    "changed": changed,
    "wrapped": sorted(f"{name}.{attr}" for name, module in layers().items() for attr in wrapped(module)),
    "inits": [vars(cls)["__post_init__"] is f for cls, f in zip((PermGroup, PermutationAction), inits)],
}))
"""


def test_tracing_loads_placeholder_layers_and_restores_bindings():
    """``Recorder.tracing`` indexes every layer in ``sys.modules``; layers a
    job never used are placeholders that its lookups execute.  Leaving the
    block restores every binding, in the package namespace too."""
    env = dict(os.environ, PYTHONPATH=str(EXPECTED.parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_CHILD, str(EXPECTED)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["reports"] == [True, True]
    assert {"sftact.sse", "sftact.repshift"} <= set(out["placeholders"])
    assert "sftact.matrices" not in out["placeholders"]
    assert "quotient.burnside_counts" in out["spans"]
    assert out["changed"] == [] and out["wrapped"] == []
    assert out["inits"] == [True, True]
