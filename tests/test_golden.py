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

from sftact import cli, jobs
from sftact.cli import emit_report, parse_job, run_job
from sftact.jobs import COMMANDS

from helpers import emit_job

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


# the job layer's parsers: no runner may call one
PARSERS = [
    "_act", "_field", "_fields", "_get_dict", "_get_int", "_parse_action",
    "_parse_invariants", "_parse_links", "_parse_repshift", "_parse_split", "_parse_transport",
    "parse_abstract_group", "parse_certificate", "parse_cycles", "parse_generators", "parse_hnn",
    "parse_job", "parse_matrix", "parse_states", "parse_word",
]


def refuse_parsers(monkeypatch):
    """Make every parser of the job layer fail when it is called."""

    def refuse(*args, **kwargs):
        raise AssertionError("a runner parsed its input again")

    prefixes = ("parse", "_parse", "_act", "_field", "_get_")
    assert [name for name in dir(jobs) if name.startswith(prefixes)] == PARSERS
    for name in PARSERS:
        monkeypatch.setattr(jobs, name, refuse)


@pytest.mark.parametrize("path", sorted((EXPECTED / "cli-small").glob("*.json")), ids=lambda p: p.stem)
def test_runners_parse_nothing(path, monkeypatch):
    """run_job works from the parsed input alone: no parser runs again."""
    golden = path.read_bytes()
    job = parse_job(json.dumps(json.loads(golden)["input"]))
    refuse_parsers(monkeypatch)
    assert emit_report(run_job(job)).encode() == golden


def test_refusal_fails_a_runner_that_parses(monkeypatch):
    """The refusal above is not vacuous: a runner that parses its input again fails it."""
    golden = (EXPECTED / "cli-small" / "six-reduce.json").read_bytes()
    job = parse_job(json.dumps(json.loads(golden)["input"]))
    parse, run, reads = jobs._COMMAND_TABLE["reduce"]

    def reparse(act):
        return run(jobs._parse_action(job.input, "$.input"))

    monkeypatch.setitem(jobs._COMMAND_TABLE, "reduce", (parse, reparse, reads))
    assert emit_report(run_job(job)).encode() == golden
    refuse_parsers(monkeypatch)
    with pytest.raises(AssertionError, match="parsed its input again"):
        run_job(job)


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

    path = EXPECTED / "cli-small" / "six-reduce.json"
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


@pytest.mark.parametrize("stem, span", [("trefoil-s3-tqft", "reduce.right_reduce"),
                                        ("trefoil-z2-bundle", "quotient.burnside_counts")])
def test_traced_representation_shift_jobs_record_the_action_operations(stem, span):
    """tqft and bundle-counts jobs run through the right reduction and the
    Burnside counts of the conjugation action, so a traced run sees them."""
    golden = (EXPECTED / "cli-small" / f"{stem}.json").read_bytes()
    text = json.dumps(json.loads(golden)["input"])
    recorder = SPANS.Recorder()
    with recorder.tracing():
        report = cli.emit_report(cli.run_job(cli.parse_job(text)))
    assert report.encode() == golden
    assert span in {name for _, _, _, name, _, _ in recorder.spans}


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
