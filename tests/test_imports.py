"""What each command compiles, and the package's public surface.

``sftact`` registers its library modules as lazy placeholders, so a job
executes only the modules its command uses, and the command-line entry
``sftact.cli`` imports its job layer, ``sftact.jobs``, only to run a job,
and ``jobs`` imports the text renderer only for ``--format text``.  Each
command's golden job runs through ``sftact.cli.main`` in a fresh
``python -S`` child (no site hooks that import extra modules), which lists
the ``sftact`` modules that were executed.  A placeholder is told apart by its type, since reading any
attribute of it would execute it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sftact
from sftact.jobs import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = ROOT / "perfbench" / "expected"

# Run in the child: import the CLI, run one golden job through main() in
# the given format, and report the executed sftact modules after each step.
CHILD = r"""
import io, json, sys
from types import ModuleType

def executed():
    return sorted(name[len("sftact."):] for name, module in sys.modules.items()
                  if name.startswith("sftact.") and type(module) is ModuleType)

def stdlib():
    return [m for m in ("argparse", "fractions", "decimal", "dataclasses", "inspect") if m in sys.modules]

import sftact.cli
after_import = executed()
import_stdlib = stdlib()
job = json.loads(open(sys.argv[1], encoding="utf-8").read())["input"]
golden = open(sys.argv[3], encoding="utf-8").read()
stdout = sys.stdout
sys.stdin, sys.stdout = io.StringIO(json.dumps(job)), io.StringIO()
code = sftact.cli.main([job["command"], "--format", sys.argv[2]])
output, sys.stdout = sys.stdout.getvalue(), stdout
print(json.dumps({
    "import": after_import,
    "import_stdlib": import_stdlib,
    "job": executed(),
    "code": code,
    "same_report": output == golden,
    "stdlib": stdlib(),
}))
"""

EAGER = ["errors", "records"]
MATRIX = EAGER + ["intmatrix"]
ACTION = MATRIX + ["action", "sft"]
QUOTIENT = ACTION + ["quotient"]
SSE = ACTION + ["sse"]
REPSHIFT = ACTION + ["repshift"]

# golden job -> the sftact modules it executes, besides cli and jobs
MODULES = {
    "golden-invariants": MATRIX + ["matrices"],
    "six-invariants": ACTION + ["matrices", "reduce"],
    "six-reduce": ACTION + ["reduce"],
    "six-classify": QUOTIENT,
    "six-witness": QUOTIENT,
    "six-burnside": QUOTIENT + ["matrices"],
    "swap-quotient-counts": QUOTIENT + ["matrices", "reduce"],
    "sse-single": SSE,
    "six-transport": SSE + ["reduce"],
    "six-split-in": SSE,
    "trefoil-z3-repshift": REPSHIFT + ["matrices"],
    "trefoil-s3-tqft": REPSHIFT + ["reduce"],
    "trefoil-z2-bundle": REPSHIFT + ["matrices", "quotient"],
}


def _command(stem):
    return json.loads((EXPECTED / "cli-small" / f"{stem}.json").read_text())["command"]


def run_child(stem, format="json"):
    path = EXPECTED / "cli-small" / f"{stem}.json"
    golden = path if format == "json" else ROOT / "tests" / "text_goldens" / f"{stem}.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, str(path), format, str(golden)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


def test_fixtures_cover_every_command():
    assert {_command(stem) for stem in MODULES} == set(COMMANDS)


def test_no_counting_command_loads_sse():
    counting = {json.loads(p.read_text())["command"] for p in (EXPECTED / "counting").glob("*.json")}
    for stem, modules in MODULES.items():
        if _command(stem) in counting:
            assert "sse" not in modules, stem


def test_only_counting_commands_load_the_counting_engine():
    uncounted = {"classify", "witness", "reduce", "split", "verify-sse", "transport", "tqft"}
    assert uncounted <= {_command(stem) for stem in MODULES}
    for stem, modules in MODULES.items():
        if _command(stem) in uncounted:
            assert "matrices" not in modules, stem


@pytest.mark.parametrize("stem", sorted(MODULES))
def test_job_executes_only_its_modules(stem):
    out = run_child(stem)
    assert out["code"] == 0 and out["same_report"]
    assert out["import"] == sorted(EAGER + ["cli"])
    assert out["import_stdlib"] == []
    assert out["job"] == sorted(MODULES[stem] + ["cli", "jobs"])
    assert out["stdlib"] == []


@pytest.mark.parametrize("stem", ["six-reduce", "trefoil-z2-bundle"])
def test_text_format_alone_executes_the_renderer(stem):
    out = run_child(stem, "text")
    assert out["code"] == 0 and out["same_report"]
    assert out["job"] == sorted(MODULES[stem] + ["cli", "jobs", "jobs_text"])
    assert out["stdlib"] == []


# Run in the child: a job through the job layer alone.
JOBS_CHILD = r"""
import json, sys
from sftact import jobs

golden = open(sys.argv[1], encoding="utf-8").read()
report = jobs.emit_report(jobs.run_job(jobs.parse_job(json.dumps(json.loads(golden)["input"]))))
print(json.dumps({"same_report": report == golden, "cli": "sftact.cli" in sys.modules}))
"""


def test_job_layer_never_imports_the_entry_point():
    """``python -m sftact.cli`` runs the entry as ``__main__``; an import of
    ``sftact.cli`` from the job layer would compile it a second time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    path = EXPECTED / "cli-small" / "trefoil-s3-tqft.json"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", JOBS_CHILD, str(path)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {"same_report": True, "cli": False}


# ---------------------------------------------------------------------------
# the package surface: same names as before the package went lazy

ALL = [
    "AbelianGroupInvariants", "ActionFactorSquare", "CapExceededError", "CycleWord",
    "ElementarySse", "FiniteGroupTable", "HnnData", "InputError", "IntMatrix",
    "IntPolynomial", "InternalError", "LimitExceededError", "NonexpansiveWitness",
    "OneBlockCode", "OrbitCountReport", "OrbitStructure", "PermGroup", "PermutationAction",
    "PreconditionError", "QuotientClassification", "ReducedShift", "RepShift",
    "SftPresentation", "SftactError", "SplitData", "SseChain", "TqftMatrix",
    "TwoBlockConjugacy", "action", "bowen_franks", "build_eta", "build_repshift",
    "burnside_counts", "char_poly_reciprocal", "classify_quotient", "cyclic_group",
    "dihedral_group", "enumerate_cycles", "enumerate_homs", "errors", "evaluate_word",
    "factor_square", "fibered_preset", "fixed_submatrix", "flat_bundle_counts",
    "group_from_generators", "higher_block", "higher_block_action", "in_split",
    "induced_conjugacy", "is_irreducible", "left_reduce", "mat_mul", "matrices",
    "nonexpansive_witness", "out_split", "poly_lcm", "quaternion_group", "quotient",
    "quotient_period_counts", "records", "reduce", "repshift", "right_reduce", "sft",
    "shortest_path", "smith_normal_form", "sse", "symmetric_group", "tqft_matrix",
    "trace_of_power", "trace_sequence", "transport_certificate", "trim_essential",
    "trivial_group", "verify_elementary_sse", "word_stabilizer",
]


def test_all_is_unchanged():
    assert sftact.__all__ == ALL
    assert set(ALL) <= set(dir(sftact))


def test_star_import_binds_the_defining_objects():
    namespace = {}
    exec("from sftact import *", namespace)
    for name in ALL:
        value = namespace[name]
        if isinstance(value, type(sftact)):
            assert value is sys.modules[f"sftact.{name}"]
        else:
            assert value is getattr(sys.modules[value.__module__], name), name


def test_names_are_not_cached_in_the_package():
    assert sftact.poly_lcm is sftact.matrices.poly_lcm
    assert "poly_lcm" not in vars(sftact)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sftact.no_such_name


def test_module_run_prints_no_warning(tmp_path):
    golden = (EXPECTED / "cli-small" / "six-reduce.json").read_text()
    job = tmp_path / "job.json"
    job.write_text(json.dumps(json.loads(golden)["input"]))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "sftact.cli", "reduce", "--input", str(job)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", golden)


def test_console_script_entry_point(tmp_path, capsys):
    from sftact.cli import main

    golden = (EXPECTED / "cli-small" / "six-reduce.json").read_text()
    job = tmp_path / "job.json"
    job.write_text(json.dumps(json.loads(golden)["input"]))
    assert main(["reduce", "--input", str(job)]) == 0
    assert capsys.readouterr().out == golden
