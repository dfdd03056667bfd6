"""What each command compiles, and the package's public surface.

``sftact`` registers its library modules as lazy placeholders, so a job
executes only the modules its command uses.  Each command's golden job
runs through ``sftact.cli.main`` in a fresh ``python -S`` child (no site
hooks that import extra modules), which lists the ``sftact`` modules that
were executed.  A placeholder is told apart by its type, since reading
any attribute of it would execute it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sftact
from sftact.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED = ROOT / "perfbench" / "expected"

# Run in the child: import the CLI, run one golden job through main(),
# and report the executed sftact modules after each step.
CHILD = r"""
import io, json, sys
from types import ModuleType

def executed():
    return sorted(name[len("sftact."):] for name, module in sys.modules.items()
                  if name.startswith("sftact.") and type(module) is ModuleType)

import sftact.cli
after_import = executed()
golden = open(sys.argv[1], encoding="utf-8").read()
job = json.loads(golden)["input"]
stdout = sys.stdout
sys.stdin, sys.stdout = io.StringIO(json.dumps(job)), io.StringIO()
code = sftact.cli.main([job["command"]])
output, sys.stdout = sys.stdout.getvalue(), stdout
print(json.dumps({
    "import": after_import,
    "job": executed(),
    "code": code,
    "same_report": output == golden,
    "stdlib": [m for m in ("fractions", "decimal", "dataclasses", "inspect") if m in sys.modules],
}))
"""

EAGER = ["errors", "records"]
REDUCE = EAGER + ["action", "matrices", "reduce", "sft"]
QUOTIENT = REDUCE + ["quotient"]
SSE = REDUCE + ["sse"]
REPSHIFT = QUOTIENT + ["repshift"]

# golden job -> the sftact modules it executes, besides cli
MODULES = {
    "golden-invariants": EAGER + ["matrices"],
    "six-invariants": REDUCE,
    "six-reduce": REDUCE,
    "six-classify": QUOTIENT,
    "six-witness": QUOTIENT,
    "six-burnside": QUOTIENT,
    "swap-quotient-counts": QUOTIENT,
    "sse-single": SSE,
    "six-transport": SSE,
    "six-split-in": SSE,
    "trefoil-z3-repshift": REPSHIFT,
    "trefoil-s3-tqft": REPSHIFT,
    "trefoil-z2-bundle": REPSHIFT,
}


def _command(stem):
    return json.loads((EXPECTED / "cli-small" / f"{stem}.json").read_text())["command"]


def run_child(path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", CHILD, str(path)],
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


@pytest.mark.parametrize("stem", sorted(MODULES))
def test_job_executes_only_its_modules(stem):
    out = run_child(EXPECTED / "cli-small" / f"{stem}.json")
    assert out["code"] == 0 and out["same_report"]
    assert out["import"] == sorted(EAGER + ["cli"])
    assert out["job"] == sorted(MODULES[stem] + ["cli"])
    assert out["stdlib"] == []


# ---------------------------------------------------------------------------
# the package surface: same names as before the package went lazy

ALL = [
    "AbelianGroupInvariants", "ActionFactorSquare", "CapExceededError", "CycleWord",
    "ElementarySse", "FiniteGroupTable", "HnnData", "InputError", "IntMatrix",
    "IntPolynomial", "LimitExceededError", "NonexpansiveWitness", "OneBlockCode",
    "OrbitCountReport", "OrbitStructure", "Path", "PermGroup", "PermutationAction",
    "PreconditionError", "QuotientClassification", "ReducedShift", "RepShift",
    "SftPresentation", "SftactError", "SplitData", "SseChain", "TqftMatrix",
    "TwoBlockConjugacy", "action", "bowen_franks", "build_eta", "build_repshift",
    "burnside_counts", "char_poly_reciprocal", "classify_quotient", "cyclic_group",
    "dihedral_group", "enumerate_cycles", "enumerate_homs", "errors", "evaluate_word",
    "factor_square", "fibered_preset", "fixed_submatrix", "flat_bundle_counts",
    "group_from_generators", "higher_block", "higher_block_action", "identity_sse",
    "in_split", "induced_conjugacy", "is_irreducible", "left_reduce", "mat_mul",
    "matrices", "nonexpansive_witness", "orbit_structure", "out_split", "poly_divides",
    "poly_lcm", "preset_alexander_polynomial", "quaternion_group", "quotient",
    "quotient_period_counts", "records", "recurrence_holds", "reduce", "repshift",
    "right_reduce", "sft", "shortest_path", "smith_normal_form", "sse",
    "symmetric_group", "tqft_matrix", "trace_of_power", "trace_sequence",
    "transport_certificate", "trim_essential", "trivial_group", "validate_action",
    "verify_chain", "verify_elementary_sse", "word_stabilizer",
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
