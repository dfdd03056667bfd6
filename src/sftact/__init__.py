"""Exact computations with finite group actions on shifts of finite type.

Reduced-shift invariants, strong shift equivalence certificates and their
transport along action-compatible recodings, Burnside orbit counts of
periodic points, expansivity classification of quotients, and
representation shifts of HNN data with their conjugation reductions.
All arithmetic is exact.

Importing the package compiles only ``errors`` and ``records``.  Each
library module below is registered in ``sys.modules`` as a placeholder
(``importlib.util.LazyLoader``) that is compiled and executed when one of
its attributes is first read, so a command-line job compiles only the
modules its command uses.  They are placeholders rather than absent
entries so that ``sys.modules["sftact.<module>"]`` finds every layer, as
a harness that rebinds functions module by module expects.  The public
names resolve through the module ``__getattr__`` on every access and are
never cached here, so a wrapper rebound in a submodule and later removed
leaves nothing behind in the package namespace.  ``sftact.cli`` is not
registered: ``python -m sftact.cli`` warns when the module it is about to
run is already in ``sys.modules``.  Nor are the modules that export no
public name, the job layer ``jobs`` and its text renderer ``jobs_text``;
each is an ordinary import of the module that needs it.  ``IntMatrix``
and ``mat_mul`` resolve to ``intmatrix``, so reading them executes the
matrix type without the counting engine of ``matrices``.
"""

from . import errors, records
from .errors import (
    CapExceededError,
    InputError,
    InternalError,
    LimitExceededError,
    PreconditionError,
    SftactError,
)

__version__ = "0.1.0"

# library module -> the public names it exports
_EXPORTS = {
    "intmatrix": ("IntMatrix", "mat_mul"),
    "matrices": (
        "AbelianGroupInvariants", "IntPolynomial", "bowen_franks", "char_poly_reciprocal",
        "poly_lcm", "smith_normal_form", "trace_of_power", "trace_sequence",
    ),
    "sft": (
        "CycleWord", "SftPresentation", "enumerate_cycles", "higher_block",
        "is_irreducible", "shortest_path", "trim_essential",
    ),
    "action": (
        "OrbitStructure", "PermGroup", "PermutationAction", "fixed_submatrix",
        "group_from_generators", "word_stabilizer",
    ),
    "reduce": ("OneBlockCode", "ReducedShift", "build_eta", "left_reduce", "right_reduce"),
    "sse": (
        "ActionFactorSquare", "ElementarySse", "SseChain", "TwoBlockConjugacy", "factor_square",
        "higher_block_action", "in_split", "induced_conjugacy", "out_split",
        "transport_certificate", "verify_elementary_sse",
    ),
    "quotient": (
        "NonexpansiveWitness", "OrbitCountReport", "QuotientClassification", "burnside_counts",
        "classify_quotient", "nonexpansive_witness", "quotient_period_counts",
    ),
    "repshift": (
        "FiniteGroupTable", "HnnData", "RepShift", "TqftMatrix", "build_repshift", "cyclic_group",
        "dihedral_group", "enumerate_homs", "evaluate_word", "fibered_preset", "flat_bundle_counts",
        "quaternion_group", "symmetric_group", "tqft_matrix",
        "trivial_group",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def _placeholder(name):
    """Register ``sftact.<name>`` as a module executed on first attribute read."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _EXPORTS:
    globals()[_name] = _placeholder(_name)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))


__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_MODULE_OF))
