"""Span recorder that times sftact's layers from outside the package.

``Recorder.tracing()`` wraps the public functions listed in ``LAYERS``
and rebinds each wrapper under every name that refers to the original in
every loaded ``sftact`` module, because the modules import each other's
functions by name.  Each call becomes a span (id, parent, job, name,
start, end) kept in memory; self time is a span's duration minus the
durations of its children.  Private hot helpers such as ``compose``,
``invert`` and ``_mul_rows`` are deliberately left unwrapped: one span per
call would dominate what they measure.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# Public functions per module.  "PermGroup" and "PermutationAction" time
# construction (their __post_init__ validation); "orbit_structure" times
# _orbit_structure, which computes the cached PermutationAction.orbits
# that the public orbit_structure() reads.
LAYERS = {
    "cli": ("parse_job", "run_job", "emit_report"),
    "action": ("group_from_generators", "PermGroup", "PermutationAction", "orbit_structure", "fixed_submatrix"),
    "reduce": ("right_reduce", "left_reduce"),
    "matrices": ("char_poly_reciprocal", "trace_of_power", "mat_mul", "smith_normal_form", "poly_lcm"),
    "sft": ("enumerate_cycles", "trim_essential", "is_irreducible"),
    "quotient": ("burnside_counts", "quotient_period_counts", "classify_quotient", "nonexpansive_witness"),
    "sse": ("out_split", "in_split", "transport_certificate", "verify_elementary_sse"),
    "repshift": ("enumerate_homs", "build_repshift", "tqft_matrix", "flat_bundle_counts"),
}
CLASSES = ("PermGroup", "PermutationAction")
RENAMED = {"orbit_structure": "_orbit_structure"}

CYCLES = "sft.cycles_enumerated"
HOMS = "repshift.homs_enumerated"
ORDER_MAX = "action.group_order_max"
QUOTIENT_CYCLES = "quotient.cycles_enumerated"
QUOTIENT_ORBITS = "quotient.orbits_counted"


class Recorder:
    def __init__(self):
        self.spans = []  # [id, parent, job, name, start, end]
        self.counters = {CYCLES: 0, HOMS: 0, ORDER_MAX: 0, QUOTIENT_CYCLES: 0, QUOTIENT_ORBITS: 0}
        self.job = None
        self._stack = []

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, self.job, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            before = self.counters[CYCLES]
            result = error = None
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[5] = perf_counter()
                stack.pop()
                if after is not None:
                    after(self.counters, args, kwargs, result, error, before)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def tracing(self):
        """Install the wrappers for the duration of the block."""
        import sftact.action

        modules = [m for k, m in sys.modules.items() if k == "sftact" or k.startswith("sftact.")]
        undo = []
        wrappers = {}
        for module, names in LAYERS.items():
            mod = sys.modules[f"sftact.{module}"]
            for name in names:
                label = f"{module}.{name}"
                if name in CLASSES:
                    cls = getattr(sftact.action, name)
                    original = cls.__dict__["__post_init__"]
                    cls.__post_init__ = self._wrap(label, original, _AFTER.get(label))
                    undo.append((cls, "__post_init__", original))
                else:
                    original = getattr(mod, RENAMED.get(name, name))
                    wrappers[id(original)] = (original, self._wrap(label, original, _AFTER.get(label)))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    undo.append((mod, attr, value))
        try:
            yield self
        finally:
            for target, attr, value in reversed(undo):
                setattr(target, attr, value)

    def self_times(self) -> dict:
        """name -> [self seconds, calls] over every span recorded so far."""
        child = [0.0] * len(self.spans)
        for sid, parent, _job, _name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for sid, _parent, _job, name, start, end in self.spans:
            entry = out.setdefault(name, [0.0, 0])
            entry[0] += end - start - child[sid]
            entry[1] += 1
        return out


def _after_cycles(counters, args, kwargs, result, error, before):
    from sftact.errors import CapExceededError

    if error is None:
        counters[CYCLES] += len(result)
    elif isinstance(error, CapExceededError):
        cap = args[2] if len(args) > 2 else kwargs["cap"]
        counters[CYCLES] += cap + 1


def _after_homs(counters, args, kwargs, result, error, before):
    if error is None:
        counters[HOMS] += len(result)


def _after_group(counters, args, kwargs, result, error, before):
    if error is None:
        counters[ORDER_MAX] = max(counters[ORDER_MAX], len(args[0].elements))


def _after_quotient(counters, args, kwargs, result, error, before):
    counters[QUOTIENT_CYCLES] += counters[CYCLES] - before
    if error is None:
        counters[QUOTIENT_ORBITS] += sum(result)


_AFTER = {
    "sft.enumerate_cycles": _after_cycles,
    "repshift.enumerate_homs": _after_homs,
    "action.PermGroup": _after_group,
    "quotient.quotient_period_counts": _after_quotient,
}
