"""Concrete FP001–FP011 and FP013 rules, registered on import.

Mirrors :mod:`repro.summation.registry`: each rule module defines a class,
this package instantiates and registers one of each, and
:func:`repro.analysis.base.all_rules` is the authoritative catalogue.

FP001–FP008 are file-local syntactic rules run by the per-file engine;
FP009–FP011 and FP013 are *flow* rules — their findings come from the
whole-program pass in :mod:`repro.analysis.flow` (``repro-lint --flow``),
and the classes here carry the catalogue metadata (id, severity, rationale)
plus a ``flow = True`` marker so the CLI, baselines and suppressions treat
both kinds uniformly.  The id between FP011 and FP013 is retired: it
flagged writes through shared-memory views, and input-arena views are now
read-only at runtime.
"""

from repro.analysis.base import register
from repro.analysis.rules.fp001_float_eq import FloatLiteralEquality
from repro.analysis.rules.fp002_bare_sum import BareSum
from repro.analysis.rules.fp003_naive_accum import NaiveLoopAccumulation
from repro.analysis.rules.fp004_eft_patterns import InlineEFTAlgebra
from repro.analysis.rules.fp005_dtype_downcast import DtypeDowncast
from repro.analysis.rules.fp006_nondet_iter import NondeterministicIteration
from repro.analysis.rules.fp007_test_tolerance import ExactFloatAssert
from repro.analysis.rules.fp008_rng_hazards import SharedRngAndMutableDefaults
from repro.analysis.rules.fp009_flow_nondet_source import FlowNondeterminismSource
from repro.analysis.rules.fp010_worker_global import WorkerSharedGlobal
from repro.analysis.rules.fp011_shared_view_escape import SharedViewEscape
from repro.analysis.rules.fp013_unlocked_mutation import UnlockedPrivateMutation

__all__ = [
    "FloatLiteralEquality",
    "BareSum",
    "NaiveLoopAccumulation",
    "InlineEFTAlgebra",
    "DtypeDowncast",
    "NondeterministicIteration",
    "ExactFloatAssert",
    "SharedRngAndMutableDefaults",
    "FlowNondeterminismSource",
    "WorkerSharedGlobal",
    "SharedViewEscape",
    "UnlockedPrivateMutation",
]

for _rule in (
    FloatLiteralEquality(),
    BareSum(),
    NaiveLoopAccumulation(),
    InlineEFTAlgebra(),
    DtypeDowncast(),
    NondeterministicIteration(),
    ExactFloatAssert(),
    SharedRngAndMutableDefaults(),
    FlowNondeterminismSource(),
    WorkerSharedGlobal(),
    SharedViewEscape(),
    UnlockedPrivateMutation(),
):
    register(_rule)
