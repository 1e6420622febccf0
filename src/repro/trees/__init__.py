"""Reduction-tree model: shapes, leaf assignments, evaluation strategies."""

from repro.trees.enumeration import (
    ValueSpace,
    achievable_values,
    catalan,
    enumerate_shapes,
    n_shapes,
)
from repro.trees.evaluate import (
    balanced_ensemble_vops,
    evaluate_balanced_vectorized,
    evaluate_ensemble,
    evaluate_tree,
    evaluate_tree_generic,
)
from repro.trees.schedule import (
    CompiledSchedule,
    clear_schedule_cache,
    compile_tree,
    schedule_cache_info,
    structural_key,
)
from repro.trees.serial_batch import serial_ensemble_standard, serial_ensemble_vops
from repro.trees.shapes import balanced, from_parent_array, random_shape, serial, skewed
from repro.trees.tree import ReductionTree

__all__ = [
    "CompiledSchedule",
    "ReductionTree",
    "ValueSpace",
    "achievable_values",
    "balanced",
    "balanced_ensemble_vops",
    "catalan",
    "clear_schedule_cache",
    "compile_tree",
    "enumerate_shapes",
    "evaluate_balanced_vectorized",
    "evaluate_ensemble",
    "evaluate_tree",
    "evaluate_tree_generic",
    "from_parent_array",
    "n_shapes",
    "random_shape",
    "schedule_cache_info",
    "serial",
    "serial_ensemble_standard",
    "serial_ensemble_vops",
    "skewed",
    "structural_key",
]
