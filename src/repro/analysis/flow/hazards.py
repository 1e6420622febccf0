"""Concurrency-hazard extraction: shared-memory view lifetimes and lock
discipline.

These checks are local to one function (FP011) or one class (FP013) but
only make sense with the call graph's vocabulary — worker reachability
decides severity of exposure, and the certificate wants hazards *per
function* so it can intersect them with an entrypoint's closure.

FP011 — ``arena_view`` escape
    ``arena_view(handle, ...)`` maps a pool arena segment into the worker,
    and the arenas are reused by every later dispatch.  Any alias of the
    view (the view itself, a slice of it, a container holding slices) that
    *escapes* the function — returned, yielded or stored on an attribute —
    reads whatever the next dispatch packs there, and pins the attachment
    so the worker's next arena-regrow epoch swap fails.  Aliases are tracked
    linearly: ``arena_view(...)`` results taint the names they are bound to,
    slicing taints, container literals taint, ``.append(view_slice)`` taints
    the container, ``del`` clears, and other function-call results do NOT
    taint (reductions over a view allocate fresh output).  Writes through
    views need no lint rule: input-arena views are read-only at runtime,
    and result-arena views are meant to be written.

FP013 — mutation off the owning lock
    A class that creates ``self._lock = threading.Lock()/RLock()`` has
    declared its private state lock-protected.  Every write to an
    underscore-private attribute outside ``__init__`` must happen inside
    ``with self._lock:`` — the obs registry and the worker pool both follow
    this discipline; this rule keeps refactors honest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.analysis.astutils import dotted_name
from repro.analysis.flow.callgraph import (
    MUTATOR_METHODS,
    CallGraph,
    FunctionInfo,
)

__all__ = ["Hazard", "extract_hazards"]


@dataclass(frozen=True)
class Hazard:
    """One concurrency hazard anchored at a source location."""

    rule_id: str  # FP011 | FP013
    qname: str  # owning function/method
    path: str
    lineno: int
    col: int
    message: str


def _loc(node: ast.AST) -> Tuple[int, int]:
    return getattr(node, "lineno", 1), getattr(node, "col_offset", 0)


# -- FP011: arena_view escape tracking ----------------------------------------


class _ViewTracker:
    """Linear alias-taint walk over one function body."""

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.tainted: Set[str] = set()
        self.hazards: List[Hazard] = []

    def run(self) -> List[Hazard]:
        node = self.fn.node
        body = getattr(node, "body", [])
        if isinstance(body, list):
            self._walk_block(body)
        return self.hazards

    def _hazard(self, node: ast.AST, message: str) -> None:
        line, col = _loc(node)
        self.hazards.append(
            Hazard("FP011", self.fn.qname, self.fn.path, line, col, message)
        )

    # taint predicate: does this expression alias arena memory?
    def _is_tainted(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.tainted
        if isinstance(node, ast.Subscript):
            return self._is_tainted(node.value)
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self._is_tainted(e) for e in node.elts)
        if isinstance(node, ast.Starred):
            return self._is_tainted(node.value)
        if isinstance(node, ast.IfExp):
            return self._is_tainted(node.body) or self._is_tainted(node.orelse)
        # an arena_view(...) call is the source; other calls, binops and
        # comprehensions allocate fresh storage
        return (
            isinstance(node, ast.Call)
            and (dotted_name(node.func) or "").split(".")[-1] == "arena_view"
        )

    def _walk_block(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            if self._is_tainted(stmt.value):
                self._hazard(
                    stmt,
                    "arena view (or a slice of one) returned from "
                    f"'{self.fn.qname}': the next dispatch overwrites its "
                    "bytes and the held attachment blocks the next arena "
                    "epoch; copy (np.array(view)) before returning",
                )
            self._scan_expr(stmt.value)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.tainted.discard(target.id)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value)
            escapes = self._is_tainted(stmt.value)
            for target in stmt.targets:
                self._handle_store(target, escapes, stmt)
            return
        if isinstance(stmt, ast.Expr):
            self._scan_expr(stmt.value)
            return
        # compound statements: recurse into bodies, scan condition exprs
        for child_block in ("body", "orelse", "finalbody"):
            block = getattr(stmt, child_block, None)
            if isinstance(block, list):
                self._walk_block([s for s in block if isinstance(s, ast.stmt)])
        for handler in getattr(stmt, "handlers", []) or []:
            self._walk_block(handler.body)
        for value in ast.iter_child_nodes(stmt):
            if isinstance(value, ast.expr):
                self._scan_expr(value)

    def _handle_store(self, target: ast.expr, escapes: bool, stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            if escapes:
                self.tainted.add(target.id)
            else:
                self.tainted.discard(target.id)
        elif isinstance(target, ast.Attribute) and escapes:
            self._hazard(
                stmt,
                "arena view stored on an object attribute in "
                f"'{self.fn.qname}': the alias outlives the task that "
                "attached it",
            )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._handle_store(elt, escapes, stmt)

    def _scan_expr(self, node: ast.expr) -> None:
        """Track ``container.append(view_slice)`` aliases and yields."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                recv = sub.func.value
                # container.append(view_slice) keeps the alias alive
                if (
                    sub.func.attr in ("append", "extend", "insert", "add")
                    and isinstance(recv, ast.Name)
                    and any(self._is_tainted(a) for a in sub.args)
                ):
                    self.tainted.add(recv.id)
            elif (
                isinstance(sub, (ast.Yield, ast.YieldFrom))
                and sub.value is not None
                and self._is_tainted(sub.value)
            ):
                self._hazard(
                    sub,
                    "arena view yielded from "
                    f"'{self.fn.qname}': the consumer resumes after the "
                    "task, when the arena may hold another dispatch",
                )


# -- FP013: lock discipline ----------------------------------------------------

_LOCK_EXEMPT_METHODS = {"__init__", "__post_init__", "__del__", "__repr__", "__str__"}


def _lock_hazards(graph: CallGraph) -> List[Hazard]:
    hazards: List[Hazard] = []
    for cq in sorted(graph.classes):
        cls = graph.classes[cq]
        if not cls.lock_attrs:
            continue
        for method_name in sorted(cls.methods):
            if method_name in _LOCK_EXEMPT_METHODS:
                continue
            fn = graph.functions[cls.methods[method_name]]
            hazards.extend(_scan_method_locks(fn, cls.lock_attrs))
    return hazards


def _scan_method_locks(fn: FunctionInfo, lock_attrs: Set[str]) -> List[Hazard]:
    hazards: List[Hazard] = []

    def is_lock_with(stmt: ast.With) -> bool:
        for item in stmt.items:
            name = dotted_name(item.context_expr)
            if name and name.startswith("self.") and name.split(".")[1] in lock_attrs:
                return True
        return False

    def self_private_attr(node: ast.expr) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and node.attr not in lock_attrs
        ):
            return node.attr
        return None

    def record(node: ast.AST, attr: str, what: str) -> None:
        line, col = _loc(node)
        hazards.append(
            Hazard(
                "FP013",
                fn.qname,
                fn.path,
                line,
                col,
                f"{what} of 'self.{attr}' outside 'with self.<lock>:' in "
                f"'{fn.qname}': this class declares its private state "
                "lock-protected; take the lock or document why the access "
                "is safe",
            )
        )

    def check_exprs(node: ast.AST) -> None:
        """Scan an expression tree for mutator-method calls on self._x."""
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in MUTATOR_METHODS
            ):
                attr = self_private_attr(sub.func.value)
                if attr:
                    record(sub, attr, f"'.{sub.func.attr}()' mutation")

    def check_stmt(stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                attr = self_private_attr(target)
                if attr:
                    record(stmt, attr, "write")
                if isinstance(target, ast.Subscript):
                    attr = self_private_attr(target.value)
                    if attr:
                        record(stmt, attr, "item write")
        elif isinstance(stmt, ast.AugAssign):
            attr = self_private_attr(stmt.target)
            if attr is None and isinstance(stmt.target, ast.Subscript):
                attr = self_private_attr(stmt.target.value)
            if attr:
                record(stmt, attr, "in-place update")

    def scan_block(stmts: List[ast.stmt], locked: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs are scanned as their own functions
            if isinstance(stmt, ast.With):
                scan_block(stmt.body, locked or is_lock_with(stmt))
                continue
            if not locked:
                check_stmt(stmt)
                # simple statements are pure expression trees; compound ones
                # expose their condition/iter expressions as direct children
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        check_exprs(child)
            for block_name in ("body", "orelse", "finalbody"):
                block = getattr(stmt, block_name, None)
                if isinstance(block, list):
                    scan_block([s for s in block if isinstance(s, ast.stmt)], locked)
            for handler in getattr(stmt, "handlers", []) or []:
                scan_block(handler.body, locked)

    scan_block(list(getattr(fn.node, "body", [])), locked=False)
    return hazards


def extract_hazards(graph: CallGraph) -> List[Hazard]:
    """All FP011/FP013 hazards across the graph, sorted."""
    hazards: List[Hazard] = []
    for fq in sorted(graph.functions):
        fn = graph.functions[fq]
        if isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hazards.extend(_ViewTracker(fn).run())
    hazards.extend(_lock_hazards(graph))
    hazards.sort(key=lambda h: (h.path, h.lineno, h.col, h.rule_id))
    return hazards
