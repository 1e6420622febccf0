"""FP011: arena view escaping the task that attached it.

``arena_view(handle, ...)`` maps a pool arena segment into the worker, and
the arenas are reused by every later dispatch.  Returning the view,
yielding it, or storing it (or a slice of it — NumPy slices alias the same
pages) on an attribute keeps an alias whose bytes the next dispatch
overwrites, and which pins the attachment: the worker's next arena-regrow
epoch swap then fails, far from the code that kept the view.  Results
leaving a shard function must be fresh arrays (``np.array(view[...])``) or
scalars, or be written into the result arena.

Findings are emitted by the flow engine (``repro-lint --flow``); this class
anchors the id/severity/rationale in the shared catalogue.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.base import FileContext, Finding, Rule, Severity


class SharedViewEscape(Rule):
    id = "FP011"
    title = "arena_view view escapes its task"
    severity = Severity.ERROR
    rationale = (
        "ndarray views of an arena segment see the next dispatch's bytes and "
        "pin the worker's attachment past the arena's next regrow; copy "
        "before returning/storing"
    )
    flow = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())
