"""Bench-side spans around calls into the program's layers.

The traced pass never edits the program: it swaps a timing proxy in for
a public function or method for the duration of one call into the
program, records a span per call (name, layer, start, end, parent), and
restores the original afterwards.  Spans stay in memory and are written
out once, at the end of the run, with their self times.

Self time is a span's duration minus the part its child spans cover; a
layer's self time is the sum over its spans.  Time inside a span whose
layer is ``None`` (the bench's own root, the study orchestrator) is what
no layer accounts for.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """In-memory span recorder for one workload process.

    ``targets`` are the layer entry points :meth:`section` proxies; an
    untraced run passes none and records only the bench's own spans.
    """

    def __init__(self, workload: str, targets: list[tuple] = ()) -> None:
        self.workload = workload
        self.targets = list(targets)
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def section(self, name: str):
        """The timed section: a root span with every layer proxy installed."""
        with self.patched(self.targets), self.span(name, None) as root:
            yield root

    @contextmanager
    def span(self, name: str, layer: str | None):
        record = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._stack.pop()

    def proxy(self, fn, layer: str, name):
        """``fn`` wrapped so every call records a span.

        ``name`` is the span name, or a function deriving it from the
        call's positional arguments (the executor's task kind, say).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(args) if callable(name) else name, layer):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets):
        """Install proxies on ``(owner, attribute, layer, name)`` targets.

        Each attribute is looked up in the owner's own namespace (a module
        or a class), and the original is restored on exit.
        """
        saved = []
        try:
            for owner, attr, layer, name in targets:
                original = vars(owner)[attr]
                setattr(owner, attr, self.proxy(original, layer, name))
                saved.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------------

    def _children(self) -> dict[int, list[dict]]:
        children: dict[int, list[dict]] = {}
        for record in self.spans:
            if record["parent"] is not None:
                children.setdefault(record["parent"], []).append(record)
        return children

    def self_seconds(self, record: dict, children: dict[int, list[dict]]) -> float:
        covered = sum(
            c["end"] - c["start"] for c in children.get(record["id"], ())
        )
        return (record["end"] - record["start"]) - covered

    def layer_self_seconds(self, root_id: int) -> dict[str | None, float]:
        """Self time per layer below (and including) one root span."""
        children = self._children()
        out: dict[str | None, float] = {}
        todo = [self.spans[root_id]]
        while todo:
            record = todo.pop()
            todo.extend(children.get(record["id"], ()))
            out[record["layer"]] = (
                out.get(record["layer"], 0.0) + self.self_seconds(record, children)
            )
        return out

    def inclusive_seconds(self, root_id: int, names=(), layer: str | None = None) -> float:
        """Summed duration of the outermost matching spans below a root.

        A span matches when its name is in ``names`` or its layer is
        ``layer``; spans nested inside a matching span count once.
        """
        children = self._children()
        total = 0.0
        todo = list(children.get(root_id, ()))
        while todo:
            record = todo.pop()
            if record["name"] in names or (layer is not None and record["layer"] == layer):
                total += record["end"] - record["start"]
            else:
                todo.extend(children.get(record["id"], ()))
        return total

    def dump(self, path: Path) -> None:
        """Write every span, times relative to the first, with self times."""
        children = self._children()
        origin = self.spans[0]["start"] if self.spans else 0.0
        doc = [
            {
                **record,
                "start": record["start"] - origin,
                "end": record["end"] - origin,
                "self_s": self.self_seconds(record, children),
            }
            for record in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"workload": self.workload, "spans": doc}))
