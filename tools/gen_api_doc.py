"""Generate docs/api.md from the package's public API.

Walks every ``repro`` subpackage, reads its ``__all__`` exports and the
first docstring line of each, and renders a compact API reference.
``render()`` returns the text; running the file writes it.  The test
suite compares ``render()`` with the committed file, so a public API
change must come with a regenerated reference.

Run:  python tools/gen_api_doc.py
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

PACKAGES = [
    "repro",
    "repro.geo",
    "repro.store",
    "repro.roadnet",
    "repro.traces",
    "repro.cleaning",
    "repro.matching",
    "repro.od",
    "repro.features",
    "repro.stats",
    "repro.weather",
    "repro.analysis",
    "repro.experiments",
    "repro.obs",
    "repro.parallel",
    "repro.faults",
    "repro.stream",
    "repro.roadnet.ch",
]

EXTRA_MODULES = [
    "repro.geo.vector",
    "repro.traces.arrays",
    "repro.experiments.extensions",
    "repro.experiments.geojson",
    "repro.experiments.report",
    "repro.experiments.svgmap",
    "repro.matching.evaluate",
    "repro.cleaning.interpolation",
    "repro.roadnet.validate",
    "repro.roadnet.ch.matrix",
    "repro.traces.io",
    "repro.obs.log",
    "repro.obs.metrics",
    "repro.obs.tracing",
    "repro.obs.context",
    "repro.obs.journal",
    "repro.obs.export",
    "repro.obs.profile",
    "repro.obs.report",
    "repro.parallel.executor",
    "repro.parallel.tasks",
    "repro.parallel.worker",
    "repro.faults.plan",
    "repro.faults.injector",
    "repro.faults.guard",
    "repro.faults.errors",
    "repro.stream.sources",
    "repro.stream.checkpoint",
    "repro.stream.service",
    "repro.stream.compare",
    "repro.roadnet.routing",
    "repro.roadnet.ch.csr",
    "repro.roadnet.ch.contract",
    "repro.roadnet.ch.engine",
    "repro.roadnet.ch.io",
    "repro.cli",
]


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.splitlines()[0].rstrip(".")


def kind_of(obj) -> str:
    if inspect.isclass(obj):
        return "class"
    if inspect.isfunction(obj):
        return "function"
    if isinstance(obj, tuple):
        return "constant"
    if isinstance(obj, dict):
        return "constant"
    return "constant"


def document_module(name: str, explicit_all: bool = True) -> list[str]:
    module = importlib.import_module(name)
    lines = [f"## `{name}`", ""]
    summary = first_line(module)
    if summary:
        lines.append(summary + ".")
        lines.append("")
    exported = getattr(module, "__all__", None)
    if exported is None:
        if explicit_all:
            return []
        exported = [n for n in dir(module) if not n.startswith("_")]
    rows = []
    for export in exported:
        obj = getattr(module, export)
        if inspect.ismodule(obj):
            continue
        kind = kind_of(obj)
        # Builtin-value constants inherit their type's docstring; skip it.
        summary = "" if kind == "constant" else first_line(obj)
        rows.append((export, kind, summary))
    if rows:
        lines.append("| Name | Kind | Summary |")
        lines.append("|---|---|---|")
        for export, kind, summary in rows:
            lines.append(f"| `{export}` | {kind} | {summary} |")
        lines.append("")
    return lines


#: The generated reference, committed so readers need not run the tool.
API_DOC = Path(__file__).resolve().parent.parent / "docs" / "api.md"


def render() -> str:
    """The full text of ``docs/api.md`` for the current source tree."""
    out: list[str] = [
        "# API reference",
        "",
        "Generated by `python tools/gen_api_doc.py` — do not edit by hand.",
        "",
    ]
    for name in PACKAGES:
        out.extend(document_module(name))
    out.append("# Additional modules")
    out.append("")
    for name in EXTRA_MODULES:
        out.extend(document_module(name, explicit_all=False))
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    text = render()
    API_DOC.write_text(text)
    print(f"wrote {API_DOC} ({len(text.splitlines())} lines)")
