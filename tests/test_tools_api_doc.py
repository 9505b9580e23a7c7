"""Tests for tools/gen_api_doc.py."""

import runpy
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _render() -> str:
    return runpy.run_path(str(REPO / "tools" / "gen_api_doc.py"))["render"]()


class TestApiDocGenerator:
    def test_generates_reference(self):
        # The committed reference must be exactly what the tool renders
        # for this source tree; the test never rewrites it.
        text = _render()
        committed = (REPO / "docs" / "api.md").read_text()
        assert text == committed, (
            "docs/api.md is stale: run `python tools/gen_api_doc.py` "
            "and commit the result"
        )
        assert "# API reference" in text
        for anchor in ("## `repro.geo`", "## `repro.stats`",
                       "`OuluStudy`", "`RandomInterceptModel`",
                       "`TaxiFleetSimulator`", "`IncrementalMatcher`"):
            assert anchor in text, f"missing {anchor}"

    def test_every_package_documented(self):
        text = (REPO / "docs" / "api.md").read_text()
        for pkg in ("repro.geo", "repro.store", "repro.roadnet",
                    "repro.traces", "repro.cleaning", "repro.matching",
                    "repro.od", "repro.features", "repro.stats",
                    "repro.weather", "repro.analysis", "repro.experiments"):
            assert f"## `{pkg}`" in text
