"""The documentation set stays buildable, linked, and complete.

Runs the same checks as the CI docs gate
(``python tools/build_docs.py --strict``) from inside the test suite,
so a broken link, an unresolved docstring cross-reference, or a
package missing from ``docs/architecture.md`` or the generated API
reference fails tier-1 — not just the docs job.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent


@pytest.fixture(scope="module")
def build_docs():
    spec = importlib.util.spec_from_file_location(
        "build_docs", REPO / "tools" / "build_docs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)


def test_strict_build_passes(build_docs, capsys):
    assert build_docs.main(["--strict"]) == 0
    assert "OK" in capsys.readouterr().out


def test_every_package_has_an_architecture_section(build_docs):
    errors: list[str] = []
    build_docs.check_architecture_covers_packages(errors)
    assert errors == []


def test_api_reference_covers_every_package(build_docs):
    packages = build_docs.repro_packages()
    assert "repro.runtime" in packages
    pages = build_docs.generate()
    for package in packages:
        page = build_docs.API_DIR / f"{package}.md"
        assert page in pages, f"missing generated page for {package}"
    index = pages[build_docs.API_DIR / "index.md"]
    for package in packages:
        assert f"{package}.md" in index


def test_checker_catches_broken_links(build_docs, tmp_path,
                                      monkeypatch):
    # The gate must actually gate: a document with a dangling link has
    # to be reported.
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "page.md").write_text("[gone](missing.md)",
                                  encoding="utf-8")
    (tmp_path / "README.md").write_text("fine", encoding="utf-8")
    monkeypatch.setattr(build_docs, "REPO", tmp_path)
    monkeypatch.setattr(build_docs, "DOCS", docs)
    errors: list[str] = []
    build_docs.check_links(errors)
    assert any("missing.md" in error for error in errors)


def test_checker_catches_unresolved_references(build_docs):
    assert build_docs.resolve_reference("repro.runtime.ShardPlan")
    assert build_docs.resolve_reference(
        "repro.auction.settlement.AuctionSettler.settle")
    assert not build_docs.resolve_reference("repro.runtime.Nonexistent")
    assert not build_docs.resolve_reference("repro.no_such_module.X")


def test_mkdocs_nav_references_existing_pages(build_docs):
    # mkdocs.yml is the optional site build; its nav must not rot.
    # API pages are build output: generate() producing one counts.
    generated = build_docs.generate()
    text = (REPO / "mkdocs.yml").read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if line.endswith(".md"):
            target = line.split(": ")[-1]
            page = (REPO / "docs" / target).resolve()
            assert page.exists() or page in generated, target
