#!/usr/bin/env python
"""Build and verify the documentation set, with zero extra deps.

Two jobs, mirroring what a mkdocs/sphinx pipeline would do but
runnable anywhere the library itself runs:

1. **Generate the API reference** (``docs/api/``): one page per
   ``src/repro`` package, rendered from the live module docstrings and
   public signatures.  The pages are build output, not committed: the
   docs CI job writes them before ``mkdocs build``.

2. **Strict verification** (``--strict`` — the CI docs gate):

   * every relative link in ``README.md`` and ``docs/**/*.md``
     resolves to an existing file or a generated API page, and every
     ``#anchor`` to a real heading of its target;
   * every Sphinx-style cross-reference (``:mod:`...```,
     ``:class:`...```, ``:func:`...```, ``:meth:`...```,
     ``:attr:`...```) found in the repo's module docstrings resolves
     to an importable object;
   * every ``src/repro`` package has a section heading in
     ``docs/architecture.md`` (the docs-coverage acceptance bar), and
     a generated page the API index links.

   The checks read the in-memory generation, so ``--strict`` needs no
   ``docs/api/`` on disk.

Run::

    python tools/build_docs.py            # (re)generate docs/api/
    python tools/build_docs.py --strict   # verify; non-zero on breakage
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
DOCS = REPO / "docs"
API_DIR = DOCS / "api"

sys.path.insert(0, str(SRC))

LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
ROLE_PATTERN = re.compile(
    r":(?:mod|class|func|meth|attr|data):`~?([A-Za-z0-9_.]+)`")
HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def repro_packages() -> list[str]:
    import repro

    return sorted(
        module.name for module in
        pkgutil.iter_modules(repro.__path__, prefix="repro.")
        if module.ispkg)


def package_modules(package_name: str) -> list[str]:
    package = importlib.import_module(package_name)
    return [package_name] + sorted(
        module.name for module in
        pkgutil.iter_modules(package.__path__,
                             prefix=package_name + ".")
        if not module.ispkg)


def public_members(module) -> list[tuple[str, object]]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module)
                 if not name.startswith("_")]
    members = []
    for name in sorted(names):
        member = getattr(module, name, None)
        if inspect.isclass(member) or inspect.isfunction(member):
            if getattr(member, "__module__", None) == module.__name__:
                members.append((name, member))
    return members


def first_paragraph(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    paragraph = doc.split("\n\n", 1)[0].strip()
    return " ".join(paragraph.split())


def signature_of(member) -> str:
    try:
        return str(inspect.signature(member))
    except (TypeError, ValueError):
        return "(...)"


def render_package_page(package_name: str) -> str:
    lines = [f"# `{package_name}`", ""]
    lines.append("*Generated by `tools/build_docs.py` from module "
                 "docstrings — do not edit by hand.*")
    lines.append("")
    for module_name in package_modules(package_name):
        module = importlib.import_module(module_name)
        title = ("Package overview" if module_name == package_name
                 else f"`{module_name}`")
        lines.append(f"## {title}")
        lines.append("")
        doc = inspect.getdoc(module)
        if doc:
            lines.append(doc.strip())
            lines.append("")
        members = public_members(module)
        if members and module_name != package_name:
            lines.append("**Public API:**")
            lines.append("")
            for name, member in members:
                kind = "class" if inspect.isclass(member) else "def"
                summary = first_paragraph(member)
                suffix = f" — {summary}" if summary else ""
                lines.append(
                    f"- `{kind} {name}{signature_of(member)}`{suffix}")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def render_api_index(packages: list[str]) -> str:
    lines = [
        "# API reference",
        "",
        "*Generated by `tools/build_docs.py` from module docstrings —",
        "do not edit by hand.  Regenerate with "
        "`python tools/build_docs.py`.*",
        "",
    ]
    for package in packages:
        module = importlib.import_module(package)
        summary = first_paragraph(module) or ""
        lines.append(f"- [`{package}`]({package}.md) — {summary}")
    return "\n".join(lines).rstrip() + "\n"


def generate() -> dict[Path, str]:
    packages = repro_packages()
    pages = {API_DIR / "index.md": render_api_index(packages)}
    for package in packages:
        pages[API_DIR / f"{package}.md"] = render_package_page(package)
    return pages


def write_pages(pages: dict[Path, str]) -> None:
    API_DIR.mkdir(parents=True, exist_ok=True)
    for path, content in pages.items():
        path.write_text(content, encoding="utf-8")
    for stale in API_DIR.glob("*.md"):
        if stale not in pages:
            stale.unlink()


def slugify(heading: str) -> str:
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^a-z0-9\s-]", "", text)
    return re.sub(r"[\s]+", "-", text).strip("-")


def check_links(errors: list[str],
                generated: dict[Path, str] | None = None) -> None:
    """Relative links and anchors; ``generated`` pages count as
    present (and are read from memory) whether or not they are on
    disk."""
    generated = generated or {}
    documents = [REPO / "README.md"] + sorted(
        path for path in DOCS.rglob("*.md") if API_DIR not in path.parents)
    for document in documents:
        text = document.read_text(encoding="utf-8")
        for match in LINK_PATTERN.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, anchor = target.partition("#")
            if path_part:
                resolved = (document.parent / path_part).resolve()
                if not resolved.exists() and resolved not in generated:
                    errors.append(
                        f"{document.relative_to(REPO)}: broken link "
                        f"-> {target}")
                    continue
            else:
                resolved = document
            if anchor and resolved.suffix == ".md":
                text = generated.get(resolved) \
                    or resolved.read_text(encoding="utf-8")
                headings = HEADING_PATTERN.findall(text)
                if anchor not in {slugify(h) for h in headings}:
                    errors.append(
                        f"{document.relative_to(REPO)}: broken anchor "
                        f"-> {target}")


def resolve_reference(reference: str) -> bool:
    parts = reference.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            target = importlib.import_module(module_name)
        except ImportError:
            continue
        for attribute in parts[split:]:
            target = getattr(target, attribute, None)
            if target is None:
                return False
        return True
    return False


def check_docstring_references(errors: list[str]) -> None:
    for package in repro_packages():
        for module_name in package_modules(package):
            module = importlib.import_module(module_name)
            seen: set[str] = set()
            sources = [inspect.getdoc(module) or ""]
            for _, member in public_members(module):
                sources.append(inspect.getdoc(member) or "")
                if inspect.isclass(member):
                    for _, method in inspect.getmembers(
                            member, inspect.isfunction):
                        if method.__module__ == module_name:
                            sources.append(inspect.getdoc(method) or "")
            for source in sources:
                for match in ROLE_PATTERN.finditer(source):
                    reference = match.group(1).rstrip(".")
                    if reference in seen:
                        continue
                    seen.add(reference)
                    if not reference.startswith("repro"):
                        continue
                    if not resolve_reference(reference):
                        errors.append(
                            f"{module_name}: unresolved cross-"
                            f"reference :{match.group(0)}")


def check_architecture_covers_packages(errors: list[str]) -> None:
    architecture = (DOCS / "architecture.md").read_text(
        encoding="utf-8")
    for package in repro_packages():
        short = package.removeprefix("repro.")
        pattern = re.compile(
            rf"^#{{2,4}}\s+.*`(repro\.)?{re.escape(short)}`",
            re.MULTILINE)
        if not pattern.search(architecture):
            errors.append(
                f"docs/architecture.md: no section heading for "
                f"package `{package}`")


def check_api_pages_cover_packages(errors: list[str],
                                   pages: dict[Path, str]) -> None:
    index = pages[API_DIR / "index.md"]
    for package in repro_packages():
        if API_DIR / f"{package}.md" not in pages \
                or f"({package}.md)" not in index:
            errors.append(f"API reference: no indexed page for "
                          f"`{package}`")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--strict", action="store_true",
                        help="verify instead of write; exit non-zero "
                             "on any broken link, cross-reference, or "
                             "package missing a section or API page")
    args = parser.parse_args(argv)

    pages = generate()
    if not args.strict:
        write_pages(pages)
        print(f"wrote {len(pages)} API pages to "
              f"{API_DIR.relative_to(REPO)}/")
        return 0

    errors: list[str] = []
    check_api_pages_cover_packages(errors, pages)
    check_links(errors, pages)
    check_docstring_references(errors)
    check_architecture_covers_packages(errors)
    if errors:
        print(f"docs check: {len(errors)} problem(s)", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return 1
    documents = len([path for path in DOCS.rglob("*.md")
                     if API_DIR not in path.parents]) + 1
    print(f"docs check: OK ({documents} documents, "
          f"{len(pages)} generated API pages)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
