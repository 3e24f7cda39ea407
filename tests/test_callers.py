"""Caller guard: every ``ocr_ray`` module must be imported by at least
one non-test file (the package itself, ``scripts/``, ``perfbench/``,
``__ray_entry__.py`` or ``bench.py``).  A module only its own test
imports is dead code; it gets a caller or is deleted.

The allowlist names the modules still without a caller.  It may only
shrink: a listed module that gains a caller must leave the list."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWLIST = {
    "ocr_ray.functions.safemap":
        "ROADMAP item 4: per-doc isolation candidate, undecided",
    "ocr_ray.functions.robotstxt":
        "ROADMAP item 4: two ADVICE defects scheduled, undecided",
    "ocr_ray.kernels.pathsafe": "ROADMAP item 3, undecided",
    "ocr_ray.sources.sitemap": "ROADMAP item 3, undecided",
    "ocr_ray.functions.fingerprint": "ROADMAP item 3, undecided",
    "ocr_ray.functions.stats": "ROADMAP item 3, undecided",
    "ocr_ray.functions.incremental": "ROADMAP item 3, undecided",
    "ocr_ray.functions.blocklist": "ROADMAP item 3, undecided",
    "ocr_ray.functions.asof": "ROADMAP item 3, undecided",
    "ocr_ray.functions.snapshot": "ROADMAP item 3, undecided",
}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(ROOT).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_names(path: Path) -> set:
    """Dotted names a file imports, relative imports resolved."""
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package.pop()
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level \
                else []
            mod = ".".join(base + ([node.module] if node.module else []))
            names.add(mod)
            names.update(f"{mod}.{a.name}" for a in node.names)
    return names


def _uncalled_modules() -> set:
    modules = {_module_name(p) for p in (ROOT / "ocr_ray").rglob("*.py")
               if p.name != "__init__.py"}
    callers = [*(ROOT / "ocr_ray").rglob("*.py"),
               *(ROOT / "scripts").rglob("*.py"),
               *(p for p in (ROOT / "perfbench").rglob("*.py")
                 if not p.name.startswith("test_")),
               ROOT / "__ray_entry__.py", ROOT / "bench.py"]
    imported = set()
    for path in callers:
        own = _module_name(path)
        imported.update(n for n in _imported_names(path)
                        if n != own and not n.startswith(own + "."))
    return {m for m in modules
            if not any(n == m or n.startswith(m + ".") for n in imported)}


def test_every_module_has_a_non_test_caller():
    uncalled = _uncalled_modules()
    new = sorted(uncalled - set(ALLOWLIST))
    assert not new, f"modules imported only by tests (add a caller or " \
                    f"delete them with their tests): {new}"
    stale = sorted(set(ALLOWLIST) - uncalled)
    assert not stale, f"allowlisted modules now have a caller or are " \
                      f"gone — remove them from ALLOWLIST: {stale}"


def test_scan_resolves_relative_imports():
    names = _imported_names(ROOT / "ocr_ray" / "state" / "checkpoint.py")
    assert "ocr_ray.pipelines.extract_pipeline" in names
    names = _imported_names(ROOT / "ocr_ray" / "sources" / "__init__.py")
    assert "ocr_ray.sources.readers" in names
