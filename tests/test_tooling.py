"""CI gates for the repo's tooling layer.

Wires two standalone entry points into the tier-1 suite:

* ``scripts/check_docs_refs.py`` — every DESIGN.md / EXPERIMENTS.md /
  README.md / PAPER.md / docs-tree citation in ``src/`` and ``docs/``
  must resolve to a real file and a real numbered section;
* ``python -m repro.bench --smoke`` — the fast experiment gate (all
  shape checks plus the tuple-vs-batched real-pipeline sanity pass).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_check_docs_refs():
    return _load_script("check_docs_refs")


def test_docs_exist():
    for name in (
        "DESIGN.md",
        "EXPERIMENTS.md",
        "README.md",
        "PAPER.md",
        "docs/ARCHITECTURE.md",
        "docs/PROTOCOL.md",
    ):
        assert (REPO_ROOT / name).is_file(), f"{name} is missing"


def test_doc_citations_resolve():
    checker = _load_check_docs_refs()
    problems = checker.check(REPO_ROOT)
    assert not problems, "\n".join(problems)


def test_docs_refs_checker_flags_dangling_citation(tmp_path):
    """The checker actually fails on a dangling section citation."""
    checker = _load_check_docs_refs()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        '"""See DESIGN.md section 99."""\n', encoding="utf-8"
    )
    (tmp_path / "DESIGN.md").write_text("## 1. Intro\n", encoding="utf-8")
    problems = checker.check(tmp_path)
    assert len(problems) == 1 and "section 99" in problems[0]
    (tmp_path / "src" / "mod.py").write_text(
        '"""See EXPERIMENTS.md."""\n', encoding="utf-8"
    )
    problems = checker.check(tmp_path)
    assert len(problems) == 1 and "missing file" in problems[0]


def test_docs_refs_checker_covers_the_docs_tree(tmp_path):
    """Citations of and inside docs/ files are checked too: bare
    ARCHITECTURE.md / PROTOCOL.md names resolve into docs/, and the
    docs themselves are scanned as citation sources."""
    checker = _load_check_docs_refs()
    (tmp_path / "src").mkdir()
    (tmp_path / "docs").mkdir()
    (tmp_path / "DESIGN.md").write_text("## 1. Intro\n", encoding="utf-8")
    (tmp_path / "src" / "mod.py").write_text(
        '"""See docs/PROTOCOL.md section 2 and ARCHITECTURE.md."""\n',
        encoding="utf-8",
    )
    # docs/PROTOCOL.md missing entirely, ARCHITECTURE.md present but
    # cited from within the docs tree with a dangling section number
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text(
        "## 1. Map\nSee DESIGN.md section 7.\n", encoding="utf-8"
    )
    problems = checker.check(tmp_path)
    assert len(problems) == 2
    assert any(
        "docs/PROTOCOL.md" in problem and "missing file" in problem
        for problem in problems
    )
    assert any(
        "ARCHITECTURE.md" in problem and "section 7" in problem
        for problem in problems
    )
    # fixing both clears the report
    (tmp_path / "docs" / "PROTOCOL.md").write_text(
        "## 2. Version negotiation\n", encoding="utf-8"
    )
    (tmp_path / "docs" / "ARCHITECTURE.md").write_text(
        "## 1. Map\nSee DESIGN.md section 1.\n", encoding="utf-8"
    )
    assert checker.check(tmp_path) == []


def test_public_api_surface_matches_snapshot():
    """The committed snapshot is current: API drift fails the gate."""
    checker = _load_script("check_public_api")
    problems = checker.check()
    assert not problems, "\n".join(problems)


def test_public_api_checker_flags_drift():
    """The checker actually fails on removals, additions, and
    signature changes."""
    checker = _load_script("check_public_api")
    observed = checker.current_surface()
    snapshot = checker.current_surface()
    del snapshot["repro"]["Warehouse"]          # addition vs snapshot
    snapshot["repro"]["Ghost"] = {"kind": "class", "members": {}}
    snapshot["repro.client"]["connect"] = {
        "kind": "function",
        "signature": "(somewhere_else)",
    }
    problems = checker.compare(snapshot, observed)
    assert any("Warehouse: added" in problem for problem in problems)
    assert any("Ghost: removed" in problem for problem in problems)
    assert any(
        "connect: signature changed" in problem for problem in problems
    )


def test_public_api_checker_reports_missing_snapshot(tmp_path):
    checker = _load_script("check_public_api")
    problems = checker.check(tmp_path / "nope.json")
    assert len(problems) == 1 and "--update" in problems[0]


def test_bench_smoke_passes(capsys):
    from repro.bench.__main__ import main

    assert main(["--smoke"]) == 0
    out = capsys.readouterr().out
    assert "pipeline smoke" in out and "ok" in out


def test_bench_smoke_unknown_id_rejected():
    from repro.bench.__main__ import main

    assert main(["--smoke", "nope"]) == 2
