#!/usr/bin/env python3
"""Fail when the exported public API drifts from its snapshot.

The client layer (DESIGN.md section 10) and the TCP service boundary
(DESIGN.md section 11) make ``repro``, ``repro.client``, and
``repro.server`` a compatibility surface real code depends on.  This
script snapshots every ``__all__`` export of those modules — classes
with their public method/property signatures, functions with their
signatures — into ``scripts/api_surface.json`` and fails listing every
difference, so signature breakage is always a reviewed decision, never
an accident.  Wired into CI (the ``api-surface`` job) and the test
suite via tests/test_tooling.py; also runnable standalone::

    python scripts/check_public_api.py            # verify
    python scripts/check_public_api.py --update   # re-snapshot
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT_PATH = REPO_ROOT / "scripts" / "api_surface.json"

#: The modules whose exported surface is under contract.
MODULES = ("repro", "repro.client", "repro.server")


def _describe_callable(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def _describe(obj) -> dict:
    """A JSON-able structural description of one export."""
    if inspect.isclass(obj):
        members: dict[str, str] = {}
        for name, member in inspect.getmembers(obj):
            if name.startswith("_") and name != "__init__":
                continue
            if inspect.isfunction(member) or inspect.ismethod(member):
                members[name] = _describe_callable(member)
            elif isinstance(member, property):
                members[name] = "<property>"
        return {"kind": "class", "members": members}
    if inspect.isfunction(obj):
        return {"kind": "function", "signature": _describe_callable(obj)}
    return {"kind": "constant", "type": type(obj).__name__}


def current_surface() -> dict:
    """Describe every ``__all__`` export of the contracted modules."""
    surface: dict[str, dict] = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        surface[module_name] = {
            export: _describe(getattr(module, export))
            for export in sorted(module.__all__)
        }
    return surface


def compare(snapshot: dict, observed: dict) -> list[str]:
    """Human-readable differences (empty = surfaces match)."""
    problems: list[str] = []
    for module_name in sorted(set(snapshot) | set(observed)):
        old = snapshot.get(module_name)
        new = observed.get(module_name)
        if old is None:
            problems.append(f"{module_name}: module not in snapshot")
            continue
        if new is None:
            problems.append(f"{module_name}: module no longer importable")
            continue
        for name in sorted(set(old) - set(new)):
            problems.append(f"{module_name}.{name}: removed from __all__")
        for name in sorted(set(new) - set(old)):
            problems.append(f"{module_name}.{name}: added to __all__")
        for name in sorted(set(old) & set(new)):
            before, after = old[name], new[name]
            if before.get("kind") != after.get("kind"):
                problems.append(
                    f"{module_name}.{name}: kind changed "
                    f"{before.get('kind')} -> {after.get('kind')}"
                )
                continue
            if before.get("signature") != after.get("signature"):
                problems.append(
                    f"{module_name}.{name}: signature changed "
                    f"{before.get('signature')} -> {after.get('signature')}"
                )
            old_members = before.get("members", {})
            new_members = after.get("members", {})
            for member in sorted(set(old_members) - set(new_members)):
                problems.append(
                    f"{module_name}.{name}.{member}: member removed"
                )
            for member in sorted(set(new_members) - set(old_members)):
                problems.append(
                    f"{module_name}.{name}.{member}: member added"
                )
            for member in sorted(set(old_members) & set(new_members)):
                if old_members[member] != new_members[member]:
                    problems.append(
                        f"{module_name}.{name}.{member}: signature "
                        f"changed {old_members[member]} -> "
                        f"{new_members[member]}"
                    )
    return problems


def check(snapshot_path: Path = SNAPSHOT_PATH) -> list[str]:
    """Compare the live surface against the committed snapshot."""
    if not snapshot_path.is_file():
        return [
            f"snapshot {snapshot_path} is missing; run "
            f"'python scripts/check_public_api.py --update' and commit it"
        ]
    snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
    return compare(snapshot, current_surface())


def update(snapshot_path: Path = SNAPSHOT_PATH) -> None:
    """Rewrite the snapshot from the live surface."""
    snapshot_path.write_text(
        json.dumps(current_surface(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite scripts/api_surface.json from the live surface",
    )
    args = parser.parse_args(argv)
    if args.update:
        update()
        print(f"snapshot written to {SNAPSHOT_PATH}")
        return 0
    problems = check()
    if problems:
        print(f"{len(problems)} public API difference(s) vs snapshot:")
        for problem in problems:
            print(f"  {problem}")
        print(
            "intentional change? run "
            "'python scripts/check_public_api.py --update' and commit "
            "the snapshot diff"
        )
        return 1
    print("public API surface matches the snapshot")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    raise SystemExit(main())
