"""The lint rule configuration: which invariant applies where.

One :class:`LintConfig` instance parameterises every rule in the
catalogue, so the project's conventions live in one place —
:func:`default_config` — instead of being hard-coded inside the rule
visitors.  Paths are matched *package-wise*: a file belongs to
``repro/service`` when that package path appears as a directory run
anywhere in its path, so the same config works whether the scan root is
``src``, the repo root, or a test fixture tree.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import FrozenSet, Tuple


def _stdlib_modules() -> FrozenSet[str]:
    """Top-level stdlib module names (``sys.stdlib_module_names``, 3.10+)."""
    names = getattr(sys, "stdlib_module_names", None)
    if names is None:  # pragma: no cover - Python < 3.10 fallback
        return frozenset()
    return frozenset(names) | {"__future__"}


def path_in_packages(rel_path: str, packages: Tuple[str, ...]) -> bool:
    """Whether ``rel_path`` lies under any of the ``packages`` directories.

    ``packages`` entries are slash-separated package paths such as
    ``"repro/service"``; matching is on whole directory runs, so
    ``src/repro/service/jobs.py`` matches ``repro/service`` but
    ``repro/service_utils.py`` does not.
    """
    haystack = "/" + rel_path.replace("\\", "/").lstrip("/")
    return any("/" + package + "/" in haystack for package in packages)


@dataclass(frozen=True)
class LintConfig:
    """Per-project settings consumed by the rule catalogue.

    Every field has a project-appropriate default; tests build variants
    with ``dataclasses.replace`` to point rules at fixture trees.
    """

    #: Packages that must import nothing beyond the stdlib and first-party
    #: code (the service tier must boot anywhere a Python is).
    stdlib_only_packages: Tuple[str, ...] = (
        "repro/service",
        "repro/obs",
        "repro/devtools",
    )
    #: Third-party imports tolerated *outside* the stdlib-only packages.
    #: numpy only: a second numerical backend (scipy's ``gammaln``) once made
    #: the analytical models' bits depend on what was installed.
    third_party_allowlist: FrozenSet[str] = frozenset({"numpy"})
    #: First-party top-level packages (always importable from anywhere).
    first_party_modules: FrozenSet[str] = frozenset({"repro"})
    #: Resolved stdlib top-level names.
    stdlib_modules: FrozenSet[str] = field(default_factory=_stdlib_modules)

    #: ``(module, attribute)`` calls that produce wall-clock readings.
    wall_clock_calls: Tuple[Tuple[str, str], ...] = (
        ("time", "time"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
    )
    #: Name suffixes exempt from the wall-clock rule: ``*_at`` fields are
    #: display-only timestamps by convention (PR 8), never duration math.
    display_name_suffixes: Tuple[str, ...] = ("_at",)

    #: ``with`` context names treated as lock guards by the I/O rule.
    lock_guard_suffixes: Tuple[str, ...] = ("lock", "_available", "_cond")

    #: Registry catalogue functions that must never be called at import
    #: time, in default arguments, or inside a ``choices=`` value — the
    #: PR 5 frozen-``choices`` bug class.
    registry_catalogue_calls: FrozenSet[str] = frozenset(
        {
            "available_networks",
            "available_profiles",
            "available_architectures",
        }
    )

    #: Packages whose public API must be fully docstring-covered
    #: (absorbed from ``scripts/check_docs.py``).
    docstring_packages: Tuple[str, ...] = (
        "repro/arch",
        "repro/devtools",
        "repro/engine",
        "repro/grid",
        "repro/obs",
        "repro/service",
        "repro/workloads",
    )


def default_config() -> LintConfig:
    """The repository's own invariant configuration."""
    return LintConfig()
