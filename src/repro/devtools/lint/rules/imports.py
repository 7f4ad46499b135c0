"""Rule: stdlib-only imports in the service/observability/devtools tiers.

The service and observability layers are deliberately dependency-free —
``repro serve`` must boot on a bare Python install, and the devtools must
lint the repo without importing its numerical stack (PR 3, PR 8).  The
numerical package (the ``third_party_allowlist``: ``numpy``) is
tolerated everywhere else; any other third-party import is flagged
repo-wide so a new dependency can never slip in silently.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Tuple

from repro.devtools.lint.config import path_in_packages
from repro.devtools.lint.engine import FileContext, Finding, Rule


def _imported_top_levels(node: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """Top-level module names introduced by one import statement."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name.split(".")[0], node
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        yield node.module.split(".")[0], node


class StdlibOnlyImportsRule(Rule):
    """Flag third-party imports outside the sanctioned allowlists."""

    id = "stdlib-only"
    description = (
        "service/, obs/ and devtools/ must import only the stdlib and "
        "first-party code; numpy is tolerated elsewhere"
    )

    def check(self, context: FileContext) -> Iterable[Finding]:
        """Yield a finding for every import outside the allowed set."""
        config = context.config
        if not config.stdlib_modules:  # pragma: no cover - Python < 3.10
            return
        protected = path_in_packages(
            context.rel_path, config.stdlib_only_packages
        )
        allowed = config.stdlib_modules | config.first_party_modules
        if not protected:
            allowed = allowed | config.third_party_allowlist
        for node in ast.walk(context.tree):
            for top_level, stmt in _imported_top_levels(node):
                if top_level in allowed:
                    continue
                where = (
                    "a stdlib-only package"
                    if protected
                    else "outside the third-party allowlist "
                    f"({', '.join(sorted(config.third_party_allowlist))})"
                )
                yield context.finding(
                    self.id,
                    stmt,
                    f"import of {top_level!r} in {where}",
                )
