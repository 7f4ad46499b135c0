"""Rule: no disk I/O lexically inside a ``with <lock>:`` block.

PR 3 established the invariant for the cache tiers and the service: a
lock guards counters and in-memory structures, never the I/O itself —
one worker's disk I/O must not stall every other worker.  This rule flags
the known I/O surfaces (``open``, ``os.*`` file operations, ``json``/``pickle``
file (de)serialisation, ``sqlite3`` connections and queries, ``subprocess``,
``tempfile``, ``shutil``, and ``pathlib`` read/write methods) appearing
lexically inside a ``with self._lock:``-shaped block.

The check is lexical by design — it cannot see through a function call
boundary.  The dynamic half of that contract lives in
:mod:`repro.devtools.locks`, whose audit hook catches I/O performed
anywhere below a tracked lock acquisition at runtime.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional

from repro.devtools.lint.engine import FileContext, Finding, Rule

#: ``module.function`` attribute calls that perform disk or process I/O.
_IO_MODULE_CALLS = {
    "os": {
        "replace", "rename", "remove", "unlink", "fdopen", "open",
        "makedirs", "mkdir", "rmdir", "utime", "truncate", "link",
        "symlink", "stat",
    },
    "json": {"dump", "load"},
    "pickle": {"dump", "load"},
    "sqlite3": {"connect"},
    "tempfile": {"mkstemp", "mkdtemp", "NamedTemporaryFile", "TemporaryFile"},
    "subprocess": {"run", "Popen", "call", "check_call", "check_output"},
    "shutil": {
        "copy", "copy2", "copyfile", "copytree", "move", "rmtree", "disk_usage",
    },
}

#: Method names (any receiver) that read or write the filesystem — the
#: :class:`pathlib.Path` read/write surface and ``sqlite3`` queries.
_IO_METHOD_NAMES = {
    "read_text", "write_text", "read_bytes", "write_bytes",
    "unlink", "touch", "rmdir", "hardlink_to", "symlink_to",
    "execute", "executemany", "executescript", "commit",
}

#: Bare builtins that open file handles.
_IO_BUILTIN_CALLS = {"open"}


def _guard_name(expr: ast.AST) -> Optional[str]:
    """The lock-ish name a ``with`` item guards, or ``None``.

    Matches ``self._lock``, ``queue._lock``, ``_profiles_lock``,
    ``slot.lock``, ``self._available`` — any terminal name ending with a
    configured guard suffix.
    """
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _io_call_description(node: ast.Call) -> Optional[str]:
    """A human-readable label when ``node`` is a known I/O call."""
    func = node.func
    if isinstance(func, ast.Name) and func.id in _IO_BUILTIN_CALLS:
        return f"{func.id}()"
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            module_calls = _IO_MODULE_CALLS.get(func.value.id)
            if module_calls is not None and func.attr in module_calls:
                return f"{func.value.id}.{func.attr}()"
        if func.attr in _IO_METHOD_NAMES:
            return f".{func.attr}()"
        # ``Path(...).open()`` / ``handle.open()`` style method opens.
        if func.attr == "open" and not isinstance(func.value, ast.Name):
            return ".open()"
    return None


class NoLockHeldIoRule(Rule):
    """Flag known I/O calls lexically inside a lock-guarded ``with`` block."""

    id = "no-lock-held-io"
    description = (
        "locks guard memory, never disk: no open/os/json/pickle/sqlite3/"
        "subprocess/pathlib I/O inside a `with <lock>:` block"
    )

    def check(self, context: FileContext) -> Iterable[Finding]:
        """Yield findings for lexical I/O inside lock-guarded blocks."""
        suffixes = tuple(context.config.lock_guard_suffixes)
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            guards = [
                name
                for item in node.items
                if (name := _guard_name(item.context_expr)) is not None
                and name.endswith(suffixes)
            ]
            if not guards:
                continue
            yield from self._scan_block(context, node.body, guards[0])

    def _scan_block(
        self, context: FileContext, body: List[ast.stmt], guard: str
    ) -> Iterable[Finding]:
        """Flag I/O calls in ``body`` without descending into nested defs."""
        stack: List[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # defined under the lock, executed elsewhere
            if isinstance(node, ast.Call):
                description = _io_call_description(node)
                if description is not None:
                    yield context.finding(
                        self.id,
                        node,
                        f"{description} while holding {guard!r}; do the I/O "
                        "outside the lock (it guards memory, not disk)",
                    )
            stack.extend(ast.iter_child_nodes(node))
