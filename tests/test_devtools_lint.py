"""Fixture tests for the AST lint engine and every rule in the catalogue.

Each rule gets at least one true-positive (the banned pattern is found)
and one true-negative (the sanctioned spelling of the same pattern is
not), exercised through real files on disk so path-scoped rules see the
package layout they key on.  The suite ends with the self-check that the
shipped `src/` tree is clean at head — the same gate CI runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import (
    ALL_RULES,
    SYNTAX_ERROR_RULE,
    default_config,
    get_rules,
    lint_paths,
)
from repro.devtools.lint.cli import lint_main
from repro.devtools.lint.config import path_in_packages

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def write_module(root: Path, relative: str, body: str) -> Path:
    """Write ``body`` (dedented) at ``root/relative`` and return the path."""
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(body))
    return path


def findings_for(path: Path, rule_id: str):
    """Run one rule over one file and return its findings."""
    report = lint_paths([str(path)], rules=get_rules([rule_id]))
    return report.findings


# -- engine plumbing ---------------------------------------------------------


def test_rule_ids_unique_and_catalogue_nonempty():
    ids = [rule.id for rule in ALL_RULES]
    assert len(ids) == len(set(ids))
    assert len(ids) == 7


def test_get_rules_unknown_id_lists_catalogue():
    with pytest.raises(KeyError, match="no-such-rule"):
        get_rules(["no-such-rule"])


def test_syntax_error_reported_and_not_suppressible(tmp_path):
    path = write_module(
        tmp_path,
        "broken.py",
        """\
        # lint-ok: all
        def f(:
        """,
    )
    report = lint_paths([str(path)])
    assert [f.rule for f in report.findings] == [SYNTAX_ERROR_RULE]


def test_inline_suppression_same_line_and_line_above(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        def bad_same_line(x=[]):  # lint-ok: no-mutable-default
            return x


        # lint-ok: no-mutable-default
        def bad_line_above(x={}):
            return x


        def still_bad(x=[]):
            return x
        """,
    )
    report = lint_paths([str(path)], rules=get_rules(["no-mutable-default"]))
    assert len(report.findings) == 1
    assert report.findings[0].line == 10
    assert len(report.suppressed) == 2


def test_suppression_wildcard_all(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        def f(x=[]):  # lint-ok: all
            return x
        """,
    )
    report = lint_paths([str(path)], rules=get_rules(["no-mutable-default"]))
    assert report.clean
    assert len(report.suppressed) == 1


def test_baseline_round_trip(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        def f(x=[]):
            return x
        """,
    )
    baseline = tmp_path / "baseline.json"
    code = lint_main(
        [str(path), "--rule", "no-mutable-default", "--write-baseline", str(baseline)]
    )
    assert code == 0
    assert json.loads(baseline.read_text())["findings"]
    report = lint_paths(
        [str(path)],
        rules=get_rules(["no-mutable-default"]),
        baseline=str(baseline),
    )
    assert report.clean
    assert len(report.baselined) == 1  # absorbed, but counted


def test_path_in_packages_matches_directory_runs():
    assert path_in_packages("src/repro/service/jobs.py", ("repro/service",))
    assert path_in_packages("tmp/x/repro/service/jobs.py", ("repro/service",))
    assert not path_in_packages("repro/service_extra/jobs.py", ("repro/service",))
    assert not path_in_packages("repro/obs/metrics.py", ("repro/service",))


# -- stdlib-only -------------------------------------------------------------


def test_stdlib_only_flags_third_party_in_service(tmp_path):
    path = write_module(
        tmp_path,
        "repro/service/helper.py",
        """\
        '''doc'''
        import numpy
        """,
    )
    findings = findings_for(path, "stdlib-only")
    assert len(findings) == 1
    assert "numpy" in findings[0].message


def test_stdlib_only_allows_stdlib_and_first_party_in_service(tmp_path):
    path = write_module(
        tmp_path,
        "repro/service/helper.py",
        """\
        '''doc'''
        import json
        import threading
        from repro.engine import SimulationEngine
        """,
    )
    assert findings_for(path, "stdlib-only") == []


def test_stdlib_only_allows_numpy_outside_protected_packages(tmp_path):
    # numpy is the one numerical dependency: scipy would be a second log-gamma
    # backend whose presence changes the analytical models' bits.
    path = write_module(
        tmp_path,
        "repro/scnn/helper.py",
        """\
        '''doc'''
        import numpy as np
        from scipy.special import gammaln
        """,
    )
    findings = findings_for(path, "stdlib-only")
    assert [finding.line for finding in findings] == [3]
    assert "'scipy'" in findings[0].message


def test_stdlib_only_flags_unknown_third_party_anywhere(tmp_path):
    path = write_module(
        tmp_path,
        "repro/scnn/helper.py",
        """\
        '''doc'''
        import requests
        """,
    )
    findings = findings_for(path, "stdlib-only")
    assert len(findings) == 1


# -- no-wall-clock-arithmetic ------------------------------------------------


def test_wall_clock_subtraction_flagged(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        import time

        def f():
            started = time.time()
            return time.time() - started
        """,
    )
    findings = findings_for(path, "no-wall-clock-arithmetic")
    assert findings, "direct wall-clock subtraction must be flagged"


def test_wall_clock_comparison_of_tainted_name_flagged(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        import time

        def f(deadline):
            now = time.time()
            if now > deadline:
                return True
            return False
        """,
    )
    assert findings_for(path, "no-wall-clock-arithmetic")


def test_monotonic_arithmetic_is_sanctioned(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        import time

        def f():
            started = time.monotonic()
            return time.monotonic() - started
        """,
    )
    assert findings_for(path, "no-wall-clock-arithmetic") == []


def test_wall_clock_display_suffix_allowlisted(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        import time

        def f():
            created_at = time.time()
            return {"created_at": created_at}
        """,
    )
    assert findings_for(path, "no-wall-clock-arithmetic") == []


def test_wall_clock_taint_does_not_leak_across_scopes(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        import time

        def outer():
            def inner():
                stamp = time.time()
                return stamp
            stamp = 1.0
            return stamp - 0.5
        """,
    )
    assert findings_for(path, "no-wall-clock-arithmetic") == []


# -- no-lock-held-io ---------------------------------------------------------


def test_open_inside_lock_flagged(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        class C:
            def f(self):
                with self._lock:
                    with open("state.json", "w") as fh:
                        fh.write("{}")
        """,
    )
    findings = findings_for(path, "no-lock-held-io")
    assert findings and findings[0].rule == "no-lock-held-io"


def test_os_replace_and_json_dump_inside_condition_flagged(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        import json
        import os

        class C:
            def f(self, payload):
                with self._available:
                    json.dump(payload, None)
                    os.replace("a", "b")
        """,
    )
    assert len(findings_for(path, "no-lock-held-io")) == 2


@pytest.mark.parametrize(
    "call",
    [
        'sqlite3.connect("cells.sqlite")',
        'self._connection.execute("SELECT 1")',
        'self._connection.executemany("INSERT INTO t VALUES (?)", rows)',
        'self._connection.executescript("DELETE FROM t")',
        "self._connection.commit()",
    ],
)
def test_sqlite3_inside_lock_flagged(tmp_path, call):
    path = write_module(
        tmp_path,
        "mod.py",
        f"""\
        import sqlite3

        class C:
            def f(self, rows):
                with self._lock:
                    {call}
        """,
    )
    findings = findings_for(path, "no-lock-held-io")
    assert len(findings) == 1 and "'_lock'" in findings[0].message


def test_io_outside_lock_and_snapshot_pattern_sanctioned(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        import json

        class C:
            def f(self):
                with self._lock:
                    snapshot = dict(self._state)
                with open("state.json", "w") as fh:
                    json.dump(snapshot, fh)
        """,
    )
    assert findings_for(path, "no-lock-held-io") == []


def test_io_in_nested_function_under_lock_not_lexically_flagged(tmp_path):
    # The rule is lexical by design: the nested def is not *executed*
    # under the lock — the dynamic checker covers the call-through case.
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        class C:
            def f(self):
                with self._lock:
                    def writer():
                        return open("x")
                    self._writer = writer
        """,
    )
    assert findings_for(path, "no-lock-held-io") == []


# -- no-import-time-registry-freeze ------------------------------------------


def test_registry_call_in_default_argument_flagged(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        from repro.workloads import available_networks

        def f(networks=tuple(available_networks())):
            return networks
        """,
    )
    assert findings_for(path, "no-import-time-registry-freeze")


def test_registry_call_in_choices_keyword_flagged(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        from repro.workloads import available_networks

        def build(parser):
            parser.add_argument("--network", choices=tuple(available_networks()))
        """,
    )
    assert findings_for(path, "no-import-time-registry-freeze")


def test_registry_call_at_module_scope_flagged(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        from repro.workloads import available_networks

        KNOWN = tuple(available_networks())
        """,
    )
    assert findings_for(path, "no-import-time-registry-freeze")


def test_registry_resolved_at_call_time_sanctioned(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        from repro.workloads import available_networks

        def validate(name):
            if name not in available_networks():
                raise KeyError(name)
        """,
    )
    assert findings_for(path, "no-import-time-registry-freeze") == []


# -- no-silent-except --------------------------------------------------------


def test_except_pass_flagged(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        def f(path):
            try:
                return open(path).read()
            except OSError:
                pass
        """,
    )
    findings = findings_for(path, "no-silent-except")
    assert findings and "OSError" in findings[0].message


def test_except_continue_flagged(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        def f(paths):
            out = []
            for path in paths:
                try:
                    out.append(open(path).read())
                except OSError:
                    continue
            return out
        """,
    )
    assert findings_for(path, "no-silent-except")


def test_except_with_log_or_raise_or_fallback_sanctioned(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        def f(path, log, counter):
            try:
                value = open(path).read()
            except OSError as error:
                log.warning("read_failed", error=str(error))
                value = None
            try:
                return int(value)
            except ValueError:
                counter.inc()
                raise
        """,
    )
    assert findings_for(path, "no-silent-except") == []


def test_except_with_recovery_call_sanctioned(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        def f(self, tail):
            try:
                self._send_json(200, {"id": tail})
            except KeyError:
                self._send_error_json(404, "unknown job")
        """,
    )
    assert findings_for(path, "no-silent-except") == []


# -- no-mutable-default ------------------------------------------------------


def test_mutable_defaults_flagged_including_kwonly_and_calls(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        def f(x=[], *, y={}):
            return x, y


        def g(z=dict()):
            return z
        """,
    )
    assert len(findings_for(path, "no-mutable-default")) == 3


def test_immutable_defaults_sanctioned(tmp_path):
    path = write_module(
        tmp_path,
        "mod.py",
        """\
        def f(x=(), y=None, z="s", n=0, fr=frozenset()):
            return x, y, z, n, fr
        """,
    )
    assert findings_for(path, "no-mutable-default") == []


# -- docstring-coverage ------------------------------------------------------


def test_docstring_coverage_flags_gated_package_only(tmp_path):
    body = """\
    class Widget:
        def run(self):
            return 1
    """
    gated = write_module(tmp_path, "repro/service/widget.py", body)
    ungated = write_module(tmp_path, "repro/experiments/widget.py", body)
    gated_findings = findings_for(gated, "docstring-coverage")
    # module + class + method all lack docstrings
    assert len(gated_findings) == 3
    assert findings_for(ungated, "docstring-coverage") == []


def test_docstring_coverage_exempts_private_and_properties(tmp_path):
    path = write_module(
        tmp_path,
        "repro/service/widget.py",
        """\
        '''doc'''


        class Widget:
            '''doc'''

            def _internal(self):
                return 1

            @property
            def size(self):
                return 2

            def run(self):
                '''doc'''
                return 3
        """,
    )
    assert findings_for(path, "docstring-coverage") == []


# -- CLI surface -------------------------------------------------------------


def test_cli_exit_codes_and_json_format(tmp_path, capsys):
    dirty = write_module(
        tmp_path,
        "dirty.py",
        """\
        def f(x=[]):
            return x
        """,
    )
    clean = write_module(
        tmp_path,
        "clean.py",
        """\
        def f(x=()):
            return x
        """,
    )
    assert lint_main([str(clean), "--rule", "no-mutable-default"]) == 0
    assert lint_main([str(dirty), "--rule", "no-mutable-default"]) == 1
    assert lint_main([str(dirty), "--rule", "not-a-rule"]) == 2
    capsys.readouterr()
    assert lint_main([str(dirty), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"]
    assert payload["counts_by_rule"]["no-mutable-default"] == 1


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.id in out


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", "--list-rules"],
        capture_output=True,
        text=True,
        env={
            "PYTHONPATH": str(SRC),
            "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
        },
    )
    assert result.returncode == 0
    assert "no-silent-except" in result.stdout


# -- the self-check: src/ is clean at head -----------------------------------


def test_shipped_source_tree_is_clean():
    report = lint_paths([str(SRC)])
    formatted = "\n".join(f.format() for f in report.findings)
    assert report.clean, f"repro lint src found:\n{formatted}"
    assert report.files_checked > 90
    # The invariant rules carry no suppressions at all in the shipped
    # tree: every suppression today is a justified no-silent-except.
    invariant = {"stdlib-only", "no-wall-clock-arithmetic", "no-lock-held-io"}
    assert not [s for s in report.suppressed if s.rule in invariant]


def test_default_config_matches_documented_gates():
    config = default_config()
    assert "repro/service" in config.stdlib_only_packages
    assert "repro/obs" in config.stdlib_only_packages
    assert "repro/devtools" in config.stdlib_only_packages
    assert "numpy" in config.third_party_allowlist
