"""Tests for ``repro-lint`` (:mod:`repro.analysis.lint`).

Each rule has a minimal *bad* fixture snippet (the checker must catch its
seeded violation) and a *clean twin* (the checker must stay silent), plus
the framework-level behaviours: suppression comments, comment-token marker
parsing (docstrings that merely quote the syntax must not count), JSON/text
output, exit codes — and the meta-test that the real ``src/`` tree lints
clean with every rule enabled.
"""

import ast
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Finding,
    build_checkers,
    checker_names,
    lint_paths,
    main,
)
from repro.analysis.lint.checkers.capabilities import check_registry
from repro.analysis.lint.checkers.estimator import FOLD_PRIMITIVES
from repro.planner.registry import DEFAULT_REGISTRY, OptimizerRegistry

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_source(tmp_path, source, rules=None):
    """Lint one fixture snippet; returns the findings list."""
    path = tmp_path / "fixture.py"
    path.write_text(source)
    return lint_paths([str(path)], rules=rules, project_checks=False)


def rules_of(findings):
    return [finding.rule for finding in findings]


# --------------------------------------------------------------------------- #
# guarded-by: lock discipline
# --------------------------------------------------------------------------- #
GUARDED_BAD = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock

    def record(self):
        self.hits += 1
"""

GUARDED_GOOD = GUARDED_BAD.replace(
    "        self.hits += 1",
    "        with self._lock:\n            self.hits += 1")


def test_guarded_by_catches_unlocked_mutation(tmp_path):
    findings = lint_source(tmp_path, GUARDED_BAD)
    assert rules_of(findings) == ["guarded-by"]
    assert "self.hits" in findings[0].message
    assert "_lock" in findings[0].message


def test_guarded_by_passes_locked_twin(tmp_path):
    assert lint_source(tmp_path, GUARDED_GOOD) == []


def test_guarded_by_init_assignment_is_construction(tmp_path):
    # The declaring assignment itself (and any other __init__ store) is not
    # a violation: the object is not yet shared.
    source = GUARDED_BAD.replace(
        "    def record(self):\n        self.hits += 1", "")
    assert lint_source(tmp_path, source) == []


def test_guarded_by_container_mutator_needs_lock(tmp_path):
    source = """
import threading

class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self.pools = []  # guarded-by: _lock

    def add(self, pool):
        self.pools.append(pool)
"""
    findings = lint_source(tmp_path, source)
    assert rules_of(findings) == ["guarded-by"]
    assert ".append() call" in findings[0].message


def test_guarded_by_lock_held_marker_exempts_helper(tmp_path):
    source = """
import threading

class Stripe:
    def __init__(self):
        self.lock = threading.Lock()
        self.hits = 0  # guarded-by: lock

    def drain(self):  # lock-held: lock
        self.hits += 1
"""
    assert lint_source(tmp_path, source) == []


def test_guarded_by_matches_non_self_bases(tmp_path):
    # Mutating another object's guarded attribute requires *that* object's
    # lock (the PlanCache stripe pattern).
    source = """
import threading

class Stripe:
    def __init__(self):
        self.lock = threading.Lock()
        self.hits = 0  # guarded-by: lock

def touch(stripe):
    stripe.hits += 1
"""
    findings = lint_source(tmp_path, source)
    assert rules_of(findings) == ["guarded-by"]
    fixed = source.replace(
        "    stripe.hits += 1",
        "    with stripe.lock:\n        stripe.hits += 1")
    assert lint_source(tmp_path, fixed) == []


# --------------------------------------------------------------------------- #
# kernel purity
# --------------------------------------------------------------------------- #
KERNEL_LOOP_BAD = """
@kernel
def fold(values):
    total = 0
    for value in values:
        total += value
    return total
"""

KERNEL_LOOP_GOOD = """
@kernel
def fold(column):
    out = column[:, 0].copy()
    for word in range(1, column.shape[1]):  # loop: words
        out |= column[:, word]
    return out
"""


def test_kernel_loop_catches_unannotated_loop(tmp_path):
    findings = lint_source(tmp_path, KERNEL_LOOP_BAD)
    assert rules_of(findings) == ["kernel-loop"]
    assert "`fold`" in findings[0].message


def test_kernel_loop_passes_annotated_axis(tmp_path):
    assert lint_source(tmp_path, KERNEL_LOOP_GOOD) == []


def test_kernel_loop_ignores_unmarked_functions(tmp_path):
    # No @kernel decorator: loops are the scalar path's business.
    source = KERNEL_LOOP_BAD.replace("@kernel\n", "")
    assert lint_source(tmp_path, source) == []


def test_kernel_clock_catches_wall_clock(tmp_path):
    source = """
import time

@kernel
def shard(batch):
    begin = time.time()
    return batch, begin
"""
    findings = lint_source(tmp_path, source)
    assert rules_of(findings) == ["kernel-clock"]


def test_kernel_clock_allows_clock_outside_kernels(tmp_path):
    source = """
import time

def driver(batch):
    begin = time.time()
    return batch, begin
"""
    assert lint_source(tmp_path, source) == []


def test_kernel_random_catches_module_level_seed(tmp_path):
    source = """
import numpy as np

np.random.seed(0)
"""
    findings = lint_source(tmp_path, source)
    assert rules_of(findings) == ["kernel-random"]


def test_kernel_random_allows_function_scoped_rng(tmp_path):
    source = """
import numpy as np

def make_workload(seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 10, size=4)
"""
    assert lint_source(tmp_path, source) == []


# --------------------------------------------------------------------------- #
# estimator-guard
# --------------------------------------------------------------------------- #
ESTIMATOR_BAD = """
class Query:
    def rows_batch(self, rows, select):
        values = self.estimator.fold_schedule(self.layout)
        return self.estimator.fold_rows(values, select, len(rows))
"""

ESTIMATOR_GOOD = """
class Query:
    def rows_batch(self, rows, select):
        if not estimator_overrides_rows(self.estimator):
            values = self.estimator.fold_schedule(self.layout)
            return self.estimator.fold_rows(values, select, len(rows))
        return [self.rows(mask) for mask in rows]
"""


def test_estimator_guard_catches_unguarded_fold(tmp_path):
    findings = lint_source(tmp_path, ESTIMATOR_BAD)
    assert rules_of(findings) == ["estimator-guard", "estimator-guard"]
    assert "fold_schedule" in findings[0].message
    assert "fold_rows" in findings[1].message


def test_estimator_guard_passes_guarded_twin(tmp_path):
    assert lint_source(tmp_path, ESTIMATOR_GOOD) == []


def test_estimator_guard_primitives_are_exempt(tmp_path):
    # The guard belongs at the entry point; the fold primitives call each
    # other freely.
    source = """
class Estimator:
    def fold_rows(self, values, select, count):
        return self.fold_schedule(values)
"""
    assert lint_source(tmp_path, source) == []


def test_estimator_guard_marked_manual_fold(tmp_path):
    bad = """
def merge(steps, acc):
    for value, low, high in steps:  # repro-lint: estimator-fold
        acc[low:high + 1] += value
    return acc
"""
    findings = lint_source(tmp_path, bad)
    assert rules_of(findings) == ["estimator-guard"]
    good = """
def merge(estimator, steps, acc):
    fold_ok = not estimator_overrides_rows(estimator)
    if fold_ok:
        for value, low, high in steps:  # repro-lint: estimator-fold
            acc[low:high + 1] += value
    return acc
"""
    assert lint_source(tmp_path, good) == []


def test_estimator_guard_nested_function_inherits_guard(tmp_path):
    # The lindp_merge shape: guard in the outer function dominates a fold
    # inside a nested helper.
    source = """
def outer(estimator, steps):
    fold_ok = not estimator_overrides_rows(estimator)

    def inner(acc):
        if fold_ok:
            return outer_fold(acc)  # repro-lint: estimator-fold
        return None

    return inner
"""
    assert lint_source(tmp_path, source) == []


def test_estimator_guard_docstring_mention_is_not_a_marker(tmp_path):
    # Prose quoting the marker syntax must not create a fold site.
    source = '''
def helper():
    """Statements marked ``# repro-lint: estimator-fold`` are fold sites."""
    return None
'''
    assert lint_source(tmp_path, source) == []


# --------------------------------------------------------------------------- #
# knob-threading
# --------------------------------------------------------------------------- #
def test_knob_threading_catches_dropped_worker_knob(tmp_path):
    source = """
def build(backend="scalar", workers=None):
    return make_backend(backend)
"""
    findings = lint_source(tmp_path, source)
    assert rules_of(findings) == ["knob-threading"]
    assert "`workers`" in findings[0].message


def test_knob_threading_catches_backend_only_constructor_call(tmp_path):
    source = """
def make():
    return IDP2(backend="scalar")
"""
    findings = lint_source(tmp_path, source)
    assert rules_of(findings) == ["knob-threading"]
    assert "workers=" in findings[0].message


def test_knob_threading_catches_backend_only_seed_heuristic(tmp_path):
    # IDP2 builds its GOO seed from its own knob; dropping workers= there
    # is flagged like any other constructor call.
    source = """
class Driver:
    def __init__(self, seed=None, backend="scalar", workers=None):
        self.workers = workers
        self.seed = seed or GOO(backend=backend)
"""
    findings = lint_source(tmp_path, source)
    assert rules_of(findings) == ["knob-threading"]
    assert "`GOO(...)`" in findings[0].message


def test_knob_threading_passes_forwarding_twin(tmp_path):
    source = """
def build(backend="scalar", workers=None):
    return IDP2(backend=backend, workers=workers)
"""
    assert lint_source(tmp_path, source) == []


def test_knob_threading_allows_kwargs_splat_and_workers_only(tmp_path):
    source = """
def build(**kwargs):
    pool = MulticoreBackend(workers=2)
    return MPDP(backend="scalar", **kwargs), pool
"""
    assert lint_source(tmp_path, source) == []


# --------------------------------------------------------------------------- #
# broad-except
# --------------------------------------------------------------------------- #
def test_broad_except_catches_silent_swallow(tmp_path):
    source = """
def load():
    try:
        return fetch()
    except Exception:
        pass
"""
    findings = lint_source(tmp_path, source)
    assert rules_of(findings) == ["broad-except"]


def test_broad_except_allows_handled_and_narrow(tmp_path):
    source = """
def load(log):
    try:
        return fetch()
    except KeyError:
        pass
    except Exception as error:
        log(error)
        return None
"""
    assert lint_source(tmp_path, source) == []


def test_broad_except_catches_bare_except(tmp_path):
    source = """
def load():
    try:
        return fetch()
    except:
        pass
"""
    findings = lint_source(tmp_path, source)
    assert rules_of(findings) == ["broad-except"]


# --------------------------------------------------------------------------- #
# capability-consistency
# --------------------------------------------------------------------------- #
def test_capability_consistency_clean_on_probed_registration():
    from repro.heuristics.goo import GOO

    registry = OptimizerRegistry()
    registry.register(GOO, key="goo")
    assert check_registry(registry) == []


def test_capability_consistency_catches_backend_drift():
    from repro.heuristics.goo import GOO

    probe = GOO().describe()
    drifted = dataclasses.replace(
        probe, backends=frozenset(probe.backends | {"bogus"}))
    registry = OptimizerRegistry()
    registry.register(GOO, key="goo", capabilities=drifted)
    findings = check_registry(registry)
    assert findings, "backend drift must be reported"
    assert all(finding.rule == "capability-consistency"
               for finding in findings)
    messages = " ".join(finding.message for finding in findings)
    assert "bogus" in messages


def test_capability_consistency_default_registry_is_clean():
    assert check_registry(DEFAULT_REGISTRY) == []


# --------------------------------------------------------------------------- #
# Suppressions and framework behaviour
# --------------------------------------------------------------------------- #
def test_line_suppression(tmp_path):
    source = GUARDED_BAD.replace(
        "        self.hits += 1",
        "        self.hits += 1  # repro-lint: disable=guarded-by")
    assert lint_source(tmp_path, source) == []


def test_file_suppression(tmp_path):
    source = "# repro-lint: disable-file=guarded-by\n" + GUARDED_BAD
    assert lint_source(tmp_path, source) == []


def test_suppression_of_other_rule_does_not_apply(tmp_path):
    source = GUARDED_BAD.replace(
        "        self.hits += 1",
        "        self.hits += 1  # repro-lint: disable=kernel-loop")
    assert rules_of(lint_source(tmp_path, source)) == ["guarded-by"]


def test_rules_subset_runs_only_selected_checkers(tmp_path):
    combined = GUARDED_BAD + "\n" + KERNEL_LOOP_BAD
    findings = lint_source(tmp_path, combined, rules=["kernel-loop"])
    assert rules_of(findings) == ["kernel-loop"]


def test_unknown_rule_name_raises():
    with pytest.raises(KeyError):
        build_checkers(["no-such-rule"])


def test_registered_rule_battery():
    names = checker_names()
    for expected in ("guarded-by", "kernel-loop", "kernel-clock",
                     "kernel-random", "estimator-guard", "knob-threading",
                     "capability-consistency", "broad-except"):
        assert expected in names


def test_parse_error_is_reported(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    findings = lint_paths([str(path)], project_checks=False)
    assert rules_of(findings) == ["parse-error"]


def test_finding_round_trip():
    finding = Finding("guarded-by", "module.py", 7, "message")
    assert finding.to_dict() == {"rule": "guarded-by", "path": "module.py",
                                 "line": 7, "message": "message"}
    assert finding.render() == "module.py:7: [guarded-by] message"


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def test_cli_reports_findings_and_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.py"
    path.write_text(GUARDED_BAD)
    status = main([str(path), "--no-project-checks"])
    out = capsys.readouterr().out
    assert status == 1
    assert "[guarded-by]" in out
    assert "1 finding(s)" in out


def test_cli_clean_exit_zero(tmp_path, capsys):
    path = tmp_path / "good.py"
    path.write_text(GUARDED_GOOD)
    status = main([str(path), "--no-project-checks"])
    assert status == 0
    assert "clean" in capsys.readouterr().out


def test_cli_json_output(tmp_path, capsys):
    path = tmp_path / "bad.py"
    path.write_text(GUARDED_BAD)
    status = main([str(path), "--format", "json", "--no-project-checks"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 1
    assert [entry["rule"] for entry in payload] == ["guarded-by"]
    assert payload[0]["path"] == str(path)


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "guarded-by:" in out
    assert "capability-consistency:" in out


def test_cli_unknown_rule_exit_two(tmp_path, capsys):
    path = tmp_path / "empty.py"
    path.write_text("x = 1\n")
    assert main([str(path), "--rules", "bogus"]) == 2
    assert "unknown rule" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# Meta: the real tree is clean, and mypy agrees when available
# --------------------------------------------------------------------------- #
def test_repro_lint_clean_on_real_src():
    findings = lint_paths([str(REPO_ROOT / "src")], project_checks=True)
    assert findings == [], "\n".join(finding.render()
                                     for finding in findings)


def test_real_tree_has_live_contract_annotations():
    # The seeded markers must actually exist (guarding against a refactor
    # silently dropping the annotations the lint run depends on).
    cache = (REPO_ROOT / "src/repro/planner/cache.py").read_text()
    assert "# guarded-by: lock" in cache
    assert "# lock-held: lock" in cache
    vectorized = (REPO_ROOT / "src/repro/exec/vectorized.py").read_text()
    assert "@kernel" in vectorized
    assert "# loop: " in vectorized
    # Every fold primitive the estimator-guard rule names must be defined
    # and called in src/, so a rename cannot silently empty the rule.
    defined, called = set(), set()
    for path in (REPO_ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Call):
                called.add(getattr(node.func, "attr",
                                   getattr(node.func, "id", None)))
    assert FOLD_PRIMITIVES <= defined
    assert FOLD_PRIMITIVES <= called


def test_mypy_passes_when_available():
    pytest.importorskip("mypy")
    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file",
         str(REPO_ROOT / "mypy.ini")],
        cwd=REPO_ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
