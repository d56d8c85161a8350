"""Kernel purity rules: ``kernel-loop``, ``kernel-random``, ``kernel-clock``.

The kernel execution layer (``repro.exec``, ``repro.core.widebitmap`` and
the cost models' ``cost_batch``) owes its speedups to staying on whole-batch
numpy operations; a Python loop over
the batch elements silently reintroduces the scalar path the kernels exist
to replace (the PR 7 wide-graph work was exactly about removing such loops).
Functions opt in with the :func:`repro.core.contracts.kernel` decorator:

* ``kernel-loop`` — every ``for``/``while`` statement inside a
  kernel-marked function must carry a ``# loop: <axis>`` annotation naming
  the *structural* axis it iterates (bitset words, DP blocks, dispatch
  chunks — axes whose trip count does not grow with the batch).  A loop
  without an annotation is presumed per-element and flagged.
* ``kernel-clock`` — ``time.time()``/``time.time_ns()`` inside a kernel
  function is banned: shard code must stay deterministic and timing is the
  caller's concern (the planner's stopwatches time around the kernels).
* ``kernel-random`` — module-level ``np.random.*`` / ``random.seed`` calls
  are banned in *any* module: import-time RNG state breaks the bit-identity
  contract between backends and the reproducibility of every benchmark.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..framework import Checker, Finding, ModuleInfo, register

__all__ = ["KernelLoopChecker", "KernelRandomChecker", "KernelClockChecker"]


def _is_kernel(function: ast.AST) -> bool:
    for decorator in getattr(function, "decorator_list", ()):
        if isinstance(decorator, ast.Name) and decorator.id == "kernel":
            return True
        if isinstance(decorator, ast.Attribute) and decorator.attr == "kernel":
            return True
    return False


def iter_kernel_functions(module: ModuleInfo) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _is_kernel(node):
                yield node


@register
class KernelLoopChecker(Checker):
    name = "kernel-loop"
    description = ("loops in @kernel functions must carry a `# loop: <axis>` "
                   "annotation naming a non-per-element axis")

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        for function in iter_kernel_functions(module):
            for node in ast.walk(function):
                if not isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                    continue
                if module.statement_marker(node, "loop") is None:
                    keyword = ("while" if isinstance(node, ast.While)
                               else "for")
                    yield Finding(
                        self.name, module.path, node.lineno,
                        f"`{keyword}` loop in kernel function "
                        f"`{function.name}` without a `# loop: <axis>` "
                        f"annotation — kernels must not iterate per "
                        f"element in Python")


@register
class KernelClockChecker(Checker):
    name = "kernel-clock"
    description = "no wall-clock reads (time.time) inside @kernel functions"

    _CLOCKS = frozenset({"time.time", "time.time_ns"})

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        for function in iter_kernel_functions(module):
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                callee = ast.unparse(node.func)
                if callee in self._CLOCKS:
                    yield Finding(
                        self.name, module.path, node.lineno,
                        f"`{callee}()` inside kernel function "
                        f"`{function.name}` — shard code must stay "
                        f"deterministic; time around the kernel call "
                        f"instead")


@register
class KernelRandomChecker(Checker):
    name = "kernel-random"
    description = ("no module-level np.random.* / random.seed global-state "
                   "calls (import-time RNG breaks bit-identity)")

    _PREFIXES = ("np.random.", "numpy.random.")
    _EXACT = frozenset({"random.seed", "np.random.seed", "numpy.random.seed"})

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = ast.unparse(node.func)
            if not (callee in self._EXACT
                    or callee.startswith(self._PREFIXES)):
                continue
            if module.enclosing_functions(node):
                continue
            yield Finding(
                self.name, module.path, node.lineno,
                f"module-level `{callee}(...)` mutates global RNG state at "
                f"import time — seed inside the function that needs it")
