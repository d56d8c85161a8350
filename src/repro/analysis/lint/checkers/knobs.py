"""``knob-threading``: ``backend=``/``workers=`` travel together.

The PR 5 bug class: ``AdaptivePlanner._create_rung`` once forwarded
``backend=`` to the optimizer it built but dropped ``workers=``, silently
planning multicore rungs with the default worker count.  Both knobs
configure the same kernel dispatch and must be threaded together through
every constructor chain.  Two complementary sub-checks:

* a function that *accepts* both ``backend`` and ``workers`` parameters
  must reference both somewhere in its body — accepting a knob and
  dropping it on the floor is exactly the original bug,
* a call to a class constructor (a capitalized callee — ``IDP2(...)``,
  ``MPDP(...)``) that passes ``backend=`` as a keyword must pass
  ``workers=`` too; calls that splat ``**kwargs`` are skipped because the
  other knob may travel inside it.  The converse direction is deliberately
  not flagged: ``workers=`` alone is a legitimate signature for classes
  where it does not mean the kernel worker count (``MulticoreBackend`` *is*
  the backend, ``PlannerService(workers=…)`` sizes service threads).

Constructor calls that are genuinely backend-only can waive the rule with
``# repro-lint: disable=knob-threading`` on the call line.
"""

from __future__ import annotations

import ast
from typing import Iterable, Set

from ..framework import Checker, Finding, ModuleInfo, register

__all__ = ["KnobThreadingChecker"]

_KNOBS = ("backend", "workers")


def _parameter_names(function: ast.FunctionDef) -> Set[str]:
    arguments = function.args
    names = {arg.arg for arg in arguments.args}
    names |= {arg.arg for arg in arguments.posonlyargs}
    names |= {arg.arg for arg in arguments.kwonlyargs}
    return names


@register
class KnobThreadingChecker(Checker):
    name = "knob-threading"
    description = ("backend=/workers= must be forwarded together: functions "
                   "accepting both must use both, constructor calls passing "
                   "one keyword must pass the other")

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_function(self, module: ModuleInfo,
                        function: ast.FunctionDef) -> Iterable[Finding]:
        if not set(_KNOBS) <= _parameter_names(function):
            return
        referenced = {child.id for child in ast.walk(function)
                      if isinstance(child, ast.Name)}
        for knob in _KNOBS:
            if knob not in referenced:
                yield Finding(
                    self.name, module.path, function.lineno,
                    f"`{function.name}` accepts both backend= and workers= "
                    f"but never uses `{knob}` — thread both knobs through "
                    f"(the PR5 _create_rung bug class)")

    def _check_call(self, module: ModuleInfo,
                    call: ast.Call) -> Iterable[Finding]:
        if isinstance(call.func, ast.Name):
            callee = call.func.id
        elif isinstance(call.func, ast.Attribute):
            callee = call.func.attr
        else:
            return
        if not callee[:1].isupper():
            return
        keywords = {keyword.arg for keyword in call.keywords}
        if None in keywords:  # **kwargs may carry the missing knob
            return
        if "backend" in keywords and "workers" not in keywords:
            yield Finding(
                self.name, module.path, call.lineno,
                f"`{callee}(...)` passes backend= without workers= — "
                f"backend/workers configure the same kernel dispatch and "
                f"must be forwarded together")
