"""``estimator-guard``: vectorized cardinality folds must check for overrides.

The invariant: the batched log-space fold
(``CardinalityEstimator.fold_schedule`` lays the estimator's ``log10`` terms
onto a local layout, ``CardinalityEstimator.fold_rows`` adds them per set)
reconstructs estimates from base cardinalities and edge selectivities —
bit-identical to the *base* scalar path but blind to any ``rows()``
override such as ``PerturbedEstimator``.  Every fold entry point
(``QueryInfo.rows_batch``, ``lindp_merge``) must therefore consult
:func:`repro.cost.cardinality.estimator_overrides_rows` and fall back to
per-mask ``rows()`` calls first.  This rule makes that contract structural:

* a *fold site* is a call to one of the named fold primitives, or any
  statement marked ``# repro-lint: estimator-fold`` (for manual folds the
  AST cannot recognise),
* each fold site must be *dominated* by an ``estimator_overrides_rows()``
  call — a call at an earlier-or-equal line inside one of the site's
  lexically enclosing functions (a cheap, sound-enough approximation of
  control-flow dominance for the guard-then-fold shape the sites use),
* the fold primitives themselves (and anything defined inside them) are
  exempt — the guard belongs at the entry point, not inside the fold.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from ..framework import Checker, Finding, ModuleInfo, register

__all__ = ["EstimatorGuardChecker", "FOLD_PRIMITIVES"]

#: Methods/functions that perform the blind log-space fold.
FOLD_PRIMITIVES = frozenset({"fold_schedule", "fold_rows"})

GUARD_NAME = "estimator_overrides_rows"
FOLD_FLAG = "estimator-fold"


def _callee_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


@register
class EstimatorGuardChecker(Checker):
    name = "estimator-guard"
    description = ("vectorized estimator folds must be dominated by an "
                   "estimator_overrides_rows() check in the enclosing "
                   "function")

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        # (guard line, innermost enclosing function or None for module scope)
        guards: List[Tuple[int, Optional[ast.AST]]] = []
        sites: List[Tuple[int, str, List[ast.AST]]] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = _callee_name(node)
            if callee == GUARD_NAME:
                chain = module.enclosing_functions(node)
                guards.append((node.lineno, chain[0] if chain else None))
            elif callee in FOLD_PRIMITIVES:
                sites.append((node.lineno, f"{callee}(...)",
                              module.enclosing_functions(node)))
        for lineno in module.flag_lines(FOLD_FLAG):
            sites.append((lineno, "marked fold",
                          self._functions_containing(module, lineno)))
        for lineno, label, chain in sites:
            if any(getattr(function, "name", "") in FOLD_PRIMITIVES
                   for function in chain):
                continue
            if self._dominated(lineno, chain, guards):
                continue
            yield Finding(
                self.name, module.path, lineno,
                f"{label} at line {lineno} is not dominated by an "
                f"{GUARD_NAME}() check — the fold bypasses rows() "
                f"overrides; guard it and fall back to per-mask rows()")

    @staticmethod
    def _functions_containing(module: ModuleInfo,
                              lineno: int) -> List[ast.AST]:
        """Enclosing-function chain for a raw line number, innermost first."""
        containing = [
            node for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.lineno <= lineno <= (node.end_lineno or node.lineno)
        ]
        containing.sort(key=lambda node: node.lineno, reverse=True)
        return containing

    @staticmethod
    def _dominated(lineno: int, chain: List[ast.AST],
                   guards: List[Tuple[int, Optional[ast.AST]]]) -> bool:
        chain_ids = {id(function) for function in chain}
        for guard_line, guard_scope in guards:
            if guard_line > lineno:
                continue
            if guard_scope is None or id(guard_scope) in chain_ids:
                return True
        return False
