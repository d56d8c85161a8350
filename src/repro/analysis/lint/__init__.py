"""Repo-specific contract lint (``repro-lint``).

AST-based static analysis for the invariants this repository actually
depends on — contracts no generic linter knows:

* ``guarded-by`` — lock discipline for annotated shared attributes
  (:mod:`.checkers.locks`),
* ``kernel-loop`` / ``kernel-clock`` / ``kernel-random`` — purity of the
  numpy kernel layer (:mod:`.checkers.kernels`),
* ``estimator-guard`` — vectorized cardinality folds must be dominated by
  an ``estimator_overrides_rows()`` check (:mod:`.checkers.estimator`),
* ``knob-threading`` — ``backend=``/``workers=`` forwarded together
  (:mod:`.checkers.knobs`),
* ``capability-consistency`` — registry metadata matches ``describe()``
  (:mod:`.checkers.capabilities`),
* ``broad-except`` — no silently-swallowed broad handlers
  (:mod:`.checkers.exceptions`).

Suppress a rule with ``# repro-lint: disable=RULE[,RULE]`` on the offending
line or ``# repro-lint: disable-file=RULE`` anywhere in the file.  See
ARCHITECTURE.md's "Enforced invariants" section for the full contract
catalogue and the marker syntax (``# guarded-by:``, ``# lock-held:``,
``@kernel`` + ``# loop:``, ``# repro-lint: estimator-fold``).
"""

from .framework import (
    Checker,
    Finding,
    ModuleInfo,
    ProjectChecker,
    all_checkers,
    build_checkers,
    checker_names,
    iter_python_files,
    lint_paths,
    register,
)
from .cli import main

__all__ = [
    "Checker",
    "Finding",
    "ModuleInfo",
    "ProjectChecker",
    "all_checkers",
    "build_checkers",
    "checker_names",
    "iter_python_files",
    "lint_paths",
    "main",
    "register",
]
