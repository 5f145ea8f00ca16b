"""RL005 — sweep-fabric task functions stay picklable and side-effect free.

The work-stealing fabric re-executes tasks on lease expiry, worker
death and resumed sweeps, and dedupes them through the content-addressed
``RunResultCache`` — both of which assume a task is a *pure, picklable
function of its parameters and seed*:

* A ``lambda`` (or a function nested inside another function) handed to
  ``SweepSpec`` cannot cross the process boundary; today that silently
  degrades to warned serial execution, and a refactor away from the
  fallback turns it into a crash.  Task functions must be module-level
  ``def``s.
* A task function that mutates module globals (``global`` statements,
  or assigning into a module-level container) produces results that
  depend on which worker ran which chunk in which order — exactly the
  nondeterminism the fabric's bit-identical-resume contract forbids.

Detection is intentionally conservative: lambdas and locally-defined
functions passed as ``fn`` are flagged wherever they appear; the global
-mutation check runs on module-level functions that the same module
passes to ``SweepSpec``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from ..config import ReprolintConfig
from ..engine import SourceFile, Violation, terminal_name
from . import register


@register
class WorkerHygieneRule:
    rule_id = "RL005"
    name = "worker-hygiene"
    description = "sweep task functions must be module-level, picklable and global-free"

    def check(self, source: SourceFile, config: ReprolintConfig) -> List[Violation]:
        if source.tree is None:
            return []
        cfg = config.rl005
        violations: List[Violation] = []
        module_defs: Dict[str, ast.stmt] = {}
        nested_defs: Set[str] = set()
        module_globals: Set[str] = set()
        for child in ast.iter_child_nodes(source.tree):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module_defs[child.name] = child
                for inner in ast.walk(child):
                    if inner is not child and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        nested_defs.add(inner.name)
            elif isinstance(child, ast.Assign):
                for target in child.targets:
                    name = terminal_name(target)
                    if name:
                        module_globals.add(name)
            elif isinstance(child, ast.AnnAssign):
                name = terminal_name(child.target)
                if name:
                    module_globals.add(name)

        task_fn_names: Set[str] = set()
        for node in ast.walk(source.tree):
            fn = self._task_fn_argument(node, cfg)
            if fn is None:
                continue
            if isinstance(fn, ast.Lambda):
                violations.append(
                    Violation(
                        self.rule_id,
                        source.rel,
                        fn.lineno,
                        fn.col_offset,
                        "lambda as a sweep task function — not picklable across the "
                        "worker pool; define a module-level function",
                    )
                )
            elif isinstance(fn, ast.Name):
                if fn.id in module_defs:
                    task_fn_names.add(fn.id)
                elif fn.id in nested_defs:
                    violations.append(
                        Violation(
                            self.rule_id,
                            source.rel,
                            fn.lineno,
                            fn.col_offset,
                            f"'{fn.id}' is defined inside another function — closures "
                            "are not picklable across the worker pool; hoist it to "
                            "module level",
                        )
                    )

        for name in sorted(task_fn_names):
            violations.extend(
                self._check_task_fn(source, module_defs[name], module_globals)
            )
        return violations

    # ------------------------------------------------------------------ #
    @staticmethod
    def _task_fn_argument(node: ast.AST, cfg) -> Optional[ast.AST]:
        if not isinstance(node, ast.Call) or terminal_name(node.func) not in cfg.spec_names:
            return None
        for keyword in node.keywords:
            if keyword.arg == "fn":
                return keyword.value
        return node.args[0] if node.args else None

    # ------------------------------------------------------------------ #
    def _check_task_fn(
        self, source: SourceFile, fn: ast.stmt, module_globals: Set[str]
    ) -> List[Violation]:
        violations: List[Violation] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                violations.append(
                    Violation(
                        self.rule_id,
                        source.rel,
                        node.lineno,
                        node.col_offset,
                        f"sweep task function '{fn.name}' declares "
                        f"global {', '.join(node.names)} — task results must be a "
                        "pure function of (params, seed); workers cannot share "
                        "module state",
                    )
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    # A bare-name assignment just binds a local (shadowing);
                    # only container/attribute stores reach module state.
                    if not isinstance(target, (ast.Subscript, ast.Attribute)):
                        continue
                    root = target
                    while isinstance(root, (ast.Subscript, ast.Attribute)):
                        root = root.value
                    if isinstance(root, ast.Name) and root.id in module_globals:
                        violations.append(
                            Violation(
                                self.rule_id,
                                source.rel,
                                node.lineno,
                                node.col_offset,
                                f"sweep task function '{fn.name}' mutates module-level "
                                f"'{root.id}' — worker-local writes are lost and "
                                "order-dependent; return the data instead",
                            )
                        )
        return violations
