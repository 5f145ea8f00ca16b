"""RL001 — import layering and the batch-recomposition seam.

The layered package stack (``isa``/``sim``/``fixedpoint``/``snn`` <
``runtime`` < ``csp`` < ``serve``) keeps the bit-exactness contracts
auditable: a lower layer never depends on higher-layer code.  Imports in
layered code may only point down or sideways, wherever they sit —
module scope or function scope.  Two kinds of edge are rejected:

* **Adapter imports.**  The adapters (``harness``, ``sudoku``,
  ``codegen``, ``hw``, ``quickstart``) sit outside the stack.  They may
  import any layer, but layered code never imports an adapter.
* **Upward edges** inside the stack.  A function-scope import is no
  exception: it hides the dependency from the import graph without
  removing it.

Imports under ``if TYPE_CHECKING:`` never execute and stay allowed, so
annotations may name higher-layer types.

The rule also absorbs the retired ``tools/check_layering.py``: direct
``BatchedNetwork.retain``/``.extend`` calls outside ``repro.runtime``
re-open the recomposition-ordering drift PR 7 closed —
``SlotEngine.recompose`` is the single owner of that seam.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Optional, Tuple

from ..config import ReprolintConfig
from ..engine import SourceFile, Violation, dotted_name
from . import register

_BATCH_RECEIVER_RE = re.compile(r"batch", re.IGNORECASE)


@register
class LayeringRule:
    rule_id = "RL001"
    name = "layering"
    description = (
        "imports must point down the layer stack; batch recomposition "
        "stays inside repro.runtime"
    )

    # ------------------------------------------------------------------ #
    def check(self, source: SourceFile, config: ReprolintConfig) -> List[Violation]:
        cfg = config.rl001
        prefix = cfg.package_root.rstrip("/") + "/"
        if source.tree is None or not source.rel.startswith(prefix):
            return []
        rel_in_pkg = source.rel[len(prefix) :]
        parts = rel_in_pkg.split("/")
        source_pkg = parts[0][:-3] if len(parts) == 1 else parts[0]
        if source_pkg == "__init__":
            # The top-level package facade re-exports freely.
            return []
        violations: List[Violation] = []
        if source_pkg not in cfg.adapters:
            violations.extend(self._check_imports(source, config, source_pkg, parts))
        if not source.rel.startswith(cfg.seam_owner.rstrip("/") + "/"):
            violations.extend(self._check_seam(source, config))
        return violations

    # ------------------------------------------------------------------ #
    def _check_imports(
        self,
        source: SourceFile,
        config: ReprolintConfig,
        source_pkg: str,
        parts: List[str],
    ) -> List[Violation]:
        cfg = config.rl001
        source_level = cfg.layers.get(source_pkg)
        if source_level is None:
            return []
        # Module path (for resolving relative imports): repro.<pkg>....
        module_parts = ["repro"] + parts
        module_parts[-1] = module_parts[-1][:-3]
        if module_parts[-1] == "__init__":
            module_parts.pop()
            package_parts = module_parts
        else:
            package_parts = module_parts[:-1]

        violations: List[Violation] = []
        for node, type_only in _walk_imports(source.tree):
            for target in _import_targets(node, package_parts):
                if target == source_pkg or type_only:
                    continue
                if target in cfg.adapters:
                    message = (
                        f"import of adapter package 'repro.{target}' from layered "
                        f"package 'repro.{source_pkg}' — adapters build on the "
                        "layers, never the other way round"
                    )
                else:
                    target_level = cfg.layers.get(target)
                    if target_level is None or target_level <= source_level:
                        continue
                    message = (
                        f"upward import: 'repro.{source_pkg}' (layer {source_level}) "
                        f"imports 'repro.{target}' (layer {target_level}) — invert "
                        "the dependency"
                    )
                violations.append(
                    Violation(self.rule_id, source.rel, node.lineno, node.col_offset, message)
                )
        return violations

    # ------------------------------------------------------------------ #
    def _check_seam(self, source: SourceFile, config: ReprolintConfig) -> List[Violation]:
        cfg = config.rl001
        violations: List[Violation] = []
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            method = node.func.attr
            if method not in cfg.seam_methods:
                continue
            receiver = dotted_name(node.func.value)
            if method == "extend" and not _BATCH_RECEIVER_RE.search(receiver):
                continue
            violations.append(
                Violation(
                    self.rule_id,
                    source.rel,
                    node.lineno,
                    node.col_offset,
                    f"{receiver or '<expr>'}.{method}(...) — batch recomposition "
                    "is owned by repro.runtime.slots.SlotEngine.recompose",
                )
            )
        return violations


# ---------------------------------------------------------------------- #
def _walk_imports(tree: ast.AST) -> List[Tuple[ast.stmt, bool]]:
    """Every import statement with a flag: is it under ``if TYPE_CHECKING:``
    (and so never executed)?"""
    found: List[Tuple[ast.stmt, bool]] = []

    def visit(nodes: Iterable[ast.AST], type_only: bool) -> None:
        for child in nodes:
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((child, type_only))
            elif isinstance(child, ast.If) and _is_type_checking(child.test):
                visit(child.body, True)
                visit(child.orelse, type_only)
            else:
                visit(ast.iter_child_nodes(child), type_only)

    visit(ast.iter_child_nodes(tree), False)
    return found


def _is_type_checking(test: ast.AST) -> bool:
    name = test.attr if isinstance(test, ast.Attribute) else getattr(test, "id", None)
    return name == "TYPE_CHECKING"


def _import_targets(node: ast.stmt, package_parts: List[str]) -> List[str]:
    """Top-level ``repro`` subpackages an import statement reaches."""
    targets: List[str] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            pieces = alias.name.split(".")
            if pieces[0] == "repro" and len(pieces) > 1:
                targets.append(pieces[1])
    elif isinstance(node, ast.ImportFrom):
        base: Optional[List[str]]
        if node.level == 0:
            base = []
        elif node.level == 1:
            base = list(package_parts)
        else:
            hops = node.level - 1
            base = list(package_parts[:-hops]) if hops <= len(package_parts) else None
        if base is None:
            return targets
        full = base + (node.module.split(".") if node.module else [])
        if full and full[0] == "repro":
            if len(full) > 1:
                targets.append(full[1])
            else:
                # ``from repro import x`` / ``from .. import x`` at the top:
                # each imported name is itself a subpackage.
                targets.extend(alias.name for alias in node.names)
    return targets
