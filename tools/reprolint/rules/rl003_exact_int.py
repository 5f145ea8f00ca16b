"""RL003 — float contamination inside ``# reprolint: exact-int`` regions.

The fused batch engine's bit-exactness proof (see
``runtime/batch.py``) rests on regions whose arithmetic is pure
int64: the Q15.16 integer-CSR propagation, the fixed-point Izhikevich
substep and the :mod:`repro.fixedpoint` VU-word packing.  One stray float
literal, true division or ``astype(float)`` silently turns "exact in
any summation order" into "ULP-dependent", and no test catches it until
a differential suite happens to cross the changed path.

Mark a region with a ``# reprolint: exact-int`` comment on (or directly
above) a ``def``/``class``, or ``# reprolint: exact-int-file`` for a
whole module.  Inside a marked region the rule flags:

* float (and complex) literals,
* true division (``/``, including ``/=``) — integer paths use shifts
  and ``//``,
* ``.astype(float...)`` and ``float(...)`` / ``np.float64(...)`` casts.

Deliberate float excursions that are proven exact (e.g. integer-valued
float64 payloads below 2^53) carry inline ``disable=RL003`` waivers
with the exactness argument in the comment.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from ..config import ReprolintConfig
from ..engine import SourceFile, Violation, in_scope, terminal_name
from . import register

_FLOAT_TYPE_NAMES = {
    "float",
    "float16",
    "float32",
    "float64",
    "float128",
    "half",
    "single",
    "double",
    "longdouble",
}

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_float_type(node: ast.AST) -> bool:
    name = terminal_name(node)
    if name is not None:
        return name in _FLOAT_TYPE_NAMES
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.startswith("float") or node.value in ("f2", "f4", "f8", "d")
    return False


@register
class ExactIntRule:
    rule_id = "RL003"
    name = "exact-int"
    description = "no float literals, true division or float casts in exact-int regions"

    def check(self, source: SourceFile, config: ReprolintConfig) -> List[Violation]:
        if source.tree is None or not in_scope(source.rel, config.rl003.scope):
            return []
        violations: List[Violation] = []
        spans = self._marked_spans(source, violations)
        if not spans:
            return violations
        for node in ast.walk(source.tree):
            lineno = getattr(node, "lineno", None)
            if lineno is None or not any(lo <= lineno <= hi for lo, hi in spans):
                continue
            violations.extend(self._check_node(source, node))
        return violations

    # ------------------------------------------------------------------ #
    def _marked_spans(
        self, source: SourceFile, violations: List[Violation]
    ) -> List[Tuple[int, int]]:
        if source.has_exact_int_file_marker():
            return [(1, len(source.text.splitlines()) + 1)]
        markers = source.exact_int_markers()
        if not markers:
            return []
        scopes = [node for node in ast.walk(source.tree) if isinstance(node, _SCOPE_NODES)]
        spans: List[Tuple[int, int]] = []
        for marker in markers:
            target = self._attach(marker.line, scopes)
            if target is None:
                violations.append(
                    Violation(
                        self.rule_id,
                        source.rel,
                        marker.line,
                        marker.col,
                        "dangling exact-int marker: no def/class starts on or "
                        "directly below this line",
                    )
                )
                continue
            spans.append((target.lineno, target.end_lineno or target.lineno))
        return spans

    @staticmethod
    def _attach(line: int, scopes) -> Optional[ast.stmt]:
        for node in scopes:
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            # Trailing comment on the def line, or a standalone comment
            # directly above the def (decorators included).
            if line == node.lineno or line == start - 1:
                return node
        return None

    # ------------------------------------------------------------------ #
    def _check_node(self, source: SourceFile, node: ast.AST) -> List[Violation]:
        hits: List[Violation] = []

        def flag(message: str) -> None:
            hits.append(
                Violation(self.rule_id, source.rel, node.lineno, node.col_offset, message)
            )

        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            flag(
                f"float literal {node.value!r} in an exact-int region — integer "
                "paths must stay in int64 (scale by shifts, not float factors)"
            )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            flag(
                "true division in an exact-int region — use shifts or floor "
                "division; '/' produces float64"
            )
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            flag("true division ('/=') in an exact-int region — use shifts or '//='")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "astype":
                dtype_args = list(node.args) + [kw.value for kw in node.keywords]
                if any(_is_float_type(arg) for arg in dtype_args):
                    flag(
                        "astype(float...) in an exact-int region breaks the "
                        "bit-exactness contract"
                    )
            elif terminal_name(func) in _FLOAT_TYPE_NAMES:
                flag(
                    f"float cast '{terminal_name(func)}(...)' in an exact-int region "
                    "breaks the bit-exactness contract"
                )
        return hits
