"""The library reads exactly two environment variables, both directory settings.

Behaviour must not depend on the environment: a switch that turns a
feature on or off belongs in a parameter.  Only deployment paths may
come from the environment, and the benchmarks read none at all: a
workload size or a floor is a constant in the file.  This test parses
every module under ``src/repro`` and ``benchmarks`` and collects the
variable names read through ``os.environ`` or ``os.getenv``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
BENCHMARKS = ROOT / "benchmarks"

ALLOWED = {"XDG_CACHE_HOME", "REPRO_RUN_CACHE_DIR"}


def _is_environ(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _is_getenv(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "getenv"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _env_reads(path: Path):
    """``(variable name, line)`` of every environment read in one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets
        if isinstance(target, ast.Name)
    }

    def resolve(arg: ast.AST) -> str:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.Name) and arg.id in constants:
            return constants[arg.id]
        raise AssertionError(
            f"{path}:{arg.lineno}: environment variable name is not a literal "
            "or a module-level string constant"
        )

    reads = []
    consumed = set()
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if _is_getenv(func):
                key = node.args[0]
            elif isinstance(func, ast.Attribute) and _is_environ(func.value):
                key = node.args[0]
                consumed.add(id(func.value))
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            key = node.slice
            consumed.add(id(node.value))
        elif (
            isinstance(node, ast.Compare)
            and len(node.comparators) == 1
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
            and _is_environ(node.comparators[0])
        ):
            key = node.left
            consumed.add(id(node.comparators[0]))
        if key is not None:
            reads.append((resolve(key), node.lineno))
    for node in ast.walk(tree):
        assert not _is_environ(node) or id(node) in consumed, (
            f"{path}:{node.lineno}: os.environ used other than by variable name"
        )
    return reads


def _reads_under(root: Path):
    """First ``path:line`` of every variable read by a module under ``root``."""
    names = {}
    for path in sorted(root.rglob("*.py")):
        for name, line in _env_reads(path):
            names.setdefault(name, f"{path.relative_to(ROOT)}:{line}")
    return names


def test_only_directory_settings_come_from_the_environment():
    names = _reads_under(SRC)
    assert set(names) == ALLOWED, names


def test_benchmarks_read_no_environment():
    assert _reads_under(BENCHMARKS) == {}


def test_collector_sees_every_read_form(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "import os\n"
        "NAME = 'A_CONST'\n"
        "os.environ.get(NAME)\n"
        "os.getenv('B_GETENV')\n"
        "os.environ['C_ITEM']\n"
        "'D_IN' in os.environ\n"
    )
    assert sorted(name for name, _ in _env_reads(module)) == [
        "A_CONST",
        "B_GETENV",
        "C_ITEM",
        "D_IN",
    ]
