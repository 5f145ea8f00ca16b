"""Run the engine's differential suites under both step kernels.

``BatchedNetwork`` steps exact fixed-point batches through the native
kernel of :mod:`repro.runtime._native` when it loads, and through its
NumPy stages otherwise.  Every test of the modules below is collected
twice: once under its own id with the kernel the loader provides, and
once with ``-numpy-kernel`` appended to its id and the private loader
monkeypatched to refuse, which forces the NumPy reference step.  The
assertions are the same in both runs, so each suite holds both kernels
to the same bit-exact contract.  (``test_native_step.py`` fails when a
compiler is on ``PATH`` but the native kernel did not load, so the
first run cannot silently be NumPy too.)
"""

import pytest

from repro.runtime import _native

KERNEL_SUITES = frozenset(
    {
        "test_batch_equivalence.py",
        "test_integer_csr.py",
        "test_batch_extend.py",
        "test_checkpoint.py",
        "test_slot_engine.py",
    }
)


@pytest.fixture(autouse=True)
def step_kernel(request, monkeypatch):
    """``"numpy"`` on the NumPy-kernel copies (loader patched), else ``"default"``."""
    if request.node.get_closest_marker("numpy_kernel") is None:
        return "default"
    monkeypatch.setattr(_native, "load_step_kernel", lambda: None)
    return "numpy"


def _numpy_name(name):
    if name.endswith("]"):
        return f"{name[:-1]}-numpy-kernel]"
    return f"{name}[numpy-kernel]"


def pytest_collection_modifyitems(config, items):
    collected = list(items)
    items.clear()
    for item in collected:
        items.append(item)
        if item.path.name not in KERNEL_SUITES or not isinstance(item, pytest.Function):
            continue
        twin = pytest.Function.from_parent(
            item.parent,
            name=_numpy_name(item.name),
            callspec=getattr(item, "callspec", None),
            callobj=item.obj,
            fixtureinfo=item._fixtureinfo,
            originalname=item.originalname,
        )
        twin.add_marker(pytest.mark.numpy_kernel)
        items.append(twin)
