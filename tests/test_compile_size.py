"""The compile-size rule: no module of ``bseries`` compiles past 1.5 MB.

Where Python keeps no bytecode cache, every process compiles each module it
imports, and the largest ``compile()`` sets the floor of its peak memory.
The peak does not follow a fixed token count, so the rule is on the peak
itself: the memory ``compile()`` of the module's source takes at its height,
under tracemalloc.  The figures are those of CPython 3.11; other versions
compile differently, and skip.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

import bseries

LIMIT = 1_500_000  # bytes
MODULES = sorted(Path(bseries.__file__).parent.glob("*.py"))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="the sizes are those of CPython 3.11")
@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_compiles_under_the_limit(path):
    source = path.read_text(encoding="utf-8")
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        compile(source, str(path), "exec")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert peak < LIMIT, f"{path.name}: compile() peaks at {peak / 1e6:.2f} MB"
