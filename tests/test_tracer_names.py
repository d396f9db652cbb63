"""The benchmark's tracer wraps package functions by the names their callers
look them up by; renaming or moving one breaks every traced run. This
checks each of those names from the package's own test suite."""

import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if BENCH not in sys.path:
    sys.path.append(BENCH)

import tracer  # noqa: E402


def test_every_traced_name_is_wrapped_and_restored():
    targets = [f"{module}.{cls + '.' if cls else ''}{attr}" for module, cls, attr, _, _ in tracer.WRAPS]
    with tracer.installed(tracer.Tracer()):
        assert tracer.wrapped_targets() == targets
    assert tracer.wrapped_targets() == []
