"""The benchmark's tracer finds the functions it wraps by name.

``bench/tracing.py`` wraps every function that a layer's ``__all__`` names, and
the ``(module, name)`` pairs in its ``_EXTRA``.  A traced benchmark run fails
outright when one of those names has gone.  These tests read the tracer's own
tables, without changing it, and resolve every name.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# The mat2 and sampling functions that the traced key-estimates run wraps,
# each recorded as the span "<layer>.<name>".
WRAPPED = {
    "mat2": (
        "abs2",
        "hs_norm_sq",
        "hs_norm",
        "op_norm",
        "t2_norm",
        "inv2",
        "f_key",
        "rho",
        "kappa",
        "scalar_project",
        "unitary_triangularize",
        "nearest_binary_idempotent",
        "key_estimates",
        "obstruction_check",
        "is_idempotent_within",
        "commute_within",
    ),
    "sampling": (
        "random_multiplicative_scalar",
        "random_scalar_instance",
        "random_t2_instance",
        "random_m2_instance",
        "random_binary_weighted_instance",
        "random_bounded_idempotent",
        "random_near_idempotent",
        "sample_commuting_idempotents",
    ),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer(name):
    return importlib.import_module(f"amnm.{name}")


def test_every_extra_target_resolves():
    tracing = load_tracing()
    for module, name, _span in tracing._EXTRA:
        assert callable(getattr(layer(module), name)), (module, name)


def test_every_name_in_a_traced_layer_resolves():
    tracing = load_tracing()
    for name in tracing.LAYERS:
        mod = layer(name)
        for attr in mod.__all__:
            assert hasattr(mod, attr), (name, attr)


def test_the_wrapped_mat2_and_sampling_functions_still_exist():
    tracing = load_tracing()
    for name, functions in WRAPPED.items():
        assert name in tracing.LAYERS
        mod = layer(name)
        for attr in functions:
            fn = getattr(mod, attr, None)
            assert attr in mod.__all__ and inspect.isfunction(fn), (name, attr)
            assert fn.__module__ == mod.__name__, (name, attr)


def test_every_counted_span_is_a_wrapped_function():
    tracing = load_tracing()
    for span in tracing._COUNTERS:
        name, attr = span.split(".")
        assert attr in layer(name).__all__ and inspect.isfunction(getattr(layer(name), attr)), span
