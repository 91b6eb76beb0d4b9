"""Deterministic serialization of results.

``canonical_json`` renders any of this package's report objects (and plain
containers of numbers) to JSON that is byte-identical across runs: dict
insertion order is preserved, floats use their shortest round-trip form,
complex numbers become ``[re, im]`` pairs, exact rationals become
``"p/q"`` strings, and non-finite floats are rejected outright.
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np

from .defects import AlgebraMap, map_to_json
from .mat2 import Mat2

__all__ = ["to_jsonable", "canonical_json", "render_table"]


def to_jsonable(obj):
    """Recursively convert reports, matrices and numbers to JSON-ready data."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite float {x!r}")
        return x
    if isinstance(obj, complex):
        return [to_jsonable(obj.real), to_jsonable(obj.imag)]
    if isinstance(obj, AlgebraMap):
        return map_to_json(obj)
    if isinstance(obj, Mat2):
        return [[to_jsonable(obj.a), to_jsonable(obj.b)], [to_jsonable(obj.c), to_jsonable(obj.d)]]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (frozenset, set)):
        return [to_jsonable(x) for x in sorted(obj)]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    raise TypeError(f"cannot serialize object of type {type(obj)!r}")


def canonical_json(obj) -> str:
    """JSON text for ``obj``, identical bytes on every run for equal inputs."""
    return json.dumps(to_jsonable(obj), indent=2, allow_nan=False, ensure_ascii=True)


def render_table(headers: list[str], rows: list[list]) -> str:
    """Plain-text table with left-aligned, width-fitted columns."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for k, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
