"""The CLI's JSON renderer as it was written before it dispatched on
`type()`: the tests' reference for `cli._render_json`, kept verbatim.

It recurses through an `isinstance` chain for every value and calls
`json.dumps` for every key and string.  The package's renderer must print
the same text for every value this one accepts, and raise the same
exception for every value it refuses.

`test_render_reference.py` compares the two.
"""

import json
import math

from calogero.errors import ConvergenceError


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ConvergenceError(f"non-finite value reached the output layer: {x!r}")
    return f"{x:.17g}"


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{pad_in}{json.dumps(k)}: {_render_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad_in}{_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"unrenderable type {type(obj)!r}")
