"""Report serialization: JSON with fixed 17-significant-digit floats.

Every float printed by the CLI goes through fmt_float so repeated runs
of the same configuration are byte-identical and values round-trip
losslessly.
"""

from __future__ import annotations

import math

#: the JSON escapes of '"', '\\' and the control characters U+0000-U+001F, which a JSON string may not hold
_ESCAPES = {c: f"\\u{c:04x}" for c in range(32)} | {ord('"'): '\\"', ord("\\"): "\\\\"}


def fmt_float(x: float) -> str:
    """17 significant digits; NaN of either sign prints nan, infinities
    inf and -inf, and -0.0 prints -0."""
    return f"{x:.17g}"


def to_json(obj, indent: int = 0) -> str:
    """Minimal JSON writer with deterministic float formatting.

    Handles dicts (insertion order preserved), strings (control
    characters as \\u00XX escapes), bools, None, ints and floats.
    Floats print with 17 significant digits; infinities appear as the
    strings "inf"/"-inf" and NaN as "nan" to keep the output parseable.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {to_json(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return f'"{fmt_float(obj)}"'
        return fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return '"' + obj.translate(_ESCAPES) + '"'
    raise TypeError(f"cannot serialize {type(obj)}")
