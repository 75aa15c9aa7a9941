"""Deterministic JSON emission for reports.

Key order follows insertion order of the dicts being serialized; floats are
written with 17 significant digits so values round-trip exactly and repeated
invocations produce byte-identical output.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    text = format(x, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


_INDENT = "  "


def dumps(obj) -> str:
    """Serialize nested dicts/lists/scalars to JSON text, indented two spaces."""
    out: list[str] = []
    _write(obj, out, 0)
    return "".join(out) + "\n"


def _write(obj, out: list[str], level: int) -> None:
    pad = _INDENT * level
    inner = _INDENT * (level + 1)
    # scalars are written as json.dumps writes them; bool is an int, so it goes first
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{inner}{encode_basestring_ascii(key)}: ")
            _write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(f"{pad}}}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(f"{pad}]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
