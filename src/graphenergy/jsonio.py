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


# JSON's types; a subclass is written as the first of them it is an instance
# of, so bool comes before int (bool is an int)
_JSON_TYPES = (str, type(None), bool, int, float, dict, list, tuple)
_EXACT_JSON_TYPES = frozenset(_JSON_TYPES)


def _write(obj, out: list[str], level: int) -> None:
    kind = type(obj)
    if kind not in _EXACT_JSON_TYPES:  # such as numpy's float64, a float
        kind = next((t for t in _JSON_TYPES if isinstance(obj, t)), None)
    # scalars are written as json.dumps writes them
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is float:
        out.append(format_float(obj))
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        pad = _INDENT * level
        inner = _INDENT * (level + 1)
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{inner}{encode_basestring_ascii(key)}: ")
            _write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(f"{pad}}}")
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        pad = _INDENT * level
        inner = _INDENT * (level + 1)
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(inner)
            _write(value, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(f"{pad}]")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
