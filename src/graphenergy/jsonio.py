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


def dumps(obj) -> str:
    """Serialize nested dicts/lists/scalars to JSON text, indented two spaces."""
    return _text(obj, "") + "\n"


# JSON's types; a subclass is written as the first of them it is an instance
# of, so bool comes before int (bool is an int)
_JSON_TYPES = (str, type(None), bool, int, float, dict, list, tuple)
_EXACT_JSON_TYPES = frozenset(_JSON_TYPES)


def _text(obj, pad: str) -> str:
    """The JSON text of `obj` on a line indented by `pad`; its items go two spaces deeper."""
    kind = type(obj)
    if kind not in _EXACT_JSON_TYPES:  # such as numpy's float64, a float
        kind = next((t for t in _JSON_TYPES if isinstance(obj, t)), None)
    # scalars are written as json.dumps writes them
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is float:
        return format_float(obj)
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    inner = pad + "  "
    if kind is dict:
        # encode_basestring_ascii raises TypeError on a key that is not a str
        items = [f"{encode_basestring_ascii(key)}: {_text(value, inner)}"
                 for key, value in obj.items()]
        brackets = "{}"
    elif kind is list or kind is tuple:
        items = [_text(value, inner) for value in obj]
        brackets = "[]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
    if not items:
        return brackets
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{pad}{brackets[1]}")
