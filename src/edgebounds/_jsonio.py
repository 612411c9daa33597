"""Deterministic JSON emission shared by the CLI and the survey writer.

Floats serialize via repr (shortest round-trip form); non-finite floats
become null; complex values become {re, im} objects. A dataclass is
written as its fields in declaration order, vars(obj), so a record's
fields are its JSON schema. Key order is the insertion order of the dicts
handed in, so reruns are byte-identical.

dumps_report writes a document in one pass, each container as one string,
and keeps dumps_report(obj) == json.dumps(json_ready(obj), indent=2,
allow_nan=False) + "\\n" for every obj that json_ready accepts.
"""

import dataclasses
import math
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any

import numpy as np


def json_ready(obj: Any) -> Any:
    """Rewrite obj into plain JSON-safe types under the policy above."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    elif isinstance(obj, np.complexfloating):
        obj = complex(obj)
    elif isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, complex):
        return {"re": json_ready(obj.real), "im": json_ready(obj.imag)}
    if dataclasses.is_dataclass(type(obj)):
        obj = vars(obj)
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    raise TypeError("cannot serialize %r" % type(obj).__name__)


def _dump(obj: Any, outer: str) -> str:
    """obj as indent=2 JSON whose closing bracket is indented by outer.

    The exact plain types and a dataclass's fields are written directly;
    anything else is rewritten by json_ready once and its result dispatched
    by isinstance, so a subclass such as IntEnum or np.str_ is written, not
    rewritten again.
    """
    t = type(obj)
    if t is float:  # repr of an exact float or int is float.__repr__ or int.__repr__
        return repr(obj) if math.isfinite(obj) else "null"
    if t is str:
        return _encode_str(obj)
    if t is int:
        return repr(obj)
    if t is dict or t is list or t is tuple:
        if not obj:
            return "{}" if t is dict else "[]"
        # the joined body is a temporary, freed by the first concatenation,
        # so the peak is about twice the text: the items, then two copies
        inner = outer + "  "
        sep = ",\n" + inner
        if t is dict:
            return "{\n" + inner + sep.join(
                [_encode_str(str(k)) + ": " + _dump(v, inner) for k, v in obj.items()]
            ) + "\n" + outer + "}"
        return "[\n" + inner + sep.join([_dump(v, inner) for v in obj]) + "\n" + outer + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if dataclasses.is_dataclass(t):
        return _dump(vars(obj), outer)
    obj = json_ready(obj)
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, float):  # finite: json_ready nulls the rest
        return float.__repr__(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    return _dump(obj, outer)  # None, a bool, or a plain dict or list


def dumps_report(obj: Any) -> str:
    """The indent=2 JSON document of obj under the policy above, newline-terminated."""
    return _dump(obj, "") + "\n"
