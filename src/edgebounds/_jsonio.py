"""Deterministic JSON emission shared by the CLI and the survey writer.

Floats serialize via repr (shortest round-trip form); non-finite floats
become null; complex values become {re, im} objects. Key order is the
insertion order of the dicts handed in, so reruns are byte-identical.
"""

import dataclasses
import json
import math
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
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        to_dict = getattr(obj, "to_json_dict", None)
        if to_dict is not None:
            return json_ready(to_dict())
        return json_ready(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_ready(v) for v in obj]
    raise TypeError("cannot serialize %r" % type(obj).__name__)


def dumps_report(obj: Any) -> str:
    return json.dumps(json_ready(obj), indent=2, allow_nan=False) + "\n"
