"""Deterministic JSON report assembly for the command-line tools.

Reports are byte-identical across runs with the same configuration: keys
are sorted and no timestamps or machine identifiers are embedded.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class RunConfig:
    cap_order: int = 10000
    out: str | None = None

    def block(self):
        return {"cap_order": self.cap_order}


def tool_block():
    from . import __version__
    return {"name": "rbgroups", "version": __version__}


def group_block(G, ref=None):
    b = {"name": G.name, "order": int(G.order),
         "fingerprint": G.fingerprint_hex()}
    if ref is not None:
        b["ref"] = ref
    return b


def operator_block(op):
    return {"provenance": to_jsonable(op.provenance),
            "images": [int(x) for x in op.images]}


def to_jsonable(x):
    if isinstance(x, dict):
        return {str(k): to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [to_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, frozenset):
        return sorted(str(v) for v in x)
    return x


def render(payload) -> str:
    return json.dumps(to_jsonable(payload), sort_keys=True, indent=2) + "\n"


def emit(payload, out_path=None):
    text = render(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return text
