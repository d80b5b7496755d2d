"""Small shared helpers."""

from __future__ import annotations

import hashlib
from typing import Mapping

from .autograd import Tensor

__all__ = ["digest_tensors"]


def digest_tensors(params: Mapping[str, Tensor]) -> str:
    """Order-independent-of-insertion digest over raw tensor bytes."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(params[name].data.tobytes())
    return h.hexdigest()
