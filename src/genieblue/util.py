"""Small shared helpers."""

from __future__ import annotations

import hashlib
from typing import Mapping

import numpy as np

from .autograd import Tensor

__all__ = ["digest_tensors"]


def digest_tensors(params: Mapping[str, Tensor | np.ndarray]) -> str:
    """Order-independent-of-insertion digest over raw tensor bytes."""
    h = hashlib.sha256()
    for name in sorted(params):
        p = params[name]
        data = p.data if isinstance(p, Tensor) else np.asarray(p)
        h.update(name.encode())
        h.update(np.ascontiguousarray(data).tobytes())
    return h.hexdigest()
