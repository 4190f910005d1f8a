"""Scratch buffers that each thread keeps and reuses across calls.

The slice sweeps of ``fock`` (the basis, fill, power and bound buffers of
``stem_norms`` and ``_sup_norms``) work in temporaries of about 1 MB.  Allocated
afresh on every call, such a buffer is handed back to the system when it
is freed (the C allocator unmaps it, or trims the top of its heap), so the
next call faults its pages in again (about 380 minor page faults per
p = 3 plane ``fock_norm_sup`` call), a count that depends on what the
caller happens to keep alive.  A buffer kept here faults once per thread.
"""

from __future__ import annotations

import math
import threading

import numpy as np

# Largest buffer kept between calls: 8 MB, the power buffers of a slice
# sweep on a grid four times the default 64 x 256.  A larger request gets a
# new array on every call.
MAX_BYTES = 1 << 23

_LOCAL = threading.local()


def scratch(name: str, shape) -> np.ndarray:
    """An uninitialized float array of ``shape``, carved from the buffer that
    the calling thread keeps under ``name``.  The buffer grows to the largest
    request of at most ``MAX_BYTES``, and every later request reuses it.  A
    name serves one array at a time: the next request overwrites it.
    """
    size = math.prod(shape)
    buf = getattr(_LOCAL, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        if buf.nbytes <= MAX_BYTES:
            setattr(_LOCAL, name, buf)
    return buf[:size].reshape(shape)
