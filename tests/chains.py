"""Reference chains of tracked primitives that one-node ops must reproduce
bit for bit, shared by the engine and objective tests."""

import numpy as np

import cts.tensor as T
from cts.tensor import Tensor


def _log(a):
    """The tracked log the log-softmax chain was built from."""
    return T._make(np.log(a.data), "log", (a,), lambda g: (T.mul(g, T.power(a, -1.0)),))


def log_softmax_chain(a, axis=-1):
    """Log-softmax as a chain of primitives: ``z = a − max`` (the max a
    constant), ``z − log Σ exp(z)``."""
    shift = Tensor(np.max(a.data, axis=axis, keepdims=True))
    z = a - T.broadcast_to(shift, a.shape)
    lse = _log(T.sum_(T.exp(z), axis=axis, keepdims=True))
    return z - T.broadcast_to(lse, a.shape)
