"""Dataset ingestion: synthetic Gaussian blobs and IDX image files.

Batches are drawn from counter-based seeds, so batch t of a run is a pure
function of (seed, t).
"""

from __future__ import annotations

import inspect
import math
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class DataError(Exception):
    pass


@dataclass
class Dataset:
    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    input_shape: tuple
    num_classes: int

    def batch(self, step: int, batch_size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Training batch ``step`` of the stream ``seed``."""
        rng = np.random.default_rng(np.random.SeedSequence([23, seed, step]))
        idx = rng.choice(len(self.x_train), size=min(batch_size, len(self.x_train)), replace=False)
        return self.x_train[idx], self.y_train[idx]

    def eval_batch(self, n: int = 256, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """A fixed evaluation batch (deterministic given seed)."""
        rng = np.random.default_rng(np.random.SeedSequence([29, seed]))
        idx = rng.choice(len(self.x_train), size=min(n, len(self.x_train)), replace=False)
        return self.x_train[idx], self.y_train[idx]


def _check_blobs(classes: int, dim: int, n: int, image: bool) -> None:
    """The value rules of a blobs dataset, applied by the spec parser and by
    make_blobs alike."""
    if classes < 2 or dim < classes or n < classes:
        raise DataError("need classes >= 2, dim >= classes, n >= classes")
    if image and math.isqrt(dim) ** 2 != dim:
        raise DataError(f"image blobs need a square dim, got {dim}")


def make_blobs(classes: int = 4, dim: int = 20, n: int = 4000, seed: int = 0,
               separation: float = 10.0, image: bool = False) -> Dataset:
    """Gaussian clusters at mutually equidistant centers (unit noise).

    ``separation`` is the pairwise center distance in units of the noise
    standard deviation. With image=True, dim must be a perfect square and
    samples are reshaped to (1, s, s).
    """
    _check_blobs(classes, dim, n, image)
    rng = np.random.default_rng(np.random.SeedSequence([31, seed]))
    a = rng.standard_normal((dim, classes))
    q, _ = np.linalg.qr(a)
    centers = q.T[:classes] * (separation / np.sqrt(2.0))
    labels = rng.integers(0, classes, size=n)
    x = centers[labels] + rng.standard_normal((n, dim))
    # standardize to unit scale so default learning rates are stable
    x = (x - x.mean()) / x.std()
    perm = rng.permutation(n)
    x, labels = x[perm], labels[perm]
    n_train = int(0.8 * n)
    shape = (dim,)
    if image:
        s = math.isqrt(dim)
        x = x.reshape(n, 1, s, s)
        shape = (1, s, s)
    return Dataset(f"blobs-c{classes}-d{dim}-n{n}-s{seed}",
                   x[:n_train], labels[:n_train], x[n_train:], labels[n_train:],
                   shape, classes)


def _read_idx(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise DataError(f"{path}: truncated IDX header at byte 0")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic == IDX_IMAGE_MAGIC:
        ndim = 3
    elif magic == IDX_LABEL_MAGIC:
        ndim = 1
    else:
        raise DataError(f"{path}: bad IDX magic 0x{magic:08x} at byte 0")
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise DataError(f"{path}: truncated IDX header at byte {len(raw)}")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    expected = header_len + int(np.prod(dims))
    if len(raw) != expected:
        raise DataError(f"{path}: IDX payload length mismatch at byte {len(raw)} "
                        f"(expected {expected})")
    return np.frombuffer(raw, dtype=np.uint8, offset=header_len).reshape(dims)


def load_idx(images_path, labels_path, test_fraction: float = 0.2,
             seed: int = 0) -> Dataset:
    """Standard big-endian IDX image/label pair, normalized to zero mean and
    unit variance over the whole dataset."""
    images = _read_idx(images_path).astype(np.float64)
    labels = _read_idx(labels_path).astype(np.int64)
    if len(images) != len(labels):
        raise DataError(f"image/label count mismatch: {len(images)} vs {len(labels)}")
    images = (images - images.mean()) / max(images.std(), 1e-12)
    x = images[:, None, :, :]
    rng = np.random.default_rng(np.random.SeedSequence([37, seed]))
    perm = rng.permutation(len(x))
    x, labels = x[perm], labels[perm]
    n_train = int((1 - test_fraction) * len(x))
    classes = int(labels.max()) + 1
    return Dataset("idx", x[:n_train], labels[:n_train], x[n_train:], labels[n_train:],
                   x.shape[1:], classes)


# The keys each dataset kind reads, with the type of each value.
_SPEC_KEYS = {
    "blobs": {"classes": int, "dim": int, "n": int, "seed": int, "separation": float,
              "image": lambda v: bool(int(v))},
    "idx": {"images": str, "labels": str, "seed": int},
}


def parse_dataset_spec(spec: str) -> tuple[str, dict]:
    """The kind of a dataset spec string and its keyword arguments.

    Forms: ``blobs:classes=4,dim=20,n=4000,seed=7,separation=10,image=0``
    or ``idx:images=<path>,labels=<path>``. Builds nothing; raises DataError
    for an unknown kind, a key the kind does not read, or a bad value,
    including blobs values that make_blobs would reject.
    """
    kind, _, rest = spec.partition(":")
    if kind not in _SPEC_KEYS:
        raise DataError(f"unknown dataset kind '{kind}'")
    types = _SPEC_KEYS[kind]
    kwargs = {}
    for item in filter(None, rest.split(",")):
        key, _, value = item.partition("=")
        if key not in types:
            raise DataError(f"{kind} dataset has no key '{key}' (keys: {', '.join(types)})")
        try:
            kwargs[key] = types[key](value)
        except ValueError:
            raise DataError(f"{kind} dataset key '{key}': bad value {value!r}") from None
    if kind == "idx" and not {"images", "labels"} <= kwargs.keys():
        raise DataError("idx dataset needs images=<path>,labels=<path>")
    if kind == "blobs":
        args = inspect.signature(make_blobs).bind(**kwargs)
        args.apply_defaults()
        _check_blobs(*(args.arguments[k] for k in ("classes", "dim", "n", "image")))
    return kind, kwargs


def load_dataset(spec: str) -> Dataset:
    """Build the dataset a spec string names (see parse_dataset_spec)."""
    kind, kwargs = parse_dataset_spec(spec)
    if kind == "blobs":
        return make_blobs(**kwargs)
    return load_idx(kwargs.pop("images"), kwargs.pop("labels"), **kwargs)
