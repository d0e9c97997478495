"""Versioned binary file for all trained models.

One self-describing file (magic `SEQD`, then a version) holds every model of
the three passes plus the bigram table and a manifest, so the passes can never
get out of sync on disk. After the 8-byte header comes one payload: a JSON
metadata block followed by named little-endian float arrays. Each array is
stored as f4 when float32 holds every one of its values exactly (the SdA
parameters, which train in float32) and as f8 otherwise, so storage is
lossless, and a load followed by a save writes the same bytes. Every array
loads as float64.

The `Bundle` dataclass and the model dataclasses it holds are the schema.
Every array is stored under its field path (for example
`/second_pass/sda_sixway/layers/1/w`); list lengths, the label names keying a
dict and every other leaf go in the metadata, and each such leaf
is checked against its declared type on load. Each model checks its own
arrays as it is built, and the `Bundle` adds the checks that span models; a
failed check is a DataError naming the array's path. Serialization is
byte-deterministic for identical models.
"""
from __future__ import annotations

import json
import math
import struct
import typing
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum

import numpy as np

from .errors import DataError, check_shape
from .features import FEATURE_DIM
from .grammar import BigramTable
from .hmm import GmmHmmModel
from .labels import NUM_CLASSES, EventLabel
from .sda import SUPERVECTOR_DIM, SecondPassModels

MAGIC = b"SEQD"
VERSION = 5
# An array's dtype byte in the payload is its item size.
_DTYPES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}
# Elements per block in which an array is checked and written.
_BLOCK = 1 << 15


def _blocks(flat: np.ndarray):
    return (flat[i:i + _BLOCK] for i in range(0, flat.size, _BLOCK))


def _stored_dtype(flat: np.ndarray) -> np.dtype:
    """<f4 when float32 holds every value of the float32 or float64 vector
    `flat` exactly, <f8 otherwise."""
    if flat.dtype == np.float32:
        return _DTYPES[4]
    with np.errstate(over="ignore"):  # a value past float32's range is inexact
        exact = all(np.array_equal(b.astype(np.float32), b) for b in _blocks(flat))
    return _DTYPES[4 if exact else 8]


def _write_payload(f, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write the payload of (meta, arrays) to the binary file `f`, each array
    a block at a time, so no copy of the payload is built."""
    meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
    f.write(struct.pack("<I", len(meta_b)) + meta_b)
    f.write(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        flat = np.ravel(arr if arr.dtype == np.float32
                        else arr.astype(np.float64, copy=False))
        dtype = _stored_dtype(flat)
        name_b = name.encode("utf-8")
        f.write(struct.pack(f"<I{len(name_b)}sBB{arr.ndim}Q", len(name_b), name_b,
                            dtype.itemsize, arr.ndim, *arr.shape))
        for b in _blocks(flat):
            f.write(b.astype(dtype, copy=False).data)


def _unpack_payload(buf):
    """The (meta, arrays) of a payload in `buf` (bytes or a memoryview, which
    the arrays then view without a copy)."""
    buf = memoryview(buf)
    off = 0

    def take(n):
        nonlocal off
        chunk = buf[off:off + n]
        if len(chunk) != n:
            raise DataError("truncated payload")
        off += n
        return chunk

    meta_len, = struct.unpack("<I", take(4))
    meta = json.loads(bytes(take(meta_len)).decode("utf-8"))
    n_arrays, = struct.unpack("<I", take(4))
    arrays = {}
    for _ in range(n_arrays):
        name_len, = struct.unpack("<I", take(4))
        name = bytes(take(name_len)).decode("utf-8")
        size, ndim = struct.unpack("<BB", take(2))
        if size not in _DTYPES:
            raise DataError(f"{name}: unknown dtype byte {size}")
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(ndim))
        arrays[name] = np.frombuffer(take(math.prod(shape) * size),
                                     dtype=_DTYPES[size]).reshape(shape)
    return meta, arrays


def _is_enum(tp) -> bool:
    return isinstance(tp, type) and issubclass(tp, Enum)


def _flatten(obj, tp, path: str, meta: dict, arrays: dict) -> None:
    """Store `obj`, declared as type `tp`, under `path`."""
    args = typing.get_args(tp)
    if tp is np.ndarray:
        arrays[path] = obj
    elif is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        for f in fields(tp):
            _flatten(getattr(obj, f.name), hints[f.name], f"{path}/{f.name}",
                     meta, arrays)
    elif typing.get_origin(tp) is list:
        meta[path] = len(obj)
        for i, item in enumerate(obj):
            _flatten(item, args[0], f"{path}/{i}", meta, arrays)
    elif typing.get_origin(tp) is dict and _is_enum(args[0]):
        meta[path] = [key.name for key in obj]
        for key, item in obj.items():
            _flatten(item, args[1], f"{path}/{key.name}", meta, arrays)
    else:
        meta[path] = obj


def _build(tp, path: str, meta: dict, arrays: dict):
    """The inverse of _flatten: the value of type `tp` stored under `path`."""
    args = typing.get_args(tp)
    if tp is np.ndarray:
        return np.array(arrays[path], dtype=np.float64)
    if is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        kwargs = {f.name: _build(hints[f.name], f"{path}/{f.name}", meta, arrays)
                  for f in fields(tp)}
        try:
            return tp(**kwargs)
        except DataError as exc:  # the model's own check names the field
            raise DataError(f"{path}/{exc}") from None
    if typing.get_origin(tp) is list:
        return [_build(args[0], f"{path}/{i}", meta, arrays)
                for i in range(meta[path])]
    if typing.get_origin(tp) is dict and _is_enum(args[0]):
        return {args[0][name]: _build(args[1], f"{path}/{name}", meta, arrays)
                for name in meta[path]}
    value = meta[path]
    if isinstance(value, bool) or not isinstance(value, tp):
        raise DataError(f"{path} must be {tp.__name__}, got {value!r}")
    return value


@dataclass
class Bundle:
    hmm_models: dict[EventLabel, GmmHmmModel]
    second_pass: SecondPassModels
    bigram: BigramTable
    manifest: dict

    def __post_init__(self):
        """Cross-check the shapes that span models; each model checks its
        own arrays as it is built. Paths are relative to the bundle, as a
        model names its own fields."""
        if len(self.hmm_models) != NUM_CLASSES:
            raise DataError(f"hmm_models holds {len(self.hmm_models)} classes, "
                            f"expected {NUM_CLASSES}")
        n, l, _ = next(iter(self.hmm_models.values())).means.shape
        for lab, m in self.hmm_models.items():
            check_shape(f"hmm_models/{lab.name}/means", m.means, (n, l, FEATURE_DIM))
        for pca_name, sda_names in (("pca_detector", ("sda_spsw", "sda_eyem")),
                                    ("pca_sixway", ("sda_sixway",))):
            pca = getattr(self.second_pass, pca_name)
            check_shape(f"second_pass/{pca_name}/components", pca.components,
                        (pca.out_dim, SUPERVECTOR_DIM))
            for name in sda_names:
                sda = getattr(self.second_pass, name)
                w = sda.layers[0].w
                check_shape(f"second_pass/{name}/layers/0/w", w,
                            (len(w), sda.window_length * pca.out_dim))

    def save(self, path: str) -> None:
        meta, arrays = {}, {}
        _flatten(self, type(self), "", meta, arrays)
        with open(path, "wb") as f:
            f.write(MAGIC + struct.pack("<I", VERSION))
            _write_payload(f, meta, arrays)

    @classmethod
    def load(cls, path: str) -> "Bundle":
        with open(path, "rb") as f:
            buf = f.read()
        if buf[:4] != MAGIC:
            raise DataError(f"{path}: not a SEQD bundle")
        if len(buf) < 8:
            raise DataError(f"{path}: truncated header")
        version, = struct.unpack("<I", buf[4:8])
        if version != VERSION:
            raise DataError(f"{path}: container version {version}, expected {VERSION}")
        try:
            return _build(cls, "", *_unpack_payload(memoryview(buf)[8:]))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        except KeyError as exc:
            raise DataError(f"{path}: missing or unknown entry {exc}") from None
        except (TypeError, ValueError, IndexError) as exc:
            raise DataError(f"{path}: corrupt payload: {exc}") from None
