"""Versioned binary file for all trained models.

One self-describing file (magic `SEQD`, then a version) holds every model of
the three passes plus the bigram table and a manifest, so the passes can never
get out of sync on disk. After the 8-byte header comes one payload: a JSON
metadata block followed by named little-endian 64-bit float arrays.

The `Bundle` dataclass and the model dataclasses it holds are the schema.
Every array is stored under its field path (for example
`/second_pass/sda_sixway/layers/1/w`); list lengths, the label names keying a
dict, enum names and every other leaf go in the metadata, and each such leaf
is checked against its declared type on load. Serialization is
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

from .features import FEATURE_DIM
from .grammar import BigramTable
from .hmm import GmmHmmModel, HmmError
from .labels import NUM_CLASSES, EventLabel
from .sda import SUPERVECTOR_DIM, SecondPassModels

MAGIC = b"SEQD"
VERSION = 2


class BundleError(Exception):
    pass


def _pack_payload(meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    out = bytearray()
    meta_b = json.dumps(meta, sort_keys=True).encode("utf-8")
    out += struct.pack("<I", len(meta_b)) + meta_b
    out += struct.pack("<I", len(arrays))
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        name_b = name.encode("utf-8")
        out += struct.pack("<I", len(name_b)) + name_b
        out += struct.pack("<B", arr.ndim)
        for d in arr.shape:
            out += struct.pack("<Q", d)
        out += arr.tobytes()
    return bytes(out)


def _unpack_payload(buf):
    """The (meta, arrays) of a payload in `buf` (bytes or a memoryview, which
    the arrays then view without a copy)."""
    buf = memoryview(buf)
    off = 0

    def take(n):
        nonlocal off
        chunk = buf[off:off + n]
        if len(chunk) != n:
            raise BundleError("truncated payload")
        off += n
        return chunk

    meta_len, = struct.unpack("<I", take(4))
    meta = json.loads(bytes(take(meta_len)).decode("utf-8"))
    n_arrays, = struct.unpack("<I", take(4))
    arrays = {}
    for _ in range(n_arrays):
        name_len, = struct.unpack("<I", take(4))
        name = bytes(take(name_len)).decode("utf-8")
        ndim, = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<Q", take(8))[0] for _ in range(ndim))
        arrays[name] = np.frombuffer(take(math.prod(shape) * 8),
                                     dtype="<f8").reshape(shape)
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
    elif _is_enum(tp):
        meta[path] = obj.name
    else:
        meta[path] = obj


def _build(tp, path: str, meta: dict, arrays: dict):
    """The inverse of _flatten: the value of type `tp` stored under `path`."""
    args = typing.get_args(tp)
    if tp is np.ndarray:
        return np.array(arrays[path])
    if is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        try:
            return tp(**{f.name: _build(hints[f.name], f"{path}/{f.name}",
                                        meta, arrays)
                         for f in fields(tp)})
        except HmmError as exc:
            raise BundleError(f"{path}: {exc}") from None
    if typing.get_origin(tp) is list:
        return [_build(args[0], f"{path}/{i}", meta, arrays)
                for i in range(meta[path])]
    if typing.get_origin(tp) is dict and _is_enum(args[0]):
        return {args[0][name]: _build(args[1], f"{path}/{name}", meta, arrays)
                for name in meta[path]}
    if _is_enum(tp):
        return tp[meta[path]]
    value = meta[path]
    allowed = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise BundleError(f"{path} must be {tp.__name__}, got {value!r}")
    return value


@dataclass
class Bundle:
    hmm_models: dict[EventLabel, GmmHmmModel]
    second_pass: SecondPassModels
    bigram: BigramTable
    manifest: dict

    def save(self, path: str) -> None:
        meta, arrays = {}, {}
        _flatten(self, type(self), "", meta, arrays)
        with open(path, "wb") as f:
            f.write(MAGIC + struct.pack("<I", VERSION))
            f.write(_pack_payload(meta, arrays))

    def _check_shapes(self) -> None:
        """Cross-check the array shapes that no single model checks itself."""
        if len(self.hmm_models) != NUM_CLASSES:
            raise BundleError(f"/hmm_models holds {len(self.hmm_models)} classes, "
                              f"expected {NUM_CLASSES}")
        n, l, _ = next(iter(self.hmm_models.values())).means.shape
        want = {f"/hmm_models/{lab.name}/means": (m.means, (n, l, FEATURE_DIM))
                for lab, m in self.hmm_models.items()}
        for pca_name, sda_names in (("pca_detector", ("sda_spsw", "sda_eyem")),
                                    ("pca_sixway", ("sda_sixway",))):
            pca, path = getattr(self.second_pass, pca_name), f"/second_pass/{pca_name}"
            want[f"{path}/mean"] = (pca.mean, (SUPERVECTOR_DIM,))
            want[f"{path}/components"] = (pca.components, (pca.out_dim, SUPERVECTOR_DIM))
            for name in sda_names:  # each weight matrix takes the previous width
                sda = getattr(self.second_pass, name)
                width = sda.window_length * pca.out_dim
                for sub, w in [*((f"layers/{i}/w", layer.w) for i, layer in
                                 enumerate(sda.layers)), ("out_w", sda.out_w)]:
                    want[f"/second_pass/{name}/{sub}"] = (w, (len(w), width))
                    width = len(w)
        for path, (arr, shape) in want.items():
            if arr.shape != shape:
                raise BundleError(f"{path} has shape {arr.shape}, expected {shape}")

    @classmethod
    def load(cls, path: str) -> "Bundle":
        with open(path, "rb") as f:
            buf = f.read()
        if buf[:4] != MAGIC:
            raise BundleError(f"{path}: not a SEQD bundle")
        if len(buf) < 8:
            raise BundleError(f"{path}: truncated header")
        version, = struct.unpack("<I", buf[4:8])
        if version != VERSION:
            raise BundleError(
                f"{path}: container version {version}, expected {VERSION}")
        try:
            bundle = _build(cls, "", *_unpack_payload(memoryview(buf)[8:]))
            bundle._check_shapes()
            return bundle
        except BundleError as exc:
            raise BundleError(f"{path}: {exc}") from None
        except KeyError as exc:
            raise BundleError(f"{path}: missing or unknown entry {exc}") from None
        except (TypeError, ValueError, IndexError) as exc:
            raise BundleError(f"{path}: corrupt payload: {exc}") from None
