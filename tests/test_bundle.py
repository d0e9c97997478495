import io
import json
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from seqdet.bundle import (MAGIC, VERSION, Bundle, _unpack_payload,
                           _write_payload)
from seqdet.errors import DataError
from seqdet.features import FEATURE_DIM
from seqdet.grammar import TABLE1_BIGRAM
from seqdet.hmm import init_model
from seqdet.labels import EventLabel
from seqdet.pipeline import PipelineConfig
from seqdet.sda import (SUPERVECTOR_DIM, PcaModel, SdaModel, SecondPassModels,
                        init_stack)


def payload(meta: dict, arrays: dict) -> bytes:
    """The payload bytes that a bundle file holds after its 8-byte header."""
    buf = io.BytesIO()
    _write_payload(buf, meta, arrays)
    return buf.getvalue()


def tiny_sda(rng, pca_dim, outputs=2, window=3):
    layers = init_stack(window * pca_dim, (4, 4), rng)
    return SdaModel(layers, rng.standard_normal((outputs, 4)),
                    rng.standard_normal(outputs), window,
                    np.zeros(pca_dim), np.ones(pca_dim))


def tiny_bundle(seed=0):
    """Small models whose shapes chain as a trained bundle's do: 26-dim
    features, PCA from 132 supervector dims, each SdA fed by its PCA. The
    manifest holds the default config, so `seqdet decode` with this bundle
    goes on to read the recording."""
    rng = np.random.default_rng(seed)
    epochs = rng.standard_normal((20, 10, FEATURE_DIM))
    models = {lab: init_model(lab, epochs, 3, 2, seed=int(lab))
              for lab in EventLabel}
    second = SecondPassModels(
        PcaModel(rng.standard_normal(SUPERVECTOR_DIM), np.eye(3, SUPERVECTOR_DIM)),
        PcaModel(rng.standard_normal(SUPERVECTOR_DIM), np.eye(4, SUPERVECTOR_DIM)),
        tiny_sda(rng, 3), tiny_sda(rng, 3), tiny_sda(rng, 4, outputs=6))
    return Bundle(models, second, TABLE1_BIGRAM,
                  {"seed": seed, "note": "test",
                   "config": json.loads(json.dumps(PipelineConfig().to_dict()))})


class TestPayload:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        meta = {"a": 1, "b": "text", "c": [1, 2]}
        arrays = {"x": rng.standard_normal((3, 4)),
                  "y": rng.standard_normal(7),
                  "scalar": np.array(2.5)}
        m2, a2 = _unpack_payload(payload(meta, arrays))
        assert m2 == meta
        for k in arrays:
            np.testing.assert_array_equal(a2[k], arrays[k])

    def test_each_array_stored_in_the_narrowest_exact_dtype(self):
        # f4 when float32 holds every value (float32 arrays, and float64
        # ones with float32 values: zeros, small integers, rounded draws),
        # f8 otherwise: one inexact value, NaN, or a value past float32's
        # range. Either way the values come back exactly
        rng = np.random.default_rng(2)
        rounded = rng.standard_normal(5).astype(np.float32)
        arrays = {"f32": rounded, "ones": np.ones((2, 3)),
                  "rounded": rounded.astype(np.float64),
                  "empty": np.zeros((0, 4)), "inf": np.array([np.inf, -0.0]),
                  "draw": rng.standard_normal(4),
                  "one_inexact": np.r_[rounded.astype(np.float64), 0.1],
                  "nan": np.array([1.0, np.nan]), "big": np.array([1.0, 1e300])}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, back = _unpack_payload(payload({}, arrays))
        for name, a in back.items():
            f4 = name in ("f32", "ones", "rounded", "empty", "inf")
            assert a.dtype == np.dtype("<f4" if f4 else "<f8"), name
            np.testing.assert_array_equal(a, arrays[name])
            assert a.shape == arrays[name].shape

    def test_unknown_dtype_byte_rejected(self):
        buf = bytearray(payload({}, {"x": np.zeros(3)}))
        at = 4 + 2 + 4 + 4 + 1  # meta length, "{}", count, name length, name
        assert buf[at] == 4
        buf[at] = 2
        with pytest.raises(DataError, match="x: unknown dtype byte 2"):
            _unpack_payload(bytes(buf))

    def test_deterministic_bytes(self):
        arrays = {"x": np.arange(6.0).reshape(2, 3)}
        assert payload({"k": 1}, arrays) == payload({"k": 1}, arrays)

    def test_write_streams_arrays(self, tmp_path):
        # each array goes to the file from its own buffer: writing an 8 MB
        # payload allocates no payload-sized copy
        arrays = {"w": np.ones((1024, 1024)), "b": np.arange(3.0)}
        path = tmp_path / "payload"
        with open(path, "wb") as f:
            tracemalloc.start()
            try:
                _write_payload(f, {"k": 1}, arrays)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1 << 20
        assert path.read_bytes() == payload({"k": 1}, arrays)

    def test_truncation_detected(self):
        buf = payload({}, {"x": np.zeros(5)})
        with pytest.raises(DataError):
            _unpack_payload(buf[:-4])


def saved_tiny_bundle(tmp_path):
    path = str(tmp_path / "m.seqd")
    tiny_bundle().save(path)
    return path, Path(path).read_bytes()


class TestContainer:
    def test_save_load_save_round_trip(self, tmp_path):
        path, data = saved_tiny_bundle(tmp_path)
        again = str(tmp_path / "again.seqd")
        Bundle.load(path).save(again)
        assert Path(again).read_bytes() == data

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.seqd"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(DataError, match="not a SEQD bundle"):
            Bundle.load(str(path))

    def test_version_checked(self, tmp_path):
        path, data = saved_tiny_bundle(tmp_path)
        for version in (1, 3, 99):
            Path(path).write_bytes(MAGIC + struct.pack("<I", version) + data[8:])
            with pytest.raises(DataError, match=f"container version {version}"):
                Bundle.load(path)

    def test_truncated_payload(self, tmp_path):
        path, data = saved_tiny_bundle(tmp_path)
        Path(path).write_bytes(data[:-10])
        with pytest.raises(DataError, match="truncated"):
            Bundle.load(path)

    # every length below 64 (inside the header and the metadata length),
    # then 50 lengths spread over the rest of the file
    @pytest.mark.parametrize("cut", range(64 + 50))
    def test_every_truncation_rejected(self, tmp_path, cut):
        path, data = saved_tiny_bundle(tmp_path)
        length = cut if cut < 64 else int(
            np.linspace(64, len(data) - 1, 50)[cut - 64])
        Path(path).write_bytes(data[:length])
        with pytest.raises(DataError):
            Bundle.load(path)


class TestBundle:
    def test_full_round_trip(self, tmp_path):
        bundle = tiny_bundle()
        path = str(tmp_path / "m.seqd")
        bundle.save(path)
        back = Bundle.load(path)
        assert back.manifest == bundle.manifest
        for lab in EventLabel:
            a, b = bundle.hmm_models[lab], back.hmm_models[lab]
            np.testing.assert_array_equal(a.trans, b.trans)
            np.testing.assert_array_equal(a.means, b.means)
            np.testing.assert_array_equal(a.variances, b.variances)
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.var_floor, b.var_floor)
        for name in ("pca_detector", "pca_sixway"):
            a, b = getattr(bundle.second_pass, name), getattr(back.second_pass, name)
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.components, b.components)
        for name in ("sda_spsw", "sda_eyem", "sda_sixway"):
            a, b = getattr(bundle.second_pass, name), getattr(back.second_pass, name)
            assert a.window_length == b.window_length
            assert len(a.layers) == len(b.layers)
            for la, lb in zip(a.layers, b.layers):
                np.testing.assert_array_equal(la.w, lb.w)
                np.testing.assert_array_equal(la.b, lb.b)
                np.testing.assert_array_equal(la.b_prime, lb.b_prime)
            np.testing.assert_array_equal(a.out_w, b.out_w)
            np.testing.assert_array_equal(a.out_b, b.out_b)
        np.testing.assert_array_equal(bundle.bigram.probs, back.bigram.probs)

    def test_save_is_byte_deterministic(self, tmp_path):
        bundle = tiny_bundle()
        p1, p2 = str(tmp_path / "a.seqd"), str(tmp_path / "b.seqd")
        bundle.save(p1)
        bundle.save(p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_missing_entry_rejected(self, tmp_path):
        path, data = saved_tiny_bundle(tmp_path)
        meta, arrays = _unpack_payload(data[8:])
        del arrays["/second_pass/sda_eyem/out_w"]
        Path(path).write_bytes(data[:8] + payload(meta, arrays))
        with pytest.raises(DataError, match="sda_eyem/out_w"):
            Bundle.load(path)

    @pytest.mark.parametrize("key, value", [
        ("/second_pass/sda_spsw/window_length", "3"),
        ("/second_pass/sda_spsw/window_length", True),
        ("/second_pass/sda_spsw/window_length", 3.0),
        ("/second_pass/sda_sixway/window_length", None),
        ("/manifest", ["seed", 0]),
    ])
    def test_mistyped_leaf_rejected(self, tmp_path, key, value):
        path, data = saved_tiny_bundle(tmp_path)
        meta, arrays = _unpack_payload(data[8:])
        assert key in meta
        meta[key] = value
        Path(path).write_bytes(data[:8] + payload(meta, arrays))
        with pytest.raises(DataError, match=f"{key} must be "):
            Bundle.load(path)


def rewrite(path, data, **changes):
    """Save the payload of `data` with the named arrays replaced."""
    meta, arrays = _unpack_payload(data[8:])
    for key, fn in changes.items():
        arrays[key] = fn(arrays[key])
    Path(path).write_bytes(data[:8] + payload(meta, arrays))


class TestShapeCrossChecks:
    @pytest.mark.parametrize("key, fn, message", [
        ("/second_pass/pca_detector/components", lambda a: a[:, :131],
         r"/second_pass/pca_detector/components has shape \(3, 131\)"),
        ("/second_pass/pca_sixway/mean", lambda a: a[:131],
         r"/second_pass/pca_sixway/components has shape \(4, 132\) but mean "
         r"has shape \(131,\)"),
        ("/second_pass/sda_eyem/layers/1/w", lambda a: a[:, :3],
         r"/second_pass/sda_eyem/layers/1/b_prime has shape \(4,\), expected \(3,\)"),
        ("/second_pass/sda_sixway/layers/0/w", lambda a: a[:, :9],
         r"/second_pass/sda_sixway/layers/0/b_prime has shape \(12,\), expected \(9,\)"),
        ("/second_pass/sda_spsw/out_w", lambda a: a[:, :3],
         "/second_pass/sda_spsw/out_w has shape"),
        ("/hmm_models/GPED/weights", lambda a: a[:, :1],
         r"/hmm_models/GPED/weights has shape \(3, 1\), expected \(3, 2\)"),
    ])
    def test_mismatch_rejected(self, tmp_path, key, fn, message):
        path, data = saved_tiny_bundle(tmp_path)
        rewrite(path, data, **{key: fn})
        with pytest.raises(DataError, match=message):
            Bundle.load(path)

    def test_built_bundle_checked(self):
        # a bundle that load would refuse cannot be built, so training
        # cannot return one and save cannot write one
        good = tiny_bundle()
        rng = np.random.default_rng(2)
        models = dict(good.hmm_models)
        models[EventLabel.PLED] = init_model(
            EventLabel.PLED, rng.standard_normal((20, 10, 21)), 3, 2, seed=1)
        with pytest.raises(DataError, match=r"^hmm_models/PLED/means has shape "
                           r"\(3, 2, 21\), expected \(3, 2, 26\)"):
            Bundle(models, good.second_pass, good.bigram, good.manifest)
        second = SecondPassModels(
            good.second_pass.pca_detector, good.second_pass.pca_sixway,
            good.second_pass.sda_spsw, good.second_pass.sda_eyem,
            tiny_sda(rng, 5, outputs=6))
        with pytest.raises(DataError, match="second_pass/sda_sixway/layers/0/w"):
            Bundle(good.hmm_models, second, good.bigram, good.manifest)

    def test_model_of_other_dim_rejected(self, tmp_path):
        path, data = saved_tiny_bundle(tmp_path)
        cut = {f"/hmm_models/PLED/{name}": (lambda a: a[..., :25])
               for name in ("means", "variances", "var_floor")}
        rewrite(path, data, **cut)
        with pytest.raises(DataError, match="/hmm_models/PLED/means has shape"):
            Bundle.load(path)
