import struct

import numpy as np
import pytest

from seqdet.bundle import (MAGIC, VERSION, Bundle, BundleError, _pack_payload,
                           _unpack_payload)
from seqdet.features import FEATURE_DIM
from seqdet.grammar import default_bigram
from seqdet.hmm import init_model
from seqdet.labels import EventLabel
from seqdet.sda import (SUPERVECTOR_DIM, PcaModel, SdaModel, SecondPassModels,
                        init_stack)


def tiny_sda(rng, pca_dim, outputs=2, window=3):
    layers = init_stack(window * pca_dim, (4, 4), rng)
    return SdaModel(layers, rng.standard_normal((outputs, 4)),
                    rng.standard_normal(outputs), window, 0.3,
                    np.zeros(pca_dim), np.ones(pca_dim))


def tiny_bundle(seed=0):
    """Small models whose shapes chain as a trained bundle's do: 26-dim
    features, PCA from 132 supervector dims, each SdA fed by its PCA."""
    rng = np.random.default_rng(seed)
    epochs = rng.standard_normal((20, 10, FEATURE_DIM))
    models = {lab: init_model(lab, epochs, 3, 2, seed=int(lab))
              for lab in EventLabel}
    second = SecondPassModels(
        PcaModel(rng.standard_normal(SUPERVECTOR_DIM), np.eye(3, SUPERVECTOR_DIM)),
        PcaModel(rng.standard_normal(SUPERVECTOR_DIM), np.eye(4, SUPERVECTOR_DIM)),
        tiny_sda(rng, 3), tiny_sda(rng, 3), tiny_sda(rng, 4, outputs=6))
    return Bundle(models, second, default_bigram(),
                  {"seed": seed, "note": "test"})


class TestPayload:
    def test_round_trip(self):
        rng = np.random.default_rng(1)
        meta = {"a": 1, "b": "text", "c": [1, 2]}
        arrays = {"x": rng.standard_normal((3, 4)),
                  "y": rng.standard_normal(7),
                  "scalar": np.array(2.5)}
        m2, a2 = _unpack_payload(_pack_payload(meta, arrays))
        assert m2 == meta
        for k in arrays:
            np.testing.assert_array_equal(a2[k], arrays[k])

    def test_deterministic_bytes(self):
        arrays = {"x": np.arange(6.0).reshape(2, 3)}
        assert _pack_payload({"k": 1}, arrays) == _pack_payload({"k": 1}, arrays)

    def test_truncation_detected(self):
        buf = _pack_payload({}, {"x": np.zeros(5)})
        with pytest.raises(BundleError):
            _unpack_payload(buf[:-4])


def saved_tiny_bundle(tmp_path):
    path = str(tmp_path / "m.seqd")
    tiny_bundle().save(path)
    return path, open(path, "rb").read()


class TestContainer:
    def test_save_load_save_round_trip(self, tmp_path):
        path, data = saved_tiny_bundle(tmp_path)
        again = str(tmp_path / "again.seqd")
        Bundle.load(path).save(again)
        assert open(again, "rb").read() == data

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.seqd"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(BundleError, match="not a SEQD bundle"):
            Bundle.load(str(path))

    def test_version_checked(self, tmp_path):
        path, data = saved_tiny_bundle(tmp_path)
        for version in (1, 99):
            open(path, "wb").write(MAGIC + struct.pack("<I", version) + data[8:])
            with pytest.raises(BundleError, match=f"container version {version}"):
                Bundle.load(path)

    def test_truncated_payload(self, tmp_path):
        path, data = saved_tiny_bundle(tmp_path)
        open(path, "wb").write(data[:-10])
        with pytest.raises(BundleError, match="truncated"):
            Bundle.load(path)

    # every length below 64 (inside the header and the metadata length),
    # then 50 lengths spread over the rest of the file
    @pytest.mark.parametrize("cut", range(64 + 50))
    def test_every_truncation_rejected(self, tmp_path, cut):
        path, data = saved_tiny_bundle(tmp_path)
        length = cut if cut < 64 else int(
            np.linspace(64, len(data) - 1, 50)[cut - 64])
        open(path, "wb").write(data[:length])
        with pytest.raises(BundleError):
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
            assert b.label == lab
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
            assert a.corruption == b.corruption
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
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_missing_entry_rejected(self, tmp_path):
        path, data = saved_tiny_bundle(tmp_path)
        meta, arrays = _unpack_payload(data[8:])
        del arrays["/second_pass/sda_eyem/out_w"]
        open(path, "wb").write(data[:8] + _pack_payload(meta, arrays))
        with pytest.raises(BundleError, match="sda_eyem/out_w"):
            Bundle.load(path)

    @pytest.mark.parametrize("key, value", [
        ("/second_pass/sda_spsw/window_length", "3"),
        ("/second_pass/sda_spsw/window_length", True),
        ("/second_pass/sda_spsw/window_length", 3.0),
        ("/second_pass/sda_sixway/corruption", "0.3"),
        ("/manifest", ["seed", 0]),
    ])
    def test_mistyped_leaf_rejected(self, tmp_path, key, value):
        path, data = saved_tiny_bundle(tmp_path)
        meta, arrays = _unpack_payload(data[8:])
        assert key in meta
        meta[key] = value
        open(path, "wb").write(data[:8] + _pack_payload(meta, arrays))
        with pytest.raises(BundleError, match=f"{key} must be "):
            Bundle.load(path)

    def test_int_accepted_for_float_leaf(self, tmp_path):
        path, data = saved_tiny_bundle(tmp_path)
        meta, arrays = _unpack_payload(data[8:])
        meta["/second_pass/sda_eyem/corruption"] = 1
        open(path, "wb").write(data[:8] + _pack_payload(meta, arrays))
        assert Bundle.load(path).second_pass.sda_eyem.corruption == 1


def rewrite(path, data, **changes):
    """Save the payload of `data` with the named arrays replaced."""
    meta, arrays = _unpack_payload(data[8:])
    for key, fn in changes.items():
        arrays[key] = fn(arrays[key])
    open(path, "wb").write(data[:8] + _pack_payload(meta, arrays))


class TestShapeCrossChecks:
    @pytest.mark.parametrize("key, fn, message", [
        ("/second_pass/pca_detector/components", lambda a: a[:, :131],
         r"/second_pass/pca_detector/components has shape \(3, 131\)"),
        ("/second_pass/pca_sixway/mean", lambda a: a[:131],
         "/second_pass/pca_sixway/mean has shape"),
        ("/second_pass/sda_eyem/layers/1/w", lambda a: a[:, :3],
         r"/second_pass/sda_eyem/layers/1/w has shape \(4, 3\), expected \(4, 4\)"),
        ("/second_pass/sda_sixway/layers/0/w", lambda a: a[:, :9],
         "/second_pass/sda_sixway/layers/0/w has shape"),
        ("/second_pass/sda_spsw/out_w", lambda a: a[:, :3],
         "/second_pass/sda_spsw/out_w has shape"),
        ("/hmm_models/GPED/weights", lambda a: a[:, :1],
         r"/hmm_models/GPED: weights has shape \(3, 1\), expected \(3, 2\)"),
    ])
    def test_mismatch_rejected(self, tmp_path, key, fn, message):
        path, data = saved_tiny_bundle(tmp_path)
        rewrite(path, data, **{key: fn})
        with pytest.raises(BundleError, match=message):
            Bundle.load(path)

    def test_model_of_other_dim_rejected(self, tmp_path):
        path, data = saved_tiny_bundle(tmp_path)
        cut = {f"/hmm_models/PLED/{name}": (lambda a: a[..., :25])
               for name in ("means", "variances", "var_floor")}
        rewrite(path, data, **cut)
        with pytest.raises(BundleError, match="/hmm_models/PLED/means has shape"):
            Bundle.load(path)
