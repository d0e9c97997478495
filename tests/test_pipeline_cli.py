import functools
import importlib.util
import json
import logging
import os
import re
import subprocess
import sys
import tracemalloc
import typing
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdet import (cli, evaluation, grammar, hmm, parallel, pipeline, sda,
                    signal_io, synth)
from seqdet.bundle import MAGIC, VERSION, Bundle, _flatten, _unpack_payload
from seqdet.errors import DataError
from seqdet.features import extract_features
from seqdet.grammar import GrammarParams
from seqdet.hmm import HmmConfig
from seqdet.labels import LABEL_NAMES, TARGET_CLASSES, EventLabel
from seqdet.pipeline import (PipelineConfig, load_config, read_posterior_csv,
                             train_pipeline, write_posterior_csv,
                             decode_recording, score_files)
from seqdet.sda import SdaConfig
from tests.test_bundle import payload
from tests.test_hmm import cells_reference, default_shape_models
from tests.test_sda import default_shape_second_pass
from tests.test_signal_io import read_whole, write_edf

FAST_DET = SdaConfig("spsw", window_length=3, hidden=(16, 16), outputs=2,
                     pretrain_epochs=10, pretrain_batch=64,
                     finetune_epochs=40, finetune_batch=32)
FAST_EYEM = SdaConfig("eyem", window_length=3, hidden=(16, 16), outputs=2,
                      pretrain_epochs=10, pretrain_batch=64,
                      finetune_epochs=40, finetune_batch=32)
FAST_SIX = SdaConfig("6way", window_length=5, hidden=(32, 16), outputs=6,
                     pretrain_epochs=10, pretrain_batch=64,
                     finetune_epochs=60, finetune_batch=32)

FAST_CONFIG = PipelineConfig(
    hmm=HmmConfig(num_components=2, max_iterations=4, seed=0),
    sda_spsw=FAST_DET, sda_eyem=FAST_EYEM, sda_sixway=FAST_SIX,
    grammar=GrammarParams(iterations=5),
    bigram_source="estimate", seed=7)


# A training config whose grammar differs from the defaults.
CUSTOM_CONFIG = replace(
    FAST_CONFIG, grammar=GrammarParams(decay=0.5, iterations=3, window=6))

_pos_ints = st.integers(1, 10_000)
_weights = st.floats(0.0, 100.0)


def _sda_configs(outputs):
    return st.builds(
        sda.SdaConfig, name=st.text(max_size=6), window_length=_pos_ints,
        hidden=st.lists(_pos_ints, min_size=1, max_size=4).map(tuple),
        outputs=st.just(outputs), corruption=st.floats(0.0, 1.0),
        pretrain_lr=_weights, pretrain_epochs=_pos_ints,
        pretrain_batch=_pos_ints, finetune_lr=_weights,
        finetune_epochs=_pos_ints, finetune_batch=_pos_ints)


# Every valid config: the ranges stop where the configs' own checks do (at
# most one HMM state per frame of an epoch).
_configs = st.builds(
    PipelineConfig,
    hmm=st.builds(HmmConfig, num_states=st.integers(1, 10),
                  num_components=_pos_ints,
                  max_iterations=_pos_ints, tol_per_frame=_weights,
                  seed=st.integers(0, 2**32)),
    sda_spsw=_sda_configs(2), sda_eyem=_sda_configs(2),
    sda_sixway=_sda_configs(6),
    grammar=st.builds(GrammarParams, epsilon_prior=_weights, decay=_weights,
                      alpha=_weights, gamma=_weights, iterations=_pos_ints,
                      window=_pos_ints),
    # an empty montage_path reads back as None (no montage)
    montage_path=st.none() | st.text(min_size=1),
    bigram_source=st.sampled_from(["table1", "estimate"]),
    seed=st.integers(0, 2**32), augment_cap=_pos_ints,
    pca_detector_dim=st.integers(1, 132), pca_sixway_dim=st.integers(1, 132))

# The smallest models `seqdet train --config` can fit in a few seconds.
TINY_INI = (
    "[hmm]\nnum_components = 2\nmax_iterations = 2\n"
    "[sda.spsw]\nhidden = 8,8\npretrain_epochs = 2\nfinetune_epochs = 5\n"
    "[sda.eyem]\nhidden = 8,8\npretrain_epochs = 2\nfinetune_epochs = 5\n"
    "[sda.6way]\nhidden = 8,8\nwindow_length = 3\npretrain_epochs = 2\n"
    "finetune_epochs = 5\n")


def one_line_data_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1
    return err


# Output D<i> of the montage the streamed-input tests use: CH<i> minus a
# channel five rows on (even i), or a plain copy of CH<21 - i> (odd i), so a
# block's inputs are neither contiguous nor inside the block.
STREAM_MONTAGE = signal_io.MontageSpec(tuple(
    (f"D{i}", f"CH{i}", f"CH{(i + 5) % 22}") if i % 2 == 0 else
    (f"D{i}", f"CH{21 - i}", None) for i in range(22)))


def streamed_input(kind, corpus, tmp_path, seconds=30):
    """The eval clip, repeated to `seconds` s, as one of the inputs a decode
    streams: a raw matrix ("raw"), a raw matrix read through STREAM_MONTAGE
    ("montage"), a raw matrix declared at 256 Hz that is resampled
    ("resampled"), or an EDF file ("edf"). Returns its path and montage."""
    rec, data = read_whole(corpus["eval"][0])
    data = np.tile(data, -(-seconds // 30))[:, :seconds * 250]
    if kind == "edf":
        path = str(tmp_path / "clip.edf")
        write_edf(path, np.round(data * 10).clip(-32768, 32767), rate=250,
                  phys=(-3276.8, 3276.7))
        return path, None
    path = str(tmp_path / "clip.rm")
    rate = 256.0 if kind == "resampled" else 250.0
    signal_io.write_recording(signal_io.Recording.of(data, rec.labels, rate), path)
    return path, STREAM_MONTAGE if kind == "montage" else None


def with_montage(bundle, montage):
    manifest = dict(bundle.manifest, montage=montage and [
        list(d) for d in montage.derivations])
    return Bundle(bundle.hmm_models, bundle.second_pass, bundle.bigram, manifest)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    train_script = synth.balanced_script(5, 2, seed=1)
    eval_script = synth.balanced_script(5, 1, seed=2)
    paths = {}
    for name, script, seed in (("train", train_script, 3),
                               ("eval", eval_script, 4)):
        rec, ann = synth.generate(script, seed=seed)
        rec_path = str(root / f"{name}.rm")
        ann_path = str(root / f"{name}.csv")
        signal_io.write_recording(rec, rec_path)
        signal_io.write_annotations(ann, ann_path)
        paths[name] = (rec_path, ann_path)
    return paths


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    bundle = train_pipeline(FAST_CONFIG, [corpus["train"]])
    path = str(tmp_path_factory.mktemp("bundle") / "model.seqd")
    bundle.save(path)
    return bundle, path


@pytest.fixture(scope="module")
def one_cpu_decode(trained, corpus, tmp_path_factory):
    """For an input kind and a length in seconds (streamed_input): the
    bundle to decode it with, its path, and its decode on one CPU, each made
    once."""
    root = tmp_path_factory.mktemp("inputs")

    @functools.cache
    def make(kind, seconds):
        tmp = root / f"{kind}-{seconds}"
        tmp.mkdir()
        path, montage = streamed_input(kind, corpus, tmp, seconds)
        bundle = with_montage(trained[0], montage)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel, "cpus", lambda: 1)
            return bundle, path, decode_recording(bundle, path)

    return make


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.bigram_source == "table1"
        assert cfg.pca_detector_dim == 13
        assert cfg.pca_sixway_dim == 20
        assert cfg.sda_sixway.window_length == 41
        assert cfg.sda_sixway.hidden == (800, 500, 300)
        assert cfg.sda_spsw.window_length == 3
        assert cfg.sda_spsw.hidden == (100, 100, 100)

    def test_hash_changes_with_config(self):
        a = PipelineConfig()
        b = PipelineConfig(seed=1)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == PipelineConfig().config_hash()

    def test_load_ini(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[pipeline]\nseed = 11\nbigram_source = estimate\n"
            "[hmm]\nnum_components = 4\n"
            "[grammar]\ndecay = 0.3\n"
            "[sda.6way]\nhidden = 64,32\nfinetune_epochs = 10\n")
        cfg = load_config(str(path))
        assert cfg.seed == 11
        assert cfg.bigram_source == "estimate"
        assert cfg.hmm.num_components == 4
        assert cfg.hmm.num_states == 3  # untouched default
        assert cfg.grammar.decay == 0.3
        assert cfg.sda_sixway.hidden == (64, 32)
        assert cfg.sda_sixway.finetune_epochs == 10
        assert cfg.sda_spsw.hidden == (100, 100, 100)

    def test_load_ini_every_section(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[pipeline]\nseed = 11\npca_sixway_dim = 12\npca_detector_dim = 9\n"
            "augment_cap = 50\nmontage_path =\n"
            "[hmm]\nseed = 4\nnum_components = 4\n"
            "[grammar]\ndecay = 0.3\n"
            "[sda.spsw]\nfinetune_epochs = 12\n"
            "[sda.eyem]\ncorruption = 0.2\n"
            "[sda.6way]\nhidden = 64, 32\n")
        default = PipelineConfig()
        assert load_config(str(path)) == replace(
            default, seed=11, pca_sixway_dim=12, pca_detector_dim=9,
            augment_cap=50, montage_path=None,
            hmm=replace(default.hmm, seed=4, num_components=4),
            grammar=replace(default.grammar, decay=0.3),
            sda_spsw=replace(default.sda_spsw, finetune_epochs=12),
            sda_eyem=replace(default.sda_eyem, corruption=0.2),
            sda_sixway=replace(default.sda_sixway, hidden=(64, 32)))

    @pytest.mark.parametrize("section,key,value", [
        ("pipeline", "seed", "abc"),
        ("hmm", "tol_per_frame", "small"),
        ("sda.6way", "hidden", "64,x"),
        ("grammar", "iterations", "2.5"),
    ])
    def test_bad_value_names_section_and_key(self, tmp_path, section, key,
                                             value):
        path = tmp_path / "c.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(DataError, match=rf"\[{section}\] {key}"):
            load_config(str(path))

    def test_malformed_ini(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("seed = 3\n")
        with pytest.raises(DataError):
            load_config(str(path))

    @settings(max_examples=60, deadline=None)
    @given(_configs)
    def test_from_dict_inverts_to_dict(self, cfg):
        for d in (cfg.to_dict(), json.loads(json.dumps(cfg.to_dict()))):
            back = PipelineConfig.from_dict(d)
            assert back == cfg
            assert back.config_hash() == cfg.config_hash()

    def test_from_dict_rejects_bad_json_values(self):
        for bad in ({"seed": 1.5}, {"seed": True}, {"hmm": 3},
                    {"sda_sixway": {"hidden": 64}},
                    {"frame": {"bogus": 1}}, {"bogus": 1}):
            with pytest.raises(DataError):
                PipelineConfig.from_dict(bad)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[bogus]\nx = 1\n")
        with pytest.raises(DataError):
            load_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[hmm]\nbogus = 1\n")
        with pytest.raises(DataError):
            load_config(str(path))

    def test_bad_bigram_source(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[pipeline]\nbigram_source = wrong\n")
        with pytest.raises(DataError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(DataError):
            load_config("/nonexistent/config.ini")

    def test_field_types_resolved_once_per_class(self, trained, corpus,
                                                 monkeypatch):
        bundle, _ = trained
        calls = []
        resolve = typing.get_type_hints

        def counted(cls, *args, **kwargs):
            calls.append(cls)
            return resolve(cls, *args, **kwargs)

        monkeypatch.setattr(typing, "get_type_hints", counted)
        pipeline._field_types.cache_clear()
        for _ in range(20):
            decode_recording(bundle, corpus["eval"][0], stop_after=1)
        assert len(calls) == len(set(calls))
        assert set(calls) == {PipelineConfig, HmmConfig, SdaConfig, GrammarParams}

    def test_cached_parse_equals_uncached(self):
        cfg = replace(FAST_CONFIG, seed=3, montage_path="m.txt")
        for data in (cfg.to_dict(), json.loads(json.dumps(cfg.to_dict()))):
            pipeline._field_types.cache_clear()
            cold = PipelineConfig.from_dict(data)
            assert PipelineConfig.from_dict(data) == cold == cfg
        for cls in (PipelineConfig, HmmConfig, SdaConfig, GrammarParams):
            assert dict(pipeline._field_types(cls)) == typing.get_type_hints(cls)

    @pytest.mark.parametrize("data, section, key", [
        ({"seed": "abc"}, "pipeline", "seed"),
        ({"hmm": {"tol_per_frame": "small"}}, "hmm", "tol_per_frame"),
        ({"sda_sixway": {"hidden": "64,x"}}, "sda.6way", "hidden"),
        ({"grammar": {"iterations": "2.5"}}, "grammar", "iterations"),
    ])
    def test_bad_value_with_warm_cache_names_section_and_key(self, data,
                                                             section, key):
        PipelineConfig.from_dict(PipelineConfig().to_dict())
        with pytest.raises(DataError, match=rf"\[{section}\] {key}"):
            PipelineConfig.from_dict(data)


class TestTraining:
    def test_manifest(self, trained, corpus):
        bundle, _ = trained
        m = bundle.manifest
        assert m["seed"] == 7
        assert m["config_hash"] == FAST_CONFIG.config_hash()
        assert os.path.basename(corpus["train"][0]) in m["data"]
        assert len(m["data"][os.path.basename(corpus["train"][0])]) == 64

    def test_all_models_present(self, trained):
        bundle, _ = trained
        assert set(bundle.hmm_models) == set(EventLabel)
        assert bundle.second_pass.pca_detector.out_dim == 13
        assert bundle.second_pass.pca_sixway.out_dim == 20
        np.testing.assert_allclose(bundle.bigram.probs.sum(axis=1), 1.0)

    def test_bundle_stores_sda_arrays_as_f4(self, trained):
        # the SdA parameters train in float32 and the container stores them
        # as little-endian f4; the HMM, PCA, scaling and bigram arrays are
        # float64 and stored as f8. Every array loads as float64, equal to
        # the trained values
        bundle, path = trained
        meta, arrays = {}, {}
        _flatten(bundle, Bundle, "", meta, arrays)
        with open(path, "rb") as f:
            buf = f.read()
        assert buf[:8] == MAGIC + VERSION.to_bytes(4, "little")
        stored = _unpack_payload(buf[8:])[1]
        assert stored.keys() == arrays.keys()
        sda_param = re.compile(r"/second_pass/sda_\w+/(layers/\d+/\w+|out_[wb])$")
        assert sum(bool(sda_param.match(name)) for name in stored) == 3 * (2 * 3 + 2)
        for name, a in stored.items():
            f4 = bool(sda_param.match(name))
            assert a.dtype == np.dtype("<f4" if f4 else "<f8"), name
            assert arrays[name].dtype == (np.float32 if f4 else np.float64)
            assert a.tobytes() == arrays[name].tobytes()
        loaded = {}
        _flatten(Bundle.load(path), Bundle, "", {}, loaded)
        for name, a in loaded.items():
            assert a.dtype == np.float64
            np.testing.assert_array_equal(a, arrays[name])

    def test_load_then_save_writes_the_same_bytes(self, corpus, tmp_path):
        # a trained bundle, loaded (every array float64) and saved again:
        # the f4 arrays are found exact again, so the file is the same
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(TINY_INI)
        first, again = str(tmp_path / "m.seqd"), str(tmp_path / "again.seqd")
        assert cli.main(["train", corpus["train"][0], "--config", str(cfg_path),
                         "--out", first]) == 0
        Bundle.load(first).save(again)
        assert Path(again).read_bytes() == Path(first).read_bytes()

    def test_sdas_train_on_the_windows_decode_builds(self, corpus, monkeypatch):
        # each SdA's training rows start with the windows that decoding the
        # training recording builds for it, scaled and windowed; the
        # detectors' synthetic minority windows follow
        seen, pretrain = {}, sda.pretrain

        def capture(stack, x, cfg, rng):
            seen[cfg.name] = np.array(x)
            return pretrain(stack, x, cfg, rng)

        monkeypatch.setattr(sda, "pretrain", capture)
        quick = {key: replace(getattr(FAST_CONFIG, key), pretrain_epochs=1,
                              finetune_epochs=1)
                 for key in ("sda_spsw", "sda_eyem", "sda_sixway")}
        bundle = train_pipeline(replace(FAST_CONFIG, **quick), [corpus["train"]])
        second = bundle.second_pass
        rec = pipeline.load_recording(corpus["train"][0], None)
        grid = extract_features(rec.rows(0, len(rec.labels)))
        sv = sda.supervector_sequence(hmm.decode_pass1(grid, bundle.hmm_models))
        det = sda.reduce_sequence_for_detectors(second.pca_detector.project(sv))
        for name, model, seq in (("spsw", second.sda_spsw, det),
                                 ("eyem", second.sda_eyem, det),
                                 ("6way", second.sda_sixway,
                                  second.pca_sixway.project(sv))):
            want = sda.make_windows(
                sda.scale_input(seq, model.scale_min, model.scale_max),
                model.window_length)
            np.testing.assert_array_equal(seen[name][:len(want)], want)
        assert len(seen["6way"]) == len(want)

    def test_table1_train_logs_nothing_from_grammar(self, corpus, caplog):
        # the table1 source is a constant, normalized once at import
        with caplog.at_level(logging.DEBUG, logger="seqdet.grammar"):
            bundle = train_pipeline(replace(FAST_CONFIG, bigram_source="table1"),
                                    [corpus["train"]])
        assert not [r for r in caplog.records if r.name == "seqdet.grammar"]
        np.testing.assert_array_equal(bundle.bigram.probs,
                                      grammar.TABLE1_BIGRAM.probs)

    def test_missing_class_rejected(self, tmp_path):
        script = [synth.ScriptEntry(EventLabel.BCKG, 30.0, None)]
        rec, ann = synth.generate(script, seed=5)
        rp, ap = str(tmp_path / "r.rm"), str(tmp_path / "r.csv")
        signal_io.write_recording(rec, rp)
        signal_io.write_annotations(ann, ap)
        with pytest.raises(DataError):
            train_pipeline(FAST_CONFIG, [(rp, ap)])

    def test_no_training_data_rejected(self):
        with pytest.raises(DataError, match="missing classes"):
            train_pipeline(FAST_CONFIG, [])


class TestPass1Corpus:
    def test_equals_reference_cells_per_class(self, corpus):
        rec_path, ann_path = corpus["train"]
        rec = pipeline.load_recording(rec_path, None)
        grid = extract_features(rec.rows(0, len(rec.labels)))
        ann = signal_io.read_annotations(ann_path)
        assert grid.num_frames % grid.frames_per_epoch  # a partial epoch
        refs = evaluation.channel_epoch_reference_labels(
            ann, grid.num_epochs, grid.num_channels)
        cells = cells_reference(grid)
        got = pipeline._pass1_corpus([grid, grid], [ann, ann])
        for lab in EventLabel:
            want = cells[refs == int(lab)]
            np.testing.assert_array_equal(got[lab], np.concatenate([want, want]))
            assert got[lab].flags.c_contiguous


class TestLoadRecording:
    @pytest.mark.parametrize("kind", ["montage", "resampled", "edf"])
    def test_blocks_equal_the_whole_recording(self, corpus, tmp_path, kind):
        # the whole recording read at once, then resampled and derived, as
        # every stage ran before a decode read its rows a block at a time
        rec_path, montage = streamed_input(kind, corpus, tmp_path)
        source, whole = read_whole(rec_path)
        rate, labels = source.sample_rate_hz, source.labels
        if rate != 250.0:
            whole, rate = signal_io.resample(whole, rate, 250.0), 250.0
        if montage is not None:
            whole = signal_io.apply_montage(whole, labels, montage)
            labels = tuple(out for out, _, _ in montage.derivations)
        rec = pipeline.load_recording(rec_path, montage)
        assert (rec.labels, rec.sample_rate_hz, rec.num_samples) == (
            labels, rate, whole.shape[1])
        for size in (1, 3, 7, 22):
            blocks = [rec.rows(lo, lo + size) for lo in range(0, 22, size)]
            np.testing.assert_array_equal(np.concatenate(blocks), whole)
        np.testing.assert_array_equal(rec.read([17, 2, 9]), whole[[17, 2, 9]])

    @pytest.mark.parametrize("rate", [0.25, 99.9, 249.8, 500e3])
    def test_every_ratio_up_to_1000_resamples(self, corpus, tmp_path, rate):
        # the refusal at open bounds the ratio, not its terms: 99.9 Hz is
        # 2500/999, and 0.25 Hz and 500 kHz are the ratios 1000 and 1/1000
        rec, data = read_whole(corpus["eval"][0])
        path = str(tmp_path / "clip.rm")
        signal_io.write_recording(
            signal_io.Recording.of(data[:, :600], rec.labels, rate), path)
        got = pipeline.load_recording(path, None)
        length = signal_io.resampled_length(600, rate, 250.0)
        assert (got.sample_rate_hz, got.num_samples) == (250.0, length)
        row = got.rows(0, 1)
        assert row.shape == (1, length) and np.isfinite(row).all()

    def test_train_reads_the_whole_recording_once(self, corpus, monkeypatch):
        reads = []
        real_open = signal_io.open_recording

        def counting_open(path):
            rec = real_open(path)
            return replace(rec, read=lambda index: (
                reads.append(index), rec.read(index))[1])

        monkeypatch.setattr(signal_io, "open_recording", counting_open)
        train_pipeline(replace(FAST_CONFIG, hmm=replace(FAST_CONFIG.hmm,
                                                        max_iterations=1)),
                       [corpus["train"]])
        assert reads == [list(range(22))]


class TestDecoding:
    def test_stop_after_shapes(self, trained, corpus):
        bundle, _ = trained
        rec_path = corpus["eval"][0]
        hyp1, d1 = decode_recording(bundle, rec_path, stop_after=1)
        assert d1["pass1"].shape == (30, 22, 6)
        assert "pass2" not in d1
        # pass-1 hypothesis is per channel
        assert {ev.channel for ev in hyp1.events} == set(range(22))

        hyp2, d2 = decode_recording(bundle, rec_path, stop_after=2)
        assert d2["pass2"].shape == (30, 6)
        assert all(ev.channel == signal_io.ALL_CHANNELS for ev in hyp2.events)

        hyp3, d3 = decode_recording(bundle, rec_path, stop_after=3)
        assert set(d3) == {"pass1", "pass2", "pass3"}
        # hypothesis covers the full recording with contiguous runs
        events = sorted(hyp3.events, key=lambda e: e.start_s)
        assert events[0].start_s == 0.0
        assert events[-1].stop_s == 30.0
        for a, b in zip(events, events[1:]):
            assert a.stop_s == b.start_s

    def test_decode_holds_one_block_of_the_recording(self, trained, tmp_path,
                                                     monkeypatch):
        # 10 min of 22 channels on 2 CPUs: groups of one channel, which the
        # caller and a helper decode in turn. Each holds one channel's rows,
        # its features and its pass-1 buffers at a time; the recording's
        # matrix alone would be 26.4 MB, so a peak under three quarters of
        # it (19.8 MB) shows that the matrix never exists. The HMMs have the
        # default shapes
        monkeypatch.setattr(parallel, "cpus", lambda: 2)
        rng = np.random.default_rng(36)
        data = rng.standard_normal((22, 150000)) * 30
        path = str(tmp_path / "long.rm")
        signal_io.write_recording(signal_io.Recording.of(
            data, tuple(f"CH{i}" for i in range(22)), 250.0), path)
        bundle = trained[0]
        bundle = Bundle(default_shape_models(rng, 26), bundle.second_pass,
                        bundle.bigram, bundle.manifest)
        recording_bytes = data.nbytes
        del data
        tracemalloc.start()
        try:
            _, dumps = decode_recording(bundle, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dumps["pass1"].shape == (600, 22, 6)
        assert peak < 0.75 * recording_bytes

    @pytest.mark.parametrize("seconds", [30, 31, 45, 252])
    @pytest.mark.parametrize("kind", ["raw", "montage", "resampled", "edf"])
    @settings(max_examples=10, deadline=None)
    @given(cpus=st.integers(1, 4))
    def test_outputs_equal_for_any_cpu_count(self, one_cpu_decode, kind, seconds,
                                             cpus):
        # 22 channels in 2 frontend groups up to 45 s, which one worker
        # decodes, and in 11 groups of 2 at 252 s (246 s resampled), which
        # 2 to 4 workers split unevenly; 31 epochs are 682 cells, whose
        # frames x cells are no multiple of 8
        bundle, path, want = one_cpu_decode(kind, seconds)
        assert not np.isnan(want[1]["pass1"]).any()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel, "cpus", lambda: cpus)
            hyp, dumps = decode_recording(bundle, path)
        assert hyp == want[0]
        assert dumps.keys() == want[1].keys()
        for name, post in dumps.items():
            np.testing.assert_array_equal(post, want[1][name])

    @pytest.mark.parametrize("case", ["30", "31", "montage", "resampled", "edf"])
    def test_outputs_equal_for_any_block_size(self, trained, corpus, tmp_path,
                                              monkeypatch, case):
        # 30 and 31 s raw matrices, and the 30 s clip as each streamed input,
        # decoded in groups of 1, 3, 7 and 22 channels in place of the
        # frontend's 16 + 6; 31 epochs are 682 cells: whole-grid and group
        # chunks whose frames x cells are no multiple of 8
        if case.isdigit():
            rec_path, montage = streamed_input("raw", corpus, tmp_path, int(case))
        else:
            rec_path, montage = streamed_input(case, corpus, tmp_path)
        bundle = with_montage(trained[0], montage)
        bundle_path = str(tmp_path / "model.seqd")
        bundle.save(bundle_path)
        names = ["clip.hyp.csv"] + [f"clip.pass{k}.csv" for k in (1, 2, 3)]
        outputs, posts = [], []
        for size in (1, 3, 7, 22):
            monkeypatch.setattr(pipeline, "_group", lambda channels, frames: size)
            out_dir = tmp_path / str(size)
            assert cli.main(["decode", bundle_path, rec_path, "--out-dir",
                             str(out_dir), "--dump-posteriors"]) == 0
            outputs.append([(out_dir / name).read_bytes() for name in names])
            posts.append(decode_recording(bundle, rec_path)[1])
        epochs = int(case) if case.isdigit() else 30
        assert posts[0]["pass1"].shape == (epochs, 22, 6)
        for other, dumps in zip(outputs[1:], posts[1:]):
            assert other == outputs[0]
            for name, post in dumps.items():
                np.testing.assert_array_equal(post, posts[0][name])

    def test_decode_deterministic(self, trained, corpus):
        bundle, _ = trained
        h1, _ = decode_recording(bundle, corpus["eval"][0])
        h2, _ = decode_recording(bundle, corpus["eval"][0])
        assert h1.events == h2.events

    def test_loaded_bundle_matches_in_memory(self, trained, corpus):
        bundle, path = trained
        h1, _ = decode_recording(bundle, corpus["eval"][0])
        h2, _ = decode_recording(Bundle.load(path), corpus["eval"][0])
        assert h1.events == h2.events

    def test_decode_uses_bundle_config(self, corpus):
        # decode reads the grammar settings from the bundle
        bundle = train_pipeline(CUSTOM_CONFIG, [corpus["train"]])
        _, dumps = decode_recording(bundle, corpus["eval"][0])

        def pass3(params):
            return grammar.decode_pass3(dumps["pass2"], bundle.bigram,
                                        params)[1]

        np.testing.assert_array_equal(dumps["pass3"],
                                      pass3(CUSTOM_CONFIG.grammar))
        assert not np.array_equal(dumps["pass3"], pass3(GrammarParams()))

    def test_bad_stop_after(self, trained, corpus):
        bundle, _ = trained
        with pytest.raises(DataError):
            decode_recording(bundle, corpus["eval"][0], stop_after=4)

    def test_montage_embedded_in_bundle(self, corpus, tmp_path):
        montage = tmp_path / "bipolar.csv"
        montage.write_text("".join(f"D{i},CH{i},CH{(i + 1) % 22}\n"
                                   for i in range(22)))
        config = replace(FAST_CONFIG, montage_path=str(montage))
        path = str(tmp_path / "m.seqd")
        train_pipeline(config, [corpus["train"]]).save(path)
        rec_path = corpus["eval"][0]
        before, dumps = decode_recording(Bundle.load(path), rec_path)
        os.remove(montage)
        bundle = Bundle.load(path)
        assert len(bundle.manifest["montage"]) == 22
        after, _ = decode_recording(bundle, rec_path)
        assert after.events == before.events
        # the embedded montage is applied: decoding without it differs
        bundle.manifest["montage"] = None
        _, plain = decode_recording(bundle, rec_path, stop_after=1)
        assert not np.array_equal(plain["pass1"], dumps["pass1"])


def posterior_csv_reference(posteriors):
    """write_posterior_csv's bytes, formatted one value at a time."""
    lines = []
    if posteriors.ndim == 3:
        lines.append("epoch,channel," + ",".join(LABEL_NAMES))
        for e in range(posteriors.shape[0]):
            for c in range(posteriors.shape[1]):
                vals = ",".join(f"{v:.10g}" for v in posteriors[e, c])
                lines.append(f"{e},{c},{vals}")
    else:
        lines.append("epoch," + ",".join(LABEL_NAMES))
        for e in range(posteriors.shape[0]):
            lines.append(f"{e}," + ",".join(f"{v:.10g}" for v in posteriors[e]))
    return ("\n".join(lines) + "\n").encode()


class TestPosteriorCsv:
    @pytest.mark.parametrize("shape", [(12, 3, 6), (11, 6), (0, 6), (0, 2, 6)])
    def test_bytes_match_per_value_format(self, tmp_path, shape):
        rng = np.random.default_rng(2)
        p = rng.random(shape)
        p.flat[:5] = [0.0, 1e-300, 1 - 1e-12, 1.0, 5e-324][:p.size]
        path = tmp_path / "p.csv"
        write_posterior_csv(str(path), p)
        assert path.read_bytes() == posterior_csv_reference(p)

    def test_epoch_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        p = rng.random((7, 6))
        path = str(tmp_path / "p.csv")
        write_posterior_csv(path, p)
        np.testing.assert_allclose(read_posterior_csv(path), p, atol=1e-9)

    def test_grid_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        p = rng.random((4, 3, 6))
        path = str(tmp_path / "p.csv")
        write_posterior_csv(path, p)
        np.testing.assert_allclose(read_posterior_csv(path), p, atol=1e-9)

    @pytest.mark.parametrize("change, passes", [
        ("none", True), ("last bit", True), ("one unit", True),
        ("two units", False), ("shape", False), ("hypothesis", False),
        ("missing", False)])
    def test_compare_dumps(self, tmp_path, change, passes):
        # tools/compare_dumps.py: hypothesis files byte-equal, and posteriors
        # within one unit in the tenth significant digit of the larger value
        spec = importlib.util.spec_from_file_location(
            "compare_dumps", Path(__file__).parents[1] / "tools" / "compare_dumps.py")
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        p = np.random.default_rng(3).uniform(0.1, 0.9, (5, 2, 6))
        p[0, 0, 0] = 0.0
        q = {"none": p, "last bit": np.nextafter(p, 1.0),
             "one unit": p * (1 + 1e-10), "two units": p * (1 + 2.2e-9),
             "shape": p[:4], "hypothesis": p, "missing": p}[change]
        for name, arr in (("a", p), ("b", q)):
            (tmp_path / name).mkdir()
            write_posterior_csv(str(tmp_path / name / "r.pass1.csv"), arr)
            if not (name == "b" and change == "missing"):
                write_posterior_csv(str(tmp_path / name / "r.pass2.csv"), arr[:, 0])
            (tmp_path / name / "r.hyp.csv").write_text(
                "x\n" if name == "b" and change == "hypothesis" else "")
        assert tool.main([str(tmp_path / "a"), str(tmp_path / "b")]) == (0 if passes else 1)

    @pytest.mark.parametrize("edit", ["drop", "repeat", "swap"])
    def test_grid_rows_out_of_write_order_rejected(self, tmp_path, edit):
        path = tmp_path / "p.csv"
        write_posterior_csv(str(path), np.full((4, 3, 6), 1 / 6))
        header, *rows = path.read_text().splitlines()
        rows = {"drop": rows[:5] + rows[6:], "repeat": rows[:6] + rows[5:],
                "swap": rows[:4] + rows[5:6] + rows[4:5] + rows[6:]}[edit]
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(DataError, match="numbered in order"):
            read_posterior_csv(str(path))


class TestScoreFiles:
    def test_perfect_hypothesis(self, corpus, tmp_path):
        ref = corpus["eval"][1]
        matrix, summary = score_files(ref, ref, "six_way", "per_epoch")
        pct = matrix.percentages()
        diag = np.diag(pct)
        assert np.nanmin(diag) == pytest.approx(100.0)
        assert summary.sensitivity == pytest.approx(100.0)
        assert summary.false_alarm == pytest.approx(0.0)

    def test_report_files(self, corpus, tmp_path):
        ref = corpus["eval"][1]
        matrix, summary = score_files(ref, ref, "two_way", "per_epoch")
        prefix = str(tmp_path / "report")
        pipeline.write_score_report(matrix, summary, prefix)
        text = Path(prefix + ".txt").read_text()
        assert "sensitivity=100.00" in text
        assert os.path.exists(prefix + ".csv")


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["bogus-command"])
        assert exc.value.code == 1
        # a negative count or seed is refused as it is parsed: one error line
        # after the usage, naming the argument
        for argv, least in (
                (["det", "p.csv", "r.csv", "--offsets", "-1", "--out", "d.csv"], 0),
                (["score", "r.csv", "h.csv", "--channels", "-1", "--out", "s"], 1),
                (["score", "r.csv", "h.csv", "--channels", "0", "--out", "s"], 1),
                (["synth", "s.csv", "--seed", "-1", "--out", "x"], 0),
                (["train", "a.rm", "--seed", "-2", "--out", "m.seqd"], 0)):
            capsys.readouterr()
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 1
            option, value = argv[-4:-2]
            assert capsys.readouterr().err.splitlines()[-1] == (
                f"seqdet {argv[0]}: error: argument {option}: must be at least "
                f"{least}, got {value}")

    def test_data_error_exit_code(self, tmp_path, capsys):
        code = cli.main(["decode", str(tmp_path / "missing.seqd"), "x.rm"])
        assert code == 2

    @pytest.mark.parametrize("ini", [
        "[frontend]\ndiff_energy_window_frames = 8\n",
        "[pipeline]\nseed = abc\n",
        "[pipeline]\nseed = -1\n",
        "[pipeline]\nseed = -102\n",
        "[hmm]\nseed = -1\n",
    ])
    def test_config_error_exit_code(self, corpus, tmp_path, capsys, ini):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(ini)
        code = cli.main(["train", corpus["train"][0], "--config",
                         str(cfg_path), "--out", str(tmp_path / "m.seqd")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        if "seed = -" in ini:  # a negative seed is named by its key
            section, key_value = ini.split("\n")[:2]
            assert f"{section} {key_value}" in err

    @pytest.mark.parametrize("section, key, value", [
        ("sda.spsw", "corruption", "1.5"),
        ("hmm", "num_states", "500"),
        ("pipeline", "pca_sixway_dim", "1000"),
        ("sda.6way", "outputs", "3"),
        ("sda.eyem", "window_length", "0"),
        ("sda.6way", "pretrain_batch", "0"),
    ])
    def test_config_out_of_range_exit_code(self, corpus, tmp_path, capsys,
                                           monkeypatch, section, key, value):
        # each fails as the config loads, before any training
        calls = []
        monkeypatch.setattr(hmm, "train", lambda *a, **k: calls.append(a))
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(f"[{section}]\n{key} = {value}\n")
        code = cli.main(["train", corpus["train"][0], "--config",
                         str(cfg_path), "--out", str(tmp_path / "m.seqd")])
        assert code == 2
        err = one_line_data_error(capsys)
        assert f"[{section}] {key} = {value}" in err
        assert calls == []

    @pytest.mark.parametrize("section, key", [
        ("frontend", "num_cepstra"), ("frontend", "frames_per_epoch"),
        ("grammar", "m_weight")])
    def test_removed_key_exit_code(self, corpus, tmp_path, capsys, section,
                                   key):
        # the whole [frontend] section is gone, and m_weight acted only
        # through epsilon_prior
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(f"[{section}]\n{key} = 7\n")
        code = cli.main(["train", corpus["train"][0], "--config",
                         str(cfg_path), "--out", str(tmp_path / "m.seqd")])
        assert code == 2
        want = ("unknown config section [frontend]" if section == "frontend"
                else f"unknown config key [{section}] {key}")
        assert one_line_data_error(capsys) == f"data error: {want}\n"

    @pytest.mark.parametrize("key", ["pca_sixway_dim", "pca_detector_dim"])
    def test_pca_dim_past_the_data_exit_code(self, corpus, tmp_path, key):
        # 132 components need 132 epochs and the corpus has 60, whose
        # supervectors cannot fill the other PCA's rank either. The larger
        # fit fails first, so the other one logs no warning: stderr is the
        # one data error line (in a fresh process, where no test harness
        # takes the log records)
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(f"[pipeline]\n{key} = 132\n" + TINY_INI)
        out = subprocess.run(
            [sys.executable, "-m", "seqdet.cli", "train", corpus["train"][0],
             "--config", str(cfg_path), "--out", str(tmp_path / "m.seqd")],
            env=_fresh_env(1), capture_output=True, text=True, timeout=300)
        assert out.returncode == 2
        assert out.stderr == "data error: need >= 132 samples, got 60\n"

    @pytest.mark.parametrize("target", ["bundle", "recording", "det --out",
                                        "--out-dir"])
    def test_unusable_path_exit_code(self, trained, corpus, tmp_path, capsys,
                                     target):
        # a directory where a file is read or written, a file where a
        # directory is made
        rec_path, ref_path = corpus["eval"]
        folder, out = str(tmp_path), str(tmp_path / "out")
        args = {
            "bundle": ["decode", folder, rec_path, "--out-dir", out],
            "recording": ["decode", trained[1], folder, "--out-dir", out],
            "det --out": ["det", str(tmp_path / "p.csv"), ref_path,
                          "--out", folder],
            "--out-dir": ["decode", trained[1], rec_path, "--out-dir", ref_path],
        }[target]
        write_posterior_csv(str(tmp_path / "p.csv"), np.full((4, 6), 1 / 6))
        assert cli.main(args) == 2
        one_line_data_error(capsys)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_exit_code(self, corpus, tmp_path, capsys,
                                           monkeypatch, value):
        def bad_weight_stack(*args):
            layers = real(*args)
            layers[0].w[0, 0] = value
            return layers

        real = sda.init_stack
        monkeypatch.setattr(sda, "init_stack", bad_weight_stack)
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(TINY_INI)
        code = cli.main(["train", corpus["train"][0], "--config",
                         str(cfg_path), "--out", str(tmp_path / "m.seqd")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: non-finite pretraining gradient")
        assert err.count("\n") == 1

    def test_unknown_manifest_key_exit_code(self, trained, corpus, tmp_path,
                                            capsys):
        bundle, _ = trained
        manifest = dict(bundle.manifest,
                        config=dict(bundle.manifest["config"], bogus=1))
        path = str(tmp_path / "bad.seqd")
        Bundle(bundle.hmm_models, bundle.second_pass, bundle.bigram,
               manifest).save(path)
        code = cli.main(["decode", path, corpus["eval"][0],
                         "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and err.count("\n") == 1

    def test_det_accepts_rounded_posteriors(self, tmp_path, capsys):
        # target posteriors summing to 1 lose that sum to 10-digit rounding
        row = np.zeros(6)
        row[[int(lab) for lab in TARGET_CLASSES]] = [
            0.33333333336, 0.33333333336, 0.33333333328]
        post = np.tile(row, (4, 1))
        post[2:] = np.eye(6)[int(EventLabel.BCKG)]
        post_path = str(tmp_path / "p.pass3.csv")
        write_posterior_csv(post_path, post)
        back = read_posterior_csv(post_path)
        assert back[0, [int(lab) for lab in TARGET_CLASSES]].sum() > 1.0
        ref_path = str(tmp_path / "ref.csv")
        signal_io.write_annotations(signal_io.AnnotationSet((
            signal_io.Event(signal_io.ALL_CHANNELS, 0.0, 2.0, EventLabel.SPSW),
            signal_io.Event(signal_io.ALL_CHANNELS, 2.0, 4.0, EventLabel.BCKG),
        )), ref_path)
        det_out = str(tmp_path / "det.csv")
        assert cli.main(["det", post_path, ref_path, "--offsets", "3",
                         "--out", det_out]) == 0
        # at offset -0.5 the rounded-up targets are still called
        assert Path(det_out).read_text().splitlines()[1] == "-0.5,0,0"

    def test_synth_command(self, tmp_path, capsys):
        script = tmp_path / "s.csv"
        script.write_text("label,duration_s,channels\nBCKG,3,*\nPLED,2,*\n")
        out = str(tmp_path / "rec")
        assert cli.main(["synth", str(script), "--seed", "3",
                         "--out", out]) == 0
        rec = signal_io.open_recording(out + ".rm")
        assert rec.duration_s == pytest.approx(5.0)
        ann = signal_io.read_annotations(out + ".csv")
        assert len(ann.events) == 2

    def test_train_requires_annotations(self, tmp_path, corpus):
        rec_only = str(tmp_path / "lonely.rm")
        rec, _ = synth.generate([synth.ScriptEntry(EventLabel.BCKG, 2.0, None)],
                                seed=0)
        signal_io.write_recording(rec, rec_only)
        code = cli.main(["train", rec_only, "--out", str(tmp_path / "m.seqd")])
        assert code == 2

    def test_decode_score_det_flow(self, trained, corpus, tmp_path, capsys):
        _, bundle_path = trained
        rec_path, ref_path = corpus["eval"]
        out_dir = str(tmp_path / "out")
        assert cli.main(["decode", bundle_path, rec_path,
                         "--out-dir", out_dir, "--dump-posteriors"]) == 0
        stem = os.path.splitext(os.path.basename(rec_path))[0]
        hyp_path = os.path.join(out_dir, f"{stem}.hyp.csv")
        assert os.path.exists(hyp_path)
        for name in ("pass1", "pass2", "pass3"):
            assert os.path.exists(os.path.join(out_dir, f"{stem}.{name}.csv"))

        prefix = str(tmp_path / "score")
        assert cli.main(["score", ref_path, hyp_path, "--mode", "two_way",
                         "--out", prefix]) == 0
        assert os.path.exists(prefix + ".txt")

        det_out = str(tmp_path / "det.csv")
        assert cli.main(["det", os.path.join(out_dir, f"{stem}.pass3.csv"),
                         ref_path, "--offsets", "11", "--out", det_out]) == 0
        lines = Path(det_out).read_text().strip().splitlines()
        assert lines[0] == "offset,false_alarm,miss"
        assert len(lines) >= 12  # 11 offsets plus the forced zero point

    def test_cli_train(self, corpus, tmp_path):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text("[pipeline]\nseed = 5\nbigram_source = estimate\n"
                            + TINY_INI)
        out = str(tmp_path / "m.seqd")
        assert cli.main(["train", corpus["train"][0], "--config", str(cfg_path),
                         "--out", out]) == 0
        bundle = Bundle.load(out)
        assert bundle.manifest["seed"] == 5

    def test_bundle_equal_on_one_and_two_cpus(self, corpus, tmp_path,
                                              monkeypatch):
        # 8 components (the default) give 256-cell pass-1 chunks: 6 of them
        # over the corpus's 1 320 cells. Training runs the frontend and
        # pass 1 on whole recordings in the caller, whatever the CPU count
        def no_helpers():
            raise AssertionError("training submitted to the helper pool")

        monkeypatch.setattr(parallel, "_helpers", no_helpers)
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(TINY_INI.replace("num_components = 2",
                                             "num_components = 8"))
        bundles = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "cpus", lambda: cpus)
            out = tmp_path / f"m{cpus}.seqd"
            assert cli.main(["train", corpus["train"][0], "--config",
                             str(cfg_path), "--out", str(out)]) == 0
            bundles.append(out.read_bytes())
        assert bundles[0] == bundles[1]

    def test_seed_reaches_hmm(self, corpus, tmp_path):
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(TINY_INI)
        bundles = []
        for seed in (1, 2):
            out = str(tmp_path / f"m{seed}.seqd")
            assert cli.main(["train", corpus["train"][0], "--config",
                             str(cfg_path), "--seed", str(seed),
                             "--out", out]) == 0
            bundle = Bundle.load(out)
            assert bundle.manifest["seed"] == seed
            assert bundle.manifest["config"]["hmm"]["seed"] == seed
            bundles.append(bundle)
        assert any(not np.array_equal(bundles[0].hmm_models[lab].means,
                                      bundles[1].hmm_models[lab].means)
                   for lab in EventLabel)

    @pytest.mark.parametrize("length", [0, 2, 6, 12, 40, 1000, -100])
    def test_truncated_bundle_exit_code(self, trained, corpus, tmp_path,
                                        capsys, length):
        _, bundle_path = trained
        data = Path(bundle_path).read_bytes()
        path = str(tmp_path / "cut.seqd")
        Path(path).write_bytes(data[:length])
        code = cli.main(["decode", path, corpus["eval"][0],
                         "--out-dir", str(tmp_path)])
        assert code == 2
        one_line_data_error(capsys)

    def test_v1_bundle_exit_code(self, trained, corpus, tmp_path, capsys):
        _, bundle_path = trained
        data = Path(bundle_path).read_bytes()
        path = str(tmp_path / "v1.seqd")
        Path(path).write_bytes(data[:4] + (1).to_bytes(4, "little") + data[8:])
        code = cli.main(["decode", path, corpus["eval"][0],
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert "container version 1" in one_line_data_error(capsys)

    def test_v2_bundle_exit_code(self, trained, corpus, tmp_path, capsys):
        # a version-2 bundle holds a config with keys that are gone since
        # (num_cepstra, frames_per_epoch, m_weight): refused as it loads,
        # not at decode
        _, bundle_path = trained
        data = Path(bundle_path).read_bytes()
        path = str(tmp_path / "v2.seqd")
        Path(path).write_bytes(data[:4] + (2).to_bytes(4, "little") + data[8:])
        code = cli.main(["decode", path, corpus["eval"][0],
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"container version 2, expected {VERSION}" in \
            one_line_data_error(capsys)

    def test_overflowing_spectrum_exit_code(self, trained, corpus, tmp_path,
                                            capsys):
        # an EDF whose channel CH13 has a physical range of +-1e307: its
        # samples are finite and pass every check at open, but their
        # spectrum overflows. One line names the channel, with no numpy
        # warning and no output
        rec, data = read_whole(corpus["eval"][0])
        phys = [(-3276.8, 3276.7)] * 22
        phys[13] = (-1e307, 1e307)
        path = str(tmp_path / "huge.edf")
        write_edf(path, np.round(data * 10).clip(-32768, 32767), rate=250,
                  phys=phys, labels=list(rec.labels))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["decode", trained[1], path, "--out-dir", str(out)])
        assert code == 2
        assert "channel 'CH13': samples too large, the spectrum overflows" in \
            one_line_data_error(capsys)
        assert not out.exists() or not any(out.iterdir())

    def test_v4_bundle_exit_code(self, trained, corpus, tmp_path, capsys):
        # a version-4 bundle stores a label beside each HMM and a config
        # with a frame spec: refused as it loads
        _, bundle_path = trained
        data = Path(bundle_path).read_bytes()
        path = str(tmp_path / "v4.seqd")
        Path(path).write_bytes(data[:4] + (4).to_bytes(4, "little") + data[8:])
        code = cli.main(["decode", path, corpus["eval"][0],
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"container version 4, expected {VERSION}" in \
            one_line_data_error(capsys)

    def test_v3_bundle_exit_code(self, trained, corpus, tmp_path, capsys):
        # a version-3 bundle stores every array as f8, with no dtype byte in
        # its array headers: refused as it loads
        _, bundle_path = trained
        data = Path(bundle_path).read_bytes()
        path = str(tmp_path / "v3.seqd")
        Path(path).write_bytes(data[:4] + (3).to_bytes(4, "little") + data[8:])
        code = cli.main(["decode", path, corpus["eval"][0],
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert f"container version 3, expected {VERSION}" in \
            one_line_data_error(capsys)

    def test_mistyped_bundle_leaf_exit_code(self, trained, corpus, tmp_path,
                                            capsys):
        _, bundle_path = trained
        data = Path(bundle_path).read_bytes()
        meta, arrays = _unpack_payload(data[8:])
        meta["/second_pass/sda_spsw/window_length"] = "3"
        path = str(tmp_path / "bad.seqd")
        Path(path).write_bytes(data[:8] + payload(meta, arrays))
        code = cli.main(["decode", path, corpus["eval"][0],
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert "sda_spsw/window_length" in one_line_data_error(capsys)

    @pytest.mark.parametrize("keys", [
        ("/second_pass/pca_detector/components",),  # (13, 131)
        ("/hmm_models/PLED/means", "/hmm_models/PLED/variances",
         "/hmm_models/PLED/var_floor"),             # one model with D = 25
        # each vector one entry short
        ("/second_pass/sda_spsw/layers/0/b",),
        ("/second_pass/sda_eyem/layers/1/b_prime",),
        ("/second_pass/sda_sixway/scale_min",),
        ("/second_pass/sda_sixway/out_b",),
    ])
    def test_mismatched_shape_bundle_exit_code(self, trained, corpus, tmp_path,
                                               capsys, keys):
        _, bundle_path = trained
        data = Path(bundle_path).read_bytes()
        meta, arrays = _unpack_payload(data[8:])
        for key in keys:
            arrays[key] = arrays[key][..., :-1]
        path = str(tmp_path / "bad.seqd")
        Path(path).write_bytes(data[:8] + payload(meta, arrays))
        code = cli.main(["decode", path, corpus["eval"][0],
                         "--out-dir", str(tmp_path)])
        assert code == 2
        assert keys[0] + " has shape" in one_line_data_error(capsys)

    @pytest.mark.parametrize("case, message", [
        ("non_finite", "channel 'CH21': non-finite samples rejected"),
        ("truncated", "raw_matrix payload has 659992 bytes, expected 660000"),
        ("montage_input", "montage input 'CH22' not found in recording"),
        ("channels_21", "expected 22 channels after the montage, got 21"),
    ])
    def test_bad_recording_rejected_before_features(self, trained, corpus,
                                                    tmp_path, capsys,
                                                    monkeypatch, case, message):
        # every check runs when the recording is opened, before any block of
        # it reaches the frontend
        rec, data = read_whole(corpus["eval"][0])
        path = tmp_path / "clip.rm"
        rows = 21 if case == "channels_21" else 22
        signal_io.write_recording(signal_io.Recording.of(
            data[:rows], rec.labels[:rows], 250.0), str(path))
        if case == "non_finite":  # the last sample of the last channel
            path.write_bytes(path.read_bytes()[:-4]
                             + np.float32(np.nan).tobytes())
        elif case == "truncated":
            path.write_bytes(path.read_bytes()[:-8])
        montage = (signal_io.MontageSpec(STREAM_MONTAGE.derivations[:21]
                                         + (("D21", "CH22", None),))
                   if case == "montage_input" else None)
        bundle_path = str(tmp_path / "model.seqd")
        with_montage(trained[0], montage).save(bundle_path)
        calls = []
        monkeypatch.setattr(pipeline, "extract_features",
                            lambda *args: calls.append(args))
        assert cli.main(["decode", bundle_path, str(path),
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert message in one_line_data_error(capsys)
        assert not calls

    @pytest.mark.parametrize("verb", ["train", "decode"])
    def test_wrong_channel_count_exit_code(self, trained, corpus, tmp_path,
                                           capsys, verb):
        rec, ann = synth.generate(synth.balanced_script(2, 1, seed=5), seed=6)
        rec_path = str(tmp_path / "r21.rm")
        signal_io.write_recording(
            signal_io.Recording.of(rec.rows(0, 21), rec.labels[:21],
                                   rec.sample_rate_hz), rec_path)
        signal_io.write_annotations(ann, str(tmp_path / "r21.csv"))
        args = (["train", rec_path, "--out", str(tmp_path / "m.seqd")]
                if verb == "train" else
                ["decode", trained[1], rec_path, "--out-dir", str(tmp_path)])
        assert cli.main(args) == 2
        err = one_line_data_error(capsys)
        assert rec_path in err and "expected 22 channels" in err

    @pytest.mark.parametrize("row", ["x,0,1,SPSW", "*,a,1,SPSW", "*,0,1,FOO"])
    def test_bad_annotation_row_exit_code(self, corpus, tmp_path, capsys, row):
        ref = tmp_path / "ref.csv"
        ref.write_text(f"channel,start_s,stop_s,label\n*,0,1,BCKG\n{row}\n")
        code = cli.main(["score", str(ref), corpus["eval"][1],
                         "--out", str(tmp_path / "report")])
        assert code == 2
        err = one_line_data_error(capsys)
        assert str(ref) in err and "row 3" in err

    @pytest.mark.parametrize("verb", ["score", "train"])
    def test_infinite_annotation_time_exit_code(self, corpus, tmp_path, capsys,
                                                verb):
        # an infinite time is refused as its row is read, as NaN is
        if verb == "score":
            ann = tmp_path / "hyp.csv"
            args = ["score", corpus["eval"][1], str(ann),
                    "--out", str(tmp_path / "report")]
        else:
            rec = tmp_path / "rec.rm"
            rec.write_bytes(Path(corpus["train"][0]).read_bytes())
            ann = tmp_path / "rec.csv"
            args = ["train", str(rec), "--out", str(tmp_path / "m.seqd")]
        ann.write_text("channel,start_s,stop_s,label\n*,0,1,BCKG\n*,0,inf,BCKG\n")
        assert cli.main(args) == 2
        err = one_line_data_error(capsys)
        assert str(ann) in err and "row 3" in err and "stop=inf" in err

    @pytest.mark.parametrize("basis", ["per_epoch", "per_channel_event"])
    def test_unallocatable_epoch_count_exit_code(self, corpus, tmp_path, capsys,
                                                 basis):
        # a hypothesis ending at 1e308 s spans more epochs than an array can
        # index, so no allocation is attempted
        hyp = tmp_path / "hyp.csv"
        hyp.write_text("channel,start_s,stop_s,label\n*,0,1e308,BCKG\n")
        code = cli.main(["score", corpus["eval"][1], str(hyp), "--basis", basis,
                         "--out", str(tmp_path / "report")])
        assert code == 2
        assert "the labels of 1e+308 epochs" in one_line_data_error(capsys)

    @pytest.mark.parametrize("seconds", ["1e308", "1e12"])
    def test_unallocatable_script_exit_code(self, tmp_path, capsys, seconds):
        # 1e308 s overflows the sample count; 1e12 s of 22 channels would be
        # 39.1 PiB, which numpy refuses without allocating
        script = tmp_path / "s.csv"
        script.write_text(f"label,duration_s,channels\nBCKG,{seconds},*\n")
        code = cli.main(["synth", str(script), "--out", str(tmp_path / "rec")])
        assert code == 2
        assert f"a recording of {float(seconds):.4g} s" in \
            one_line_data_error(capsys)
        assert not list(tmp_path.glob("rec*"))

    @pytest.mark.parametrize("verb", ["train", "decode"])
    @pytest.mark.parametrize("rate", [1e12, 1e-6])
    def test_unreachable_rate_exit_code(self, trained, corpus, tmp_path, capsys,
                                        monkeypatch, verb, rate):
        # the ratio to 250 Hz rounds to 0 at 1e12 Hz and is 2.5e8, over the
        # largest upsampling of 1000, at 1e-6 Hz: the rate is refused at
        # open, before any rows are read or resampled
        rec, data = read_whole(corpus["eval"][0])
        rec_path = str(tmp_path / "clip.rm")
        signal_io.write_recording(signal_io.Recording.of(data, rec.labels, rate),
                                  rec_path)
        (tmp_path / "clip.csv").write_bytes(Path(corpus["eval"][1]).read_bytes())
        reads = []
        monkeypatch.setattr(signal_io, "resample", lambda *a: reads.append(a))
        args = (["train", rec_path, "--out", str(tmp_path / "m.seqd")]
                if verb == "train" else
                ["decode", trained[1], rec_path, "--out-dir", str(tmp_path)])
        assert cli.main(args) == 2
        err = one_line_data_error(capsys)
        assert rec_path in err and f"cannot resample {rate:g} Hz" in err
        assert not reads

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="needs CPU affinity to bound the child's threads")
    @pytest.mark.parametrize("ini", [
        TINY_INI.replace("[sda.6way]\nhidden = 8,8", "[sda.6way]\nhidden = 100000000"),
    ], ids=["hidden"])
    def test_unallocatable_config_exit_code(self, corpus, tmp_path, ini):
        # a 1e8-unit 6-way layer (44.7 GiB at TINY_INI's 60 inputs) cannot
        # be allocated. The CLI runs in a child process on one CPU whose
        # address space is capped at 2 GiB, so allocation fails the same way
        # on any machine and nothing past the cap is written
        cfg_path = tmp_path / "c.ini"
        cfg_path.write_text(ini)
        out = subprocess.run(
            [sys.executable, "-c", _CAPPED_CLI, "train", corpus["train"][0],
             "--config", str(cfg_path), "--out", str(tmp_path / "m.seqd")],
            env=_fresh_env(1), capture_output=True, text=True, timeout=300)
        assert out.returncode == 2, out.stderr
        # the tiny corpus's PCA rank warnings may come first
        lines = [line for line in out.stderr.splitlines()
                 if not line.startswith("PCA rank deficiency")]
        assert len(lines) == 1 and lines[0].startswith(
            "data error: Unable to allocate"), out.stderr
        assert not (tmp_path / "m.seqd").exists()

    @pytest.mark.parametrize("verb", ["score", "det"])
    def test_non_utf8_csv_exit_code(self, corpus, tmp_path, capsys, verb):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe\x00abc\n")
        code = cli.main([verb, str(bad), corpus["eval"][1],
                         "--out", str(tmp_path / "out")])
        assert code == 2
        one_line_data_error(capsys)

    @pytest.mark.parametrize("rows", [
        "0,0.5,0.5,0,0,0,x", "0,0.5,0.5,0,0,0",
        pytest.param("0,0.5,0.5,0,0,0,0\n0,0.5,0.5,0,0,0,0", id="repeated"),
        pytest.param("0,0.5,0.5,0,0,0,0\n2,0.5,0.5,0,0,0,0\n2,0.5,0.5,0,0,0,0",
                     id="missing"),
        pytest.param("1,0.5,0.5,0,0,0,0\n0,0.5,0.5,0,0,0,0", id="out_of_order")])
    def test_bad_posterior_row_exit_code(self, corpus, tmp_path, capsys, rows):
        # only the rows write_posterior_csv writes, in its order, are a dump
        post = tmp_path / "p.pass3.csv"
        post.write_text("epoch,SPSW,PLED,GPED,EYEM,ARTF,BCKG\n" + rows + "\n")
        code = cli.main(["det", str(post), corpus["eval"][1],
                         "--out", str(tmp_path / "det.csv")])
        assert code == 2
        err = one_line_data_error(capsys)
        assert str(post) in err


# `seqdet` on one CPU with its address space capped at 2 GiB: an allocation
# past the cap is refused whatever the machine's memory and overcommit policy.
_CAPPED_CLI = """
import os, resource, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from seqdet.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _fresh_env(threads):
    """The environment of a fresh `python -m seqdet.cli` with the BLAS thread
    count set before numpy loads."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sda.__file__)))
    return dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                PYTHONPATH=os.pathsep.join(
                    [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def test_cli_import_skips_scipy_signal_and_fft(trained):
    # a fresh process: importing the CLI and loading a bundle must not pay
    # for any scipy module; scipy.signal is imported only to resample
    _, path = trained
    probe = ("import sys, seqdet.cli\n"
             "from seqdet.bundle import Bundle\n"
             f"Bundle.load({path!r})\n"
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(1),
                         check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


# Decodes a recording with a bundle in a fresh process and saves its
# posteriors; prints the CPU seconds that the process's threads which Python
# did not start (OpenBLAS's workers) spent during the decode, or nan where
# /proc is missing. The sleeps let a spinning OpenBLAS thread stop before the
# first reading and show up before the second.
_DECODE_PROBE = """
import os, sys, threading, time
import numpy as np
from seqdet.bundle import Bundle
from seqdet.pipeline import decode_recording

def foreign_cpu_s():
    ours = {t.native_id for t in threading.enumerate()}
    ticks = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) not in ours:
            try:
                with open(f"/proc/self/task/{tid}/stat") as f:
                    fields = f.read().rsplit(")", 1)[1].split()
            except FileNotFoundError:  # the thread ended
                continue
            ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")

bundle_path, rec_path, out = sys.argv[1:]
bundle = Bundle.load(bundle_path)
proc = os.path.isdir("/proc/self/task")
time.sleep(0.5)
before = foreign_cpu_s() if proc else 0.0
_, dumps = decode_recording(bundle, rec_path)
time.sleep(0.5)
print(foreign_cpu_s() - before if proc else float("nan"))
np.savez(out, **dumps)
"""


@pytest.fixture(scope="module")
def probe_decodes(trained, corpus, tmp_path_factory):
    """A 252 s recording decoded in fresh processes at 1 and at 2 BLAS
    threads, with `trained`'s HMMs and random second-pass models of the
    default shapes, whose GEMMs OpenBLAS would split across 2 threads:
    {threads: (CPU seconds of OpenBLAS's threads, posteriors by pass)}."""
    root = tmp_path_factory.mktemp("probe")
    rec_path, _ = streamed_input("raw", corpus, root, seconds=252)
    bundle = trained[0]
    bundle_path = str(root / "m.seqd")
    Bundle(bundle.hmm_models, default_shape_second_pass(np.random.default_rng(5)),
           bundle.bigram, bundle.manifest).save(bundle_path)
    runs = {}
    for threads in (1, 2):
        out = str(root / f"{threads}.npz")
        cpu = subprocess.run([sys.executable, "-c", _DECODE_PROBE, bundle_path,
                              rec_path, out], env=_fresh_env(threads), check=True,
                             capture_output=True, text=True, timeout=300).stdout
        with np.load(out) as dumps:
            runs[threads] = float(cpu), dict(dumps)
    return runs


class TestBlasThreads:
    # Largest posterior difference between a train + decode at 1 and at 2
    # BLAS threads, with TINY_INI on the `corpus` fixture. Measured on a
    # 2-core x86-64 with scipy-openblas 0.3.31, with the SdAs trained in
    # float32: pass 1 equal in all ten printed digits (the bound is the
    # dump's resolution), pass 2 2.3e-9 and pass 3 3.7e-9. This corpus gives
    # a threefold eigenvalue in the PCA covariance, whose eigenspace fit_pca
    # gives a canonical basis.
    BOUNDS = {"pass1": 1e-9, "pass2": 1e-6, "pass3": 1e-6}

    @staticmethod
    def train_and_decode(corpus, out_dir, threads):
        """Run `seqdet train` then `seqdet decode --dump-posteriors` in fresh
        processes, with the BLAS thread count set before numpy loads."""
        env = _fresh_env(threads)
        cfg_path = out_dir / "c.ini"
        cfg_path.write_text(TINY_INI)
        bundle = str(out_dir / "m.seqd")
        seqdet = [sys.executable, "-m", "seqdet.cli"]
        for args in (["train", corpus["train"][0], "--config", str(cfg_path),
                      "--out", bundle],
                     ["decode", bundle, corpus["eval"][0], "--out-dir",
                      str(out_dir), "--dump-posteriors"]):
            subprocess.run(seqdet + args, env=env, check=True,
                           capture_output=True, timeout=300)
        stem = os.path.splitext(os.path.basename(corpus["eval"][0]))[0]
        return ((out_dir / f"{stem}.hyp.csv").read_bytes(),
                {name: read_posterior_csv(str(out_dir / f"{stem}.{name}.csv"))
                 for name in TestBlasThreads.BOUNDS})

    def test_one_and_two_threads_agree(self, corpus, tmp_path):
        runs = []
        for threads in (1, 2):
            (tmp_path / str(threads)).mkdir()
            runs.append(self.train_and_decode(corpus, tmp_path / str(threads),
                                              threads))
        (hyp1, post1), (hyp2, post2) = runs
        assert hyp1 == hyp2
        for name, bound in self.BOUNDS.items():
            np.testing.assert_array_equal(post1[name].argmax(axis=-1),
                                          post2[name].argmax(axis=-1))
            assert np.abs(post1[name] - post2[name]).max() <= bound

    def test_one_bundle_decodes_byte_equal(self, trained, corpus, tmp_path):
        # features, pass-1 scoring and the SdAs at 1 and 2 BLAS threads give
        # the same bytes in the hypothesis file and in every dump
        rec_path = corpus["eval"][0]
        stem = os.path.splitext(os.path.basename(rec_path))[0]
        names = [f"{stem}.hyp.csv"] + [f"{stem}.{name}.csv"
                                       for name in self.BOUNDS]
        outputs = []
        for threads in (1, 2):
            out_dir = tmp_path / str(threads)
            subprocess.run([sys.executable, "-m", "seqdet.cli", "decode",
                            trained[1], rec_path, "--out-dir", str(out_dir),
                            "--dump-posteriors"], env=_fresh_env(threads),
                           check=True, capture_output=True, timeout=300)
            outputs.append([(out_dir / name).read_bytes() for name in names])
        assert outputs[0] == outputs[1]

    def test_one_bundle_decodes_equal(self, probe_decodes):
        # every BLAS call of a decode runs at one thread, so the posteriors
        # of every pass keep their bits at 1 and 2 threads
        (_, one), (_, two) = probe_decodes[1], probe_decodes[2]
        assert sorted(one) == sorted(two) == ["pass1", "pass2", "pass3"]
        for name in one:
            np.testing.assert_array_equal(one[name], two[name])

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                        or not parallel._openblas(),
                        reason="no /proc, or numpy's OpenBLAS not found")
    def test_decode_never_wakes_openblas_threads(self, probe_decodes):
        # after a GEMM at 2 threads, OpenBLAS's idle worker spins for about
        # 135 ms (2-core x86-64, scipy-openblas 0.3.31) and takes a core from
        # the decode's helper. A decode whose every GEMM runs at one thread
        # never hands that worker a job, so it sleeps throughout: the bound
        # is two clock ticks of accounting slack
        assert probe_decodes[2][0] <= 2 / os.sysconf("SC_CLK_TCK")
