import numpy as np
import pytest

from seqdet import features as feat
from seqdet import synth
from seqdet.errors import DataError
from seqdet.labels import EventLabel
from seqdet.signal_io import ALL_CHANNELS
from seqdet.synth import (FOCAL_PROFILE, ScriptEntry, balanced_script,
                          generate, read_script)

SCRIPT = [ScriptEntry(EventLabel.BCKG, 3.0, None),
          ScriptEntry(EventLabel.PLED, 2.0, None),
          ScriptEntry(EventLabel.SPSW, 2.0, (0, 1, 2))]

# Every seed passed to generate: by the tests (11 and 21 are criterion 8's
# pair), and by perfbench's train_focal 7, decode_long 3 and eval_sweep 5
# (its first clip) workloads.
USED_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 11, 21, 31, 500_007, 1_500_003, 3_005_000)


def probe_signals(seed: int) -> dict[EventLabel, np.ndarray]:
    """30 s of each class from a stream derived from, but not equal to, the
    seed's."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    return {lab: synth._class_signal(lab, 30 * 250, rng) for lab in EventLabel}


def spectrally_separated(signals: dict[EventLabel, np.ndarray]) -> bool:
    """Every class pair differs by >= 3 combined standard errors of the mean
    in at least one log filterbank band."""
    profiles = []
    for x in signals.values():
        le = np.log(feat.filterbank_energies(x))
        profiles.append((le.mean(axis=0), le.std(axis=0) / np.sqrt(le.shape[0])))
    for i, (ma, sa) in enumerate(profiles):
        for mb, sb in profiles[i + 1:]:
            z = np.abs(ma - mb) / np.sqrt(sa ** 2 + sb ** 2 + 1e-30)
            if z.max() < 3.0:
                return False
    return True


class TestGenerate:
    def test_shape_and_rate(self):
        rec, ann = generate(SCRIPT, seed=0)
        assert rec.labels == tuple(f"CH{i:02d}" for i in range(22))
        assert rec.sample_rate_hz == 250.0
        assert rec.num_samples == 7 * 250

    def test_annotations_match_script(self):
        _, ann = generate(SCRIPT, seed=0)
        by_time = sorted(ann.events, key=lambda e: (e.start_s, e.channel))
        assert by_time[0] == type(by_time[0])(ALL_CHANNELS, 0.0, 3.0,
                                              EventLabel.BCKG)
        assert by_time[1].label == EventLabel.PLED
        spsw = [e for e in by_time if e.label == EventLabel.SPSW]
        assert sorted(e.channel for e in spsw) == [0, 1, 2]
        assert all(e.start_s == 5.0 and e.stop_s == 7.0 for e in spsw)

    def test_deterministic(self):
        r1, a1 = generate(SCRIPT, seed=7)
        r2, a2 = generate(SCRIPT, seed=7)
        np.testing.assert_array_equal(r1.rows(0, 22), r2.rows(0, 22))
        assert a1.events == a2.events

    def test_seed_changes_signal(self):
        r1, _ = generate(SCRIPT, seed=1)
        r2, _ = generate(SCRIPT, seed=2)
        assert not np.array_equal(r1.rows(0, 22), r2.rows(0, 22))

    def test_off_subset_channels_are_background_like(self):
        # channels outside the SPSW subset carry far less high-band energy
        rec, _ = generate(SCRIPT, seed=0)
        seg = rec.rows(0, 22)[:, 5 * 250:7 * 250]
        hi = []
        for ch in range(22):
            e = feat.filterbank_energies(seg[ch])
            hi.append(np.log(e[:, 6:]).mean())
        hi = np.array(hi)
        assert hi[:3].min() > hi[3:].max()

    def test_empty_script_rejected(self):
        with pytest.raises(DataError):
            generate([], seed=0)

    def test_classes_separated_on_every_used_seed(self):
        # generate checks nothing at run time, so the classes' separation is
        # checked here for every seed that the tests and perfbench use
        bad = [seed for seed in USED_SEEDS
               if not spectrally_separated(probe_signals(seed))]
        assert not bad, f"classes not spectrally separated for seeds {bad}"


class TestScriptEntries:
    def test_fractional_duration_rejected(self):
        with pytest.raises(DataError):
            ScriptEntry(EventLabel.BCKG, 1.5, None)

    def test_bad_channels_rejected(self):
        with pytest.raises(DataError):
            ScriptEntry(EventLabel.BCKG, 1.0, ())
        with pytest.raises(DataError):
            ScriptEntry(EventLabel.BCKG, 1.0, (25,))

    def test_read_script(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("label,duration_s,channels\n"
                        "BCKG,3,*\n"
                        "SPSW,2,0-5\n"
                        "PLED,1,1;4;7\n")
        entries = read_script(str(path))
        assert entries[0] == ScriptEntry(EventLabel.BCKG, 3.0, None)
        assert entries[1].channels == (0, 1, 2, 3, 4, 5)
        assert entries[2].channels == (1, 4, 7)

    def test_read_script_bad_header(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b,c\nBCKG,3,*\n")
        with pytest.raises(DataError):
            read_script(str(path))


class TestBalancedScript:
    def test_class_balance(self):
        script = balanced_script(5, 4, seed=3)
        assert len(script) == 24
        for lab in EventLabel:
            total = sum(e.duration_s for e in script if e.label == lab)
            assert total == 20.0

    def test_profile_applied(self):
        script = balanced_script(5, 2, seed=4, channel_profile=FOCAL_PROFILE)
        for e in script:
            assert e.channels == FOCAL_PROFILE[e.label]

    def test_shuffle_is_seeded(self):
        assert balanced_script(5, 3, seed=1) == balanced_script(5, 3, seed=1)
        assert balanced_script(5, 3, seed=1) != balanced_script(5, 3, seed=2)
