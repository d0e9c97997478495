import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqdet.errors import DataError
from seqdet.evaluation import (ConfusionMatrix, DetCurve,
                               channel_epoch_reference_labels, confusion,
                               det_curve, epoch_reference_labels, sens_spec)
from seqdet.labels import (EPOCH_PRIORITY, MODE_LABELS, TARG, EventLabel,
                           collapse, parse_label)
from seqdet.signal_io import ALL_CHANNELS, AnnotationSet, Event


def confusion_reference(ref, hyp, mode):
    """confusion's counts, one (ref, hyp) pair at a time."""
    labels = MODE_LABELS[mode]
    index = {name: i for i, name in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)))
    for r, h in zip(ref, hyp):
        counts[index[collapse(EventLabel(int(r)), mode)],
               index[collapse(EventLabel(int(h)), mode)]] += 1
    return counts


def epoch_reference_labels_reference(ann, num_epochs):
    """epoch_reference_labels one event and one epoch at a time: an event
    takes an epoch when it outranks everything that holds it so far."""
    rank = {lab: i for i, lab in enumerate(EPOCH_PRIORITY)}
    out = np.full(num_epochs, int(EventLabel.BCKG), dtype=np.intp)
    best = np.full(num_epochs, rank[EventLabel.BCKG])
    for ev in ann.events:
        lo = max(0, int(np.floor(ev.start_s)))
        hi = min(num_epochs, int(np.ceil(ev.stop_s)))
        r = rank[ev.label]
        for e in range(lo, hi):
            if r < best[e]:
                best[e] = r
                out[e] = int(ev.label)
    return out


class TestLabels:
    def test_canonical_codes(self):
        assert int(EventLabel.SPSW) == 0
        assert int(EventLabel.PLED) == 1
        assert int(EventLabel.GPED) == 2
        assert int(EventLabel.EYEM) == 3
        assert int(EventLabel.ARTF) == 4
        assert int(EventLabel.BCKG) == 5

    def test_four_way_collapse(self):
        assert collapse(EventLabel.ARTF, "four_way") == "BCKG"
        assert collapse(EventLabel.EYEM, "four_way") == "BCKG"
        assert collapse(EventLabel.SPSW, "four_way") == "SPSW"
        assert collapse(EventLabel.GPED, "four_way") == "GPED"

    def test_two_way_collapse(self):
        for lab in (EventLabel.SPSW, EventLabel.GPED, EventLabel.PLED):
            assert collapse(lab, "two_way") == TARG
        for lab in (EventLabel.EYEM, EventLabel.ARTF, EventLabel.BCKG):
            assert collapse(lab, "two_way") == "BCKG"

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(list(EventLabel)))
    def test_six_way_identity(self, lab):
        assert collapse(lab, "six_way") == lab.name

    def test_parse_label(self):
        assert parse_label("pled") == EventLabel.PLED
        assert parse_label("SPSW ") == EventLabel.SPSW
        with pytest.raises(Exception):
            parse_label("nope")

    def test_priority_order(self):
        assert EPOCH_PRIORITY[0] == EventLabel.SPSW
        assert EPOCH_PRIORITY[-1] == EventLabel.BCKG


class TestConfusion:
    def test_six_way_counts(self):
        ref = [0, 0, 1, 5, 5, 5]
        hyp = [0, 1, 1, 5, 5, 0]
        m = confusion(ref, hyp, "six_way")
        assert m.counts[0, 0] == 1 and m.counts[0, 1] == 1
        assert m.counts[1, 1] == 1
        assert m.counts[5, 5] == 2 and m.counts[5, 0] == 1
        assert m.total == 6

    def test_percentages_row_normalized(self):
        m = confusion([5, 5, 5, 5], [5, 5, 5, 0], "six_way")
        pct = m.percentages()
        assert pct[5, 5] == pytest.approx(75.0)
        assert np.isnan(pct[0]).all()  # no SPSW refs

    def test_two_way_collapse_in_matrix(self):
        ref = [0, 1, 2, 3, 4, 5]
        hyp = [5, 5, 5, 0, 0, 0]
        m = confusion(ref, hyp, "two_way")
        # refs: 3 TARG, 3 BCKG; all hypotheses on the wrong side
        it, ib = m.labels.index(TARG), m.labels.index("BCKG")
        assert m.counts[it, ib] == 3
        assert m.counts[ib, it] == 3

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion([0], [0, 1])

    @pytest.mark.parametrize("mode", ["six_way", "four_way", "two_way"])
    def test_matches_loop(self, mode):
        rng = np.random.default_rng(10)
        for n in (0, 1, 7, 500):
            ref, hyp = rng.integers(0, 6, size=n), rng.integers(0, 6, size=n)
            np.testing.assert_array_equal(confusion(ref, hyp, mode).counts,
                                          confusion_reference(ref, hyp, mode))

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_unknown_label_rejected(self, bad):
        with pytest.raises(DataError, match="labels outside"):
            confusion([0, 5], [bad, 0])

    def test_format_text_runs(self):
        text = confusion([5, 0], [5, 0], "six_way").format_text()
        assert "SPSW" in text and "n/a" in text


class TestSensSpec:
    def test_from_counts(self):
        counts = np.array([[90.0, 10.0], [5.0, 95.0]])
        m = ConfusionMatrix(counts, (TARG, "BCKG"), "two_way", "per_epoch")
        s = sens_spec(m)
        assert s.sensitivity == pytest.approx(90.0)
        assert s.false_alarm == pytest.approx(5.0)
        assert s.specificity == pytest.approx(95.0)

    def test_empty_reference_class(self):
        m = ConfusionMatrix(np.array([[0.0, 0.0], [1.0, 9.0]]),
                            (TARG, "BCKG"), "two_way", "per_epoch")
        s = sens_spec(m)
        assert s.sensitivity is None
        assert s.false_alarm == pytest.approx(10.0)

    def test_requires_two_way(self):
        with pytest.raises(DataError):
            sens_spec(confusion([0], [0], "six_way"))


class TestDetCurve:
    def test_threshold_rule(self):
        scores = np.array([0.2, 0.6, 0.9, 0.4])
        refs = np.array([0, 0, 5, 5])  # two TARG refs, two BCKG refs
        curve = det_curve(scores, refs, [0.0])
        fa, miss = curve.zero_penalty_point()
        # TARG hyps at offset 0: scores > 0.5 -> items 1, 2
        assert miss == pytest.approx(0.5)  # item 0 (ref TARG) missed
        assert fa == pytest.approx(0.5)    # item 2 (ref BCKG) called TARG

    def test_monotone_in_offset(self):
        rng = np.random.default_rng(0)
        scores = rng.random(300)
        refs = rng.integers(0, 6, size=300)
        offsets = np.linspace(-0.5, 0.5, 41)
        curve = det_curve(scores, refs, offsets)
        _, fas, misses = np.array(curve.points).T
        assert (np.diff(fas) >= 0).all()
        assert (np.diff(misses) <= 0).all()

    def test_extremes(self):
        scores = np.random.default_rng(1).random(50)
        refs = np.random.default_rng(2).integers(0, 6, size=50)
        curve = det_curve(scores, refs, [-0.6, 0.6])
        assert curve.points[0][1] == 0.0 and curve.points[0][2] == 1.0
        assert curve.points[-1][1] == 1.0 and curve.points[-1][2] == 0.0

    def test_zero_offset_always_present(self):
        curve = det_curve([0.5], [0], [-0.3, 0.3])
        offs = [p[0] for p in curve.points]
        assert 0.0 in offs

    def test_score_range_enforced(self):
        with pytest.raises(DataError):
            det_curve([1.5], [0], [0.0])
        with pytest.raises(DataError):
            det_curve([1.0 + 1e-6], [0], [0.0])
        with pytest.raises(DataError):
            det_curve([np.nan], [0], [0.0])

    def test_rounding_overshoot_accepted_unclipped(self):
        # a CSV-rounded posterior sum just above 1 is scored as it is: at
        # offset -0.5 it is still called TARG, which clipping to 1 would undo
        curve = det_curve([1.0 + 1e-11, -1e-11], [0, 5], [-0.5])
        assert curve.points[0] == (-0.5, 0.0, 0.0)


class TestReferenceLabels:
    def test_uncovered_is_background(self):
        ann = AnnotationSet(())
        np.testing.assert_array_equal(
            epoch_reference_labels(ann, 4), [5, 5, 5, 5])

    def test_epoch_boundaries(self):
        ann = AnnotationSet((Event(0, 1.2, 2.8, EventLabel.GPED),))
        # floor(1.2)=1, ceil(2.8)=3: epochs 1 and 2 covered
        np.testing.assert_array_equal(
            epoch_reference_labels(ann, 4), [5, 2, 2, 5])

    def test_priority_tiebreak(self):
        ann = AnnotationSet((Event(0, 0.0, 2.0, EventLabel.ARTF),
                             Event(1, 0.0, 2.0, EventLabel.SPSW)))
        np.testing.assert_array_equal(epoch_reference_labels(ann, 2), [0, 0])

    def test_eyem_beats_artf(self):
        ann = AnnotationSet((Event(0, 0.0, 1.0, EventLabel.ARTF),
                             Event(1, 0.0, 1.0, EventLabel.EYEM)))
        assert epoch_reference_labels(ann, 1)[0] == int(EventLabel.EYEM)

    def test_matches_loop(self):
        rng = np.random.default_rng(11)
        for n_events in (1, 5, 40):
            starts = rng.uniform(0, 30, size=n_events)
            ann = AnnotationSet(tuple(
                Event(ch, start, start + rng.uniform(0.1, 8.0),
                      EventLabel(int(rng.integers(0, 6))))
                for ch, start in enumerate(starts)))
            for num_epochs in (1, 20, 45):
                np.testing.assert_array_equal(
                    epoch_reference_labels(ann, num_epochs),
                    epoch_reference_labels_reference(ann, num_epochs))

    def test_channel_grid(self):
        ann = AnnotationSet((Event(ALL_CHANNELS, 0.0, 1.0, EventLabel.GPED),
                             Event(2, 1.0, 3.0, EventLabel.PLED)))
        grid = channel_epoch_reference_labels(ann, 3, 4)
        np.testing.assert_array_equal(grid[0], [2, 2, 2, 2])
        np.testing.assert_array_equal(grid[1], [5, 5, 1, 5])
        np.testing.assert_array_equal(grid[2], [5, 5, 1, 5])

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_all_channel_event_does_not_overwrite_a_spike(self, order):
        # `*,0,10,BCKG` and `3,2,4,SPSW`: SPSW holds channel 3 at epochs 2-3
        # in either file order
        events = (Event(ALL_CHANNELS, 0.0, 10.0, EventLabel.BCKG),
                  Event(3, 2.0, 4.0, EventLabel.SPSW))
        ann = AnnotationSet(tuple(events[i] for i in order))
        grid = channel_epoch_reference_labels(ann, 10, 4)
        want = np.full((10, 4), int(EventLabel.BCKG))
        want[2:4, 3] = int(EventLabel.SPSW)
        np.testing.assert_array_equal(grid, want)
        np.testing.assert_array_equal(epoch_reference_labels(ann, 10),
                                      want[:, 3])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([ALL_CHANNELS, 0, 1, 2, 3]),
                              st.integers(0, 11), st.integers(1, 6),
                              st.sampled_from(list(EventLabel))),
                    min_size=1, max_size=8),
           st.randoms(use_true_random=False), st.booleans())
    def test_rule_does_not_depend_on_file_order(self, drawn, random, in_range):
        # overlapping all-channel and per-channel events of different
        # classes; a channel never holds two classes at once (AnnotationSet
        # refuses that), so such draws keep the first event of the channel
        events, held = [], {}
        for ch, start, length, label in drawn:
            span = set(range(start, start + length))
            if any(lab != label and span & s for s, lab in held.get(ch, [])):
                continue
            held.setdefault(ch, []).append((span, label))
            events.append(Event(ch, start + 0.25, start + length - 0.5, label))
        shuffled = list(events)
        random.shuffle(shuffled)
        channels = 4 if in_range else 3
        num_epochs = 15
        first = np.array([int(lab) for lab in EPOCH_PRIORITY])
        rank = np.argsort(first)  # a label code's place in EPOCH_PRIORITY
        epochs = [epoch_reference_labels(AnnotationSet(tuple(evs)), num_epochs)
                  for evs in (events, shuffled)]
        np.testing.assert_array_equal(epochs[0], epochs[1])
        if not in_range and any(ev.channel == 3 for ev in events):
            with pytest.raises(DataError):
                channel_epoch_reference_labels(AnnotationSet(tuple(events)),
                                               num_epochs, channels)
            return
        grids = [channel_epoch_reference_labels(AnnotationSet(tuple(evs)),
                                                num_epochs, channels)
                 for evs in (events, shuffled)]
        np.testing.assert_array_equal(grids[0], grids[1])
        if in_range:
            # an epoch's label is the EPOCH_PRIORITY-first of its cells'
            np.testing.assert_array_equal(
                epochs[0], first[rank[grids[0]].min(axis=1)])

    def test_channel_out_of_range(self):
        ann = AnnotationSet((Event(9, 0.0, 1.0, EventLabel.PLED),))
        with pytest.raises(DataError):
            channel_epoch_reference_labels(ann, 1, 4)
