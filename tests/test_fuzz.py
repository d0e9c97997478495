"""Property tests of the readers: random bytes and mutated valid files.

Every reader either returns or raises a DataError (or UnicodeDecodeError for
a text file that is not UTF-8), and whatever a reader rejects, the CLI verb
that reads it reports as a data error: exit 2 with one line on stderr.
"""
import contextlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seqdet import cli, pipeline, signal_io, synth
from seqdet.bundle import Bundle
from seqdet.errors import DataError
from tests.test_bundle import tiny_bundle
from tests.test_signal_io import HUGE_RAW, write_edf

CONFIG = ("[pipeline]\nseed = 3\nbigram_source = estimate\npca_sixway_dim = 12\n"
          "[hmm]\nnum_components = 2\nnum_states = 4\n"
          "[grammar]\ndecay = 0.3\n[sda.6way]\nhidden = 8,8\ncorruption = 0.2\n")
SCRIPT = "label,duration_s,channels\nBCKG,3,*\nPLED,2,0-3\nSPSW,1,1;2\n"
MONTAGE = "# bipolar\nD0,CH0,CH1\nD1,CH1,\nD2,CH2\n"


@st.composite
def mutated(draw, valid: bytes):
    """`valid` with one to three byte edits, insertions, cuts or deletions."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if kind == "set" and pos < len(data):
            data[pos] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif kind == "delete":
            del data[pos:pos + draw(st.integers(1, 8))]
        else:
            del data[pos:]
    return bytes(data)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A valid file per reader, and the other inputs its CLI verb needs."""
    root = tmp_path_factory.mktemp("fuzz")
    bundle = str(root / "model.seqd")
    tiny_bundle().save(bundle)
    rec, ann = synth.generate(synth.balanced_script(1, 1, seed=1), seed=2)
    rec_path, ann_path = str(root / "rec.rm"), str(root / "rec.csv")
    signal_io.write_recording(rec, rec_path)
    signal_io.write_annotations(ann, ann_path)
    write_edf(str(root / "valid.edf"), [np.sin(np.arange(512) / 9.0)] * 3)
    signal_io.write_recording(signal_io.Recording.of(
        np.arange(20.0).reshape(2, 10), ("A", "B"), 250.0), str(root / "valid.rm"))
    pipeline.write_posterior_csv(str(root / "pass1.csv"),
                                 np.full((3, 2, 6), 1 / 6))
    valid = {
        "bundle": Path(bundle).read_bytes(),
        "edf": (root / "valid.edf").read_bytes(),
        "raw": (root / "valid.rm").read_bytes(),
        "annotations": Path(ann_path).read_bytes(),
        "posteriors": (root / "pass1.csv").read_bytes(),
        "montage": MONTAGE.encode(),
        "script": SCRIPT.encode(),
        "config": CONFIG.encode(),
    }
    return root, valid, bundle, rec_path, ann_path


class _Fixed:
    """An explicit example for a test that draws once from st.data()."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy):
        return self.value


def _run_cli(args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    return code, err.getvalue()


def _reader_and_verb(name, path, root, bundle, rec_path, ann_path):
    """The reader of `path` and the CLI arguments that reach it first."""
    out = str(root / "out")
    montage_ini = root / "montage.ini"
    montage_ini.write_text(f"[pipeline]\nmontage_path = {path}\n")
    return {
        "bundle": (Bundle.load, ["decode", path, rec_path, "--out-dir", out]),
        "edf": (signal_io.open_recording,
                ["decode", bundle, path, "--out-dir", out]),
        "raw": (signal_io.open_recording,
                ["decode", bundle, path, "--out-dir", out]),
        "annotations": (signal_io.read_annotations,
                        ["score", path, ann_path, "--out", out]),
        "posteriors": (pipeline.read_posterior_csv,
                       ["det", path, ann_path, "--out", out]),
        "montage": (signal_io.read_montage,
                    ["train", rec_path, "--config", str(montage_ini),
                     "--out", out]),
        "script": (synth.read_script, ["synth", path, "--out", out]),
        "config": (pipeline.load_config,
                   ["train", rec_path, "--config", path, "--out", out]),
    }[name]


SUFFIX = {"edf": ".edf", "raw": ".rm", "bundle": ".seqd", "config": ".ini"}


@pytest.mark.parametrize("name", ["bundle", "edf", "raw", "annotations",
                                  "posteriors", "montage", "script", "config"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
@example(data=_Fixed(HUGE_RAW))  # a 40 TB matrix declared over 16 bytes
def test_reader_raises_only_data_errors(files, name, data):
    root, valid, bundle, rec_path, ann_path = files
    raw = data.draw(st.binary(max_size=300) | mutated(valid[name]))
    path = str(root / f"fuzzed{SUFFIX.get(name, '.csv')}")
    with open(path, "wb") as f:
        f.write(raw)
    reader, args = _reader_and_verb(name, path, root, bundle, rec_path,
                                    ann_path)
    try:
        reader(path)
    except (DataError, UnicodeDecodeError):
        code, err = _run_cli(args)
        assert code == 2, err
        assert err.startswith("data error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("name", ["bundle", "edf", "raw", "annotations",
                                  "posteriors", "montage", "script", "config"])
def test_valid_files_read(files, name):
    root, valid, bundle, rec_path, ann_path = files
    path = str(root / f"valid{SUFFIX.get(name, '.csv')}")
    with open(path, "wb") as f:
        f.write(valid[name])
    reader, _ = _reader_and_verb(name, path, root, bundle, rec_path, ann_path)
    reader(path)
