"""Every config key changes an output.

The keys are generated from the config dataclasses: each leaf field of
PipelineConfig, named (section, key) as in the INI file. A key either has a
perturbed valid value in PERTURBED, under which the output of the stage it
feeds must change, or a reason in NOT_A_KNOB. A field with neither, or an
entry for a field that is gone, fails test_every_key_is_listed.

Each stage runs alone, on fixed input, from a base config chosen so that
every key can matter:
- hmm keys: hmm.train, where EM stops on the tolerance (ARTF at iteration 7)
  below max_iterations (8);
- SdA keys, both PCA dims, augment_cap and [pipeline] seed: one second-pass
  train on fixed pass-1 posteriors, with more rows (120) than either batch
  and augment_cap (60) below the majority count (94 and 103) that each
  detector's minority grows towards;
- grammar keys: decode_pass3 on fixed posteriors, with an iteration cap
  (3) below convergence (at iteration 10);
- bigram_source: one tiny train.
An output changes when its arrays differ in shape or by more than roundoff.
"""
from __future__ import annotations

import typing
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from seqdet import grammar, hmm, pipeline, signal_io, synth
from seqdet.bundle import _flatten
from seqdet.features import extract_features
from seqdet.grammar import GrammarParams
from seqdet.hmm import GmmHmmModel, HmmConfig
from seqdet.labels import EventLabel
from seqdet.pipeline import PipelineConfig
from seqdet.sda import SdaConfig, SecondPassModels

SDA_SECTIONS = ("sda.spsw", "sda.eyem", "sda.6way")

_SMALL = dict(corruption=0.3, pretrain_lr=0.5, pretrain_epochs=2,
              pretrain_batch=32, finetune_lr=0.2, finetune_epochs=3,
              finetune_batch=32)
BASE = PipelineConfig(
    hmm=HmmConfig(num_components=2, max_iterations=8, tol_per_frame=1e-4),
    sda_spsw=SdaConfig("spsw", 3, (8, 8), 2, **_SMALL),
    sda_eyem=SdaConfig("eyem", 3, (8, 8), 2, **_SMALL),
    sda_sixway=SdaConfig("6way", 3, (8, 8), 6, **_SMALL),
    grammar=GrammarParams(iterations=3), augment_cap=60)

PERTURBED = {
    ("hmm", "num_states"): 2,
    ("hmm", "num_components"): 3,
    ("hmm", "max_iterations"): 4,
    ("hmm", "tol_per_frame"): 1e-2,
    ("hmm", "seed"): 1,
    **{(section, key): value for section in SDA_SECTIONS
       for key, value in (("window_length", 5), ("hidden", (8, 6)),
                          ("corruption", 0.1), ("pretrain_lr", 0.25),
                          ("pretrain_epochs", 3), ("pretrain_batch", 48),
                          ("finetune_lr", 0.1), ("finetune_epochs", 4),
                          ("finetune_batch", 48))},
    ("grammar", "epsilon_prior"): 0.5,
    ("grammar", "decay"): 0.4,
    ("grammar", "alpha"): 0.3,
    ("grammar", "gamma"): 0.5,
    ("grammar", "iterations"): 4,
    ("grammar", "window"): 6,
    ("pipeline", "bigram_source"): "estimate",
    ("pipeline", "seed"): 1,
    ("pipeline", "augment_cap"): 40,
    ("pipeline", "pca_detector_dim"): 12,
    ("pipeline", "pca_sixway_dim"): 19,
}

NOT_A_KNOB = {
    **{(section, "name"): "perfbench/tracing.py names the SdA's spans by it"
       for section in SDA_SECTIONS},
    **{(section, "outputs"): "one valid value per section (2, 2, 6); "
       "perfbench/worker.py's tiny config passes it positionally"
       for section in SDA_SECTIONS},
    ("pipeline", "montage_path"): "a deployment path; the montage it names "
                                  "is stored in the bundle",
}

_SECTION_FIELDS = {f.metadata["section"]: f.name
                   for f in fields(PipelineConfig) if "section" in f.metadata}


def leaf_keys(cls=PipelineConfig, section="pipeline"):
    """(section, key) of every leaf field of a config dataclass; a nested
    dataclass's fields are in the section its field's metadata names."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from leaf_keys(hints[f.name], f.metadata["section"])
        else:
            yield section, f.name


def perturbed(cfg: PipelineConfig, section: str, key: str) -> PipelineConfig:
    value = PERTURBED[section, key]
    if section == "pipeline":
        return replace(cfg, **{key: value})
    name = _SECTION_FIELDS[section]
    return replace(cfg, **{name: replace(getattr(cfg, name), **{key: value})})


# ---------------------------------------------------------------------------
# The stages, each returning its output as named arrays and other leaves

def _leaves(obj, tp) -> dict:
    meta, arrays = {}, {}
    _flatten(obj, tp, "", meta, arrays)
    return {**meta, **arrays}


def hmm_stage(cfg, data):
    return _leaves(hmm.train(data["corpus"], cfg.hmm),
                   dict[EventLabel, GmmHmmModel])


def second_pass_stage(cfg, data):
    return _leaves(pipeline._train_second_pass(cfg, [data["pass1"]],
                                               [data["refs"]]),
                   SecondPassModels)


def grammar_stage(cfg, data):
    _, post = grammar.decode_pass3(data["posteriors"], data["table"],
                                   cfg.grammar)
    return {"posteriors": post}


def train_stage(cfg, data):
    return {"bigram": pipeline.train_pipeline(cfg, [data["pair"]]).bigram.probs}


def stage_of(section: str, key: str):
    if section == "hmm":
        return hmm_stage
    if section == "grammar":
        return grammar_stage
    if key == "bigram_source":
        return train_stage
    return second_pass_stage


def changed(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return True
    for key, x in a.items():
        y = b[key]
        if not isinstance(x, np.ndarray):
            if x != y:
                return True
        elif x.shape != y.shape or not np.allclose(x, y, rtol=1e-9, atol=1e-12):
            return True
    return False


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    rec, ann = synth.generate(synth.balanced_script(5, 1, seed=2), seed=4)
    grid = extract_features(rec.rows(0, 22))
    prefix = str(tmp_path_factory.mktemp("knobs") / "clip")
    signal_io.write_recording(rec, prefix + ".rm")
    signal_io.write_annotations(ann, prefix + ".csv")
    # 120 epochs of pass-1 posteriors whose reference runs are mostly BCKG,
    # so that each detector has a minority class to grow
    rng = np.random.default_rng(6)
    runs = [np.full(rng.integers(2, 8), rng.choice(
        6, p=[0.1, 0.05, 0.05, 0.15, 0.1, 0.55])) for _ in range(60)]
    refs = np.concatenate(runs)[:120]
    return {"corpus": pipeline._pass1_corpus([grid], [ann]),
            "pass1": rng.dirichlet(np.ones(6), size=(120, 22)), "refs": refs,
            "posteriors": rng.dirichlet(np.ones(6), size=200),
            "table": grammar.TABLE1_BIGRAM,
            "pair": (prefix + ".rm", prefix + ".csv")}


@pytest.fixture(scope="module")
def base_outputs(data):
    cache = {}

    def output(stage):
        if stage not in cache:
            cache[stage] = stage(BASE, data)
        return cache[stage]
    return output


def test_every_key_is_listed():
    keys = list(leaf_keys())
    assert len(keys) == len(set(keys))
    assert not PERTURBED.keys() & NOT_A_KNOB.keys()
    assert set(keys) == PERTURBED.keys() | NOT_A_KNOB.keys()


@pytest.mark.parametrize("section, key", sorted(PERTURBED))
def test_key_changes_its_stage_output(data, base_outputs, section, key):
    stage = stage_of(section, key)
    assert changed(base_outputs(stage),
                   stage(perturbed(BASE, section, key), data))
