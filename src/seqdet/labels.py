"""Event label alphabet, the priority of overlapping reference labels and
the class-collapsing maps used throughout the pipeline."""
from enum import IntEnum


class EventLabel(IntEnum):
    """The six event classes, with canonical integer codes fixed for all
    serialized artifacts (model files, annotation CSVs, bigram tables)."""
    SPSW = 0  # spike and/or sharp wave
    PLED = 1  # periodic lateralized epileptiform discharge
    GPED = 2  # generalized periodic epileptiform discharge
    EYEM = 3  # eye movement
    ARTF = 4  # artifact
    BCKG = 5  # background


NUM_CLASSES = 6
LABEL_NAMES = [lab.name for lab in EventLabel]

# Collapsed target super-class used in 2-way scoring.
TARG = "TARG"

TARGET_CLASSES = (EventLabel.SPSW, EventLabel.GPED, EventLabel.PLED)
BACKGROUND_CLASSES = (EventLabel.EYEM, EventLabel.ARTF, EventLabel.BCKG)

# Where annotations overlap on an epoch or a cell, the class listed first is
# its reference label (evaluation): clinically interesting, rarer classes win.
EPOCH_PRIORITY = (
    EventLabel.SPSW,
    EventLabel.PLED,
    EventLabel.GPED,
    EventLabel.EYEM,
    EventLabel.ARTF,
    EventLabel.BCKG,
)

MODE_LABELS = {
    "six_way": LABEL_NAMES,
    "four_way": ["SPSW", "PLED", "GPED", "BCKG"],
    "two_way": [TARG, "BCKG"],
}


def parse_label(name: str) -> EventLabel:
    try:
        return EventLabel[name.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown event label: {name!r}") from None


def collapse(label: EventLabel, mode: str) -> str:
    """Collapse a six-class label into the label set of the scoring mode.

    four_way folds the three background-model classes into BCKG;
    two_way folds {SPSW, GPED, PLED} into TARG and everything else into BCKG.
    """
    if mode == "six_way":
        return label.name
    if mode == "four_way":
        return "BCKG" if label in BACKGROUND_CLASSES else label.name
    if mode == "two_way":
        return TARG if label in TARGET_CLASSES else "BCKG"
    raise ValueError(f"unknown mode: {mode!r}")
