"""The two kinds of failure: a DataError is an input that cannot be used as
given (a malformed file, an out-of-range config value, arrays that do not fit
together), raised where the data is built; the CLI exits 2. A NumericError is
SdA training that diverged to a non-finite gradient; the CLI exits 3."""
import numpy as np


class DataError(Exception):
    pass


class NumericError(Exception):
    pass


def check_shape(name: str, array, shape: tuple) -> None:
    if (got := np.shape(array)) != tuple(shape):
        raise DataError(f"{name} has shape {got}, expected {tuple(shape)}")
