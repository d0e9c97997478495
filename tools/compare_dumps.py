"""Compare the decode outputs in two directories, at the dumps' resolution.

`seqdet decode --dump-posteriors` writes, for each recording, a hypothesis
file `<stem>.hyp.csv` and posterior dumps `<stem>.pass{1,2,3}.csv` with ten
significant digits (`%.10g`). Two decodes whose posteriors differ only in
the last bits can print a value on either side of a rounding tie, so dump
bytes may differ where nothing of note changed. This checker holds

    hypothesis files  byte-equal;
    posterior dumps   the same names and shapes, read back with
                      `read_posterior_csv`, each pair of values within one
                      unit in the tenth significant digit of the larger.

Both directories must hold the same hypothesis and dump file names. It
prints one line a file and exits 0 when every file passes, 1 otherwise.

    python tools/compare_dumps.py DIR_A DIR_B
"""
from __future__ import annotations

import os
import re
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from seqdet.pipeline import read_posterior_csv  # noqa: E402

OUTPUT = re.compile(r".+\.(hyp|pass[123])\.csv")
DIGITS = 10  # significant digits of write_posterior_csv's %.10g


def tenth_digit_units(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a - b| in units of the tenth significant digit of the larger of
    |a| and |b|, a unit no smaller than the least subnormal; 0 where both
    are 0."""
    big = np.maximum(np.abs(a), np.abs(b))
    unit = np.maximum(10.0 ** (np.floor(np.log10(
        big, where=big > 0, out=np.zeros_like(big))) - (DIGITS - 1)),
        np.finfo(np.float64).smallest_subnormal)
    return np.divide(np.abs(a - b), unit, where=big > 0, out=np.zeros_like(big))


def compare(path_a: str, path_b: str) -> tuple[bool, str]:
    """Whether one pair of files passes, and the detail to print."""
    if path_a.endswith(".hyp.csv"):
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            same = fa.read() == fb.read()
        return same, "byte-equal" if same else "bytes differ"
    a, b = read_posterior_csv(path_a), read_posterior_csv(path_b)
    if a.shape != b.shape:
        return False, f"shapes {a.shape} and {b.shape}"
    units = tenth_digit_units(a, b)
    worst = float(units.max(initial=0.0))
    detail = (f"{np.count_nonzero(units)} of {units.size} values differ, "
              f"at most {worst:.3g} units in the tenth digit")
    return worst <= 1.0 + 1e-6, detail


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    names = [sorted(n for n in os.listdir(d) if OUTPUT.fullmatch(n)) for d in argv]
    bad = 0
    for name in sorted(set(names[0]) ^ set(names[1])):
        print(f"MISSING {name}: in one directory only")
        bad += 1
    for name in sorted(set(names[0]) & set(names[1])):
        ok, detail = compare(*(os.path.join(d, name) for d in argv))
        print(f"{'ok' if ok else 'DIFFERS':7} {name}: {detail}")
        bad += not ok
    total = len(set(names[0]) | set(names[1]))
    print(f"{total - bad} of {total} files pass")
    return 1 if bad or not total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
