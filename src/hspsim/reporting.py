"""Deterministic CSV/JSON emission: fixed float formatting, no timestamps.

Each distribution is formatted once.  Its labels become text once, for
both distribution.csv and the report's "distribution" (`DistributionPairs`),
and each distinct float64 of a probability column is formatted once per
CSV chunk ("%.17g") and once per report (json's float text), then reused
by every row holding it (`float_texts`): exact HSP laws repeat few values.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .engine import PROB_SUM_TOL, OutcomeDistribution

# distribution CSV rows formatted per `%` operation
_CSV_ROWS = 1024
# columns up to this long are formatted entry by entry, without a search for
# repeats: np.unique costs about as much as formatting 50 floats
_SHARED_MIN = 64


def fmt17(x: float) -> str:
    """Format with 17 significant digits."""
    return format(float(x), ".17g")


def csv_floats(values: list) -> list[str]:
    """Each float at 17 significant digits, as the CSVs write it."""
    return ("%.17g\n" * len(values) % tuple(values)).split("\n")[:-1]


def json_floats(values: list) -> list[str]:
    """Each float as json's C encoder writes it (repr; NaN and Infinity as json spells them)."""
    return json.dumps(values)[1:-1].split(", ")[:len(values)]


def float_texts(values, encode) -> list[str] | None:
    """The text `encode` gives each entry of a float64 column, with `encode`
    called once per distinct value, by bit pattern (so 0.0 and -0.0, and NaNs,
    stay apart); None for a column of at most `_SHARED_MIN` entries or with no
    repeat, which its caller formats entry by entry."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) > _SHARED_MIN:
        keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
        if len(keys) < len(values):
            return list(map(encode(keys.view(np.float64).tolist()).__getitem__, inverse.tolist()))
    return None


def label_strs(labels) -> list[str]:
    """Outcome labels as text: "i:j:k" for an irrep:row:column triple, else the integer."""
    if labels and isinstance(labels[0], tuple):
        return ["%d:%d:%d" % label for label in labels]
    return [str(int(label)) for label in labels]


class DistributionPairs(list):
    """A distribution as the report's [label text, probability] pairs.  It keeps
    the label texts and probability column it was built from, so `write_json`
    writes it from them instead of encoding each pair; it is not to be mutated."""

    def __init__(self, labels: list[str], probs: np.ndarray):
        super().__init__(map(list, zip(labels, probs.tolist())))
        self.labels, self.probs = labels, probs

    def json_text(self) -> str:
        """`json.dumps(self)`, one text per distinct probability.  Label texts
        are digits and colons, which json writes unescaped."""
        flat = [None] * (2 * len(self))
        texts = float_texts(self.probs, json_floats) or json_floats(self.probs.tolist())
        flat[::2], flat[1::2] = self.labels, texts
        return "[" + ('["%s", %s], ' * len(self) % tuple(flat))[:-2] + "]"


def parse_label(text: str):
    if ":" in text:
        return tuple(int(x) for x in text.split(":"))
    return int(text)


def _write_rows(path: Path, header: str, columns, codes) -> None:
    """Write the header, then row i as the i-th entries of `columns` joined by
    commas, each formatted by its `%` code in `codes` ("%d", "%s", "%.17g"); a
    label triple is written "%d:%d:%d", and a "%.17g" chunk that repeats values
    is formatted once per distinct value (`float_texts`).  One `%` operation
    formats each chunk of rows, and the chunks are streamed through one handle."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _CSV_ROWS):
            fields, formats = [], []
            for column, code in zip(columns, codes):
                chunk = column[lo:lo + _CSV_ROWS]
                texts = float_texts(chunk, csv_floats) if code == "%.17g" else None
                if texts is not None:
                    chunk, code = texts, "%s"
                elif isinstance(chunk, np.ndarray):
                    chunk = chunk.tolist()
                if isinstance(chunk[0], tuple):
                    fields += zip(*chunk)
                    formats.append(":".join([code] * len(chunk[0])))
                else:
                    fields.append(chunk)
                    formats.append(code)
            flat = [None] * (len(fields) * len(chunk))
            for i, field in enumerate(fields):
                flat[i::len(fields)] = field
            fh.write((",".join(formats) + "\n") * len(chunk) % tuple(flat))


def write_distribution_csv(path: Path, dist: OutcomeDistribution,
                           pairs: bool = False) -> DistributionPairs | None:
    """The rows `label,fmt17(p)`, each label written as by `label_strs`.  With
    `pairs` the labels are formatted once for the whole column, and the same
    texts come back as the report's `DistributionPairs`; without it they
    stream chunk by chunk with the rows."""
    labels = label_strs(dist.labels) if pairs else dist.labels
    _write_rows(path, "outcome_label,probability", (labels, dist.probs),
                ("%s" if pairs else "%d", "%.17g"))
    return DistributionPairs(labels, dist.probs) if pairs else None


def read_distribution_csv(path: Path) -> OutcomeDistribution:
    """Read a distribution CSV; ValueError unless it is a probability distribution."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "outcome_label,probability":
        raise ValueError(f"{path} is not a distribution CSV")
    labels, probs = [], []
    for line in lines[1:]:
        if not line:
            continue
        lab, prob = line.rsplit(",", 1)
        labels.append(parse_label(lab))
        probs.append(float(prob))
    probs = np.array(probs)
    if len(set(labels)) != len(labels):
        raise ValueError(f"{path} repeats an outcome label")
    if not (probs >= 0).all():
        raise ValueError(f"{path} has a negative or NaN probability")
    if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{path} probabilities sum to {probs.sum()!r}, not 1")
    return OutcomeDistribution(tuple(labels), probs)


def write_f_table_csv(path: Path, instance) -> None:
    """The rows `g,f(g)` of the instance's level-set table."""
    table = instance.f_table
    _write_rows(path, "g_index,f_index", (range(len(table)), table), ("%d", "%d"))


def write_samples_csv(path: Path, samples) -> None:
    """The rows `i,sample_i`, each label written as by `label_strs`."""
    _write_rows(path, "trial_index,outcome_label", (range(len(samples)), samples), ("%d", "%d"))


def write_json(path: Path, payload: dict) -> None:
    """`{`, one `  "key": value` line per top-level key in sorted order, `}`.  Each
    value is one compact `json.dumps` on json's C encoder, which `indent` would
    bypass; a `DistributionPairs` value gives the same text from its own texts."""
    lines = [f"  {json.dumps(k)}: " + (v.json_text() if isinstance(v, DistributionPairs)
                                       else json.dumps(v, sort_keys=True))
             for k, v in sorted(payload.items())]
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
