"""Deterministic CSV/JSON emission: fixed float formatting, no timestamps."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .engine import PROB_SUM_TOL, OutcomeDistribution

# distribution CSV rows formatted per `%` operation
_CSV_ROWS = 1024


def fmt17(x: float) -> str:
    """Format with 17 significant digits."""
    return format(float(x), ".17g")


def label_strs(labels) -> list[str]:
    """Outcome labels as text: "i:j:k" for an irrep:row:column triple, else the integer."""
    if labels and isinstance(labels[0], tuple):
        return ["%d:%d:%d" % label for label in labels]
    return [str(int(label)) for label in labels]


def parse_label(text: str):
    if ":" in text:
        return tuple(int(x) for x in text.split(":"))
    return int(text)


def _write_rows(path: Path, header: str, columns, codes) -> None:
    """Write the header, then row i as the i-th entries of `columns` joined by
    commas, each formatted by its `%` code in `codes` ("%d", "%.17g"); a label
    triple is written "%d:%d:%d".  One `%` operation formats each chunk of
    rows, and the chunks are streamed through one handle."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _CSV_ROWS):
            fields, formats = [], []
            for column, code in zip(columns, codes):
                chunk = column[lo:lo + _CSV_ROWS]
                chunk = chunk.tolist() if isinstance(chunk, np.ndarray) else chunk
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


def write_distribution_csv(path: Path, dist: OutcomeDistribution) -> None:
    """The rows `label,fmt17(p)`, each label written as by `label_strs`."""
    _write_rows(path, "outcome_label,probability", (dist.labels, dist.probs), ("%d", "%.17g"))


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
    value is one compact `json.dumps` on json's C encoder, which `indent` would bypass."""
    lines = [f"  {json.dumps(k)}: {json.dumps(payload[k], sort_keys=True)}"
             for k in sorted(payload)]
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
