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


def label_str(label) -> str:
    if isinstance(label, tuple):
        return ":".join(str(int(x)) for x in label)
    return str(int(label))


def parse_label(text: str):
    if ":" in text:
        return tuple(int(x) for x in text.split(":"))
    return int(text)


def _write_csv(path: Path, header: str, rows) -> None:
    """Write the header and each row of `rows` as one line, streamed through one handle."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(row + "\n" for row in rows)


def write_distribution_csv(path: Path, dist: OutcomeDistribution) -> None:
    """The rows `label_str(label),fmt17(p)`, formatted by one `%` operation per
    chunk of rows (label triples as "%d:%d:%d") and streamed chunk by chunk."""
    labels = dist.labels
    width = len(labels[0]) if labels and isinstance(labels[0], tuple) else 1
    row = ":".join(["%d"] * width) + ",%.17g\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("outcome_label,probability\n")
        for lo in range(0, len(labels), _CSV_ROWS):
            chunk = labels[lo:lo + _CSV_ROWS]
            flat = [None] * ((width + 1) * len(chunk))
            for i, column in enumerate(zip(*chunk) if width > 1 else (chunk,)):
                flat[i::width + 1] = column
            flat[width::width + 1] = dist.probs[lo:lo + _CSV_ROWS].tolist()
            fh.write(row * len(chunk) % tuple(flat))


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
    _write_csv(path, "g_index,f_index", (f"{g},{int(v)}" for g, v in enumerate(instance.f_table)))


def write_samples_csv(path: Path, samples) -> None:
    _write_csv(
        path, "trial_index,outcome_label", (f"{i},{label_str(lab)}" for i, lab in enumerate(samples))
    )


def write_json(path: Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
