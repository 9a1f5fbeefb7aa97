"""Exact two-register state-vector execution of the measurement pipeline.

The run initializes |0>|identity>, Fourier-transforms the left register,
applies the blackbox, transforms the left register forward again, and
returns the exact Born distribution of the left register, marginalized
(never collapsed) over the right register.  Exact distributions are
first class; sampling is a seeded layer on top.  State sizes are capped
at |G|*|H| <= 65536, for stacked runs at |G| times their summed |H|.

The transforms are applied by FFT (the in-place core behind
`FourierTransform.apply`); the first one is written directly, since F|e>
is column 0 of F.  The blackbox meets only |psi1>|e>, so it is one
scatter of that column onto the level sets of f:
psi2[g, h] = (F|e>)[g] if h = f(g), else 0.  A run therefore evolves
psi2 -> psi3 alone, and the second transform consumes psi2 in place, so
a run holds at most psi2 and the transform's output.  No |G| x |G|
matrix is built, so memory stays linear in the state size.  Runs that
differ only in f share psi1, so several of them evolve side by side as
column blocks of one state, through one transform, each block checked
for unit norm after every step; one run is the case of one block.  The
norms a report gives come from those checks (psi0's is exactly 1.0).
psi0 (e at row 0) and psi1 (F|e> in column 0) have closed forms, and
only `step_trace`, the full-evolution oracle of the tests, writes them
and keeps psi2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError, ResourceCapError
from .oracle import HspInstance
from .representations import FourierTransform

STATE_SIZE_CAP = 65536
NORM_TOL = 1e-12
PROB_CLAMP = 1e-15
PROB_SUM_TOL = 1e-10

MEASURE_GRANULARITIES = ("full_triple", "irrep_label_only")


@dataclass(frozen=True)
class PipelineConfig:
    measure_granularity: str = "full_triple"

    def __post_init__(self):
        if self.measure_granularity not in MEASURE_GRANULARITIES:
            raise ValueError(f"measure_granularity must be one of {MEASURE_GRANULARITIES}")


@dataclass
class OutcomeDistribution:
    """Exact left-register Born probabilities keyed by outcome label.

    Labels are plain irrep labels when every irrep is 1-dim (every Fourier
    row is a character row) or when measuring the irrep label only;
    otherwise they are (irrep label, row, column) triples.
    """

    labels: tuple | range
    probs: np.ndarray

    def __post_init__(self):
        if len(self.labels) != len(self.probs):
            raise ValueError("labels and probabilities differ in length")

    def support(self, threshold: float = 0.0) -> list:
        return [self.labels[i] for i in np.flatnonzero(self.probs > threshold).tolist()]

    def as_mapping(self) -> dict:
        return dict(zip(self.labels, (float(p) for p in self.probs)))


def check_state_size(rows: int, width: int, cap: int = STATE_SIZE_CAP) -> None:
    """The state-size rule: a (rows, width) state holds at most `cap` amplitudes."""
    if rows * width > cap:
        raise ResourceCapError(f"state size {rows}*{width} exceeds {cap}")


def finalize_distribution(labels: tuple | range, probs: np.ndarray) -> OutcomeDistribution:
    """Refuse a negative entry, clamp float dust to zero and check normalization."""
    negative = probs[probs < 0]
    if negative.size:
        raise IntegrityError(f"outcome probability {float(negative[0])!r} is negative")
    probs = np.where(probs < PROB_CLAMP, 0.0, probs)
    total = float(probs.sum())
    # written so that a NaN total, which compares false, is refused too
    if not abs(total - 1.0) <= PROB_SUM_TOL:
        raise IntegrityError(f"outcome probabilities sum to {total!r}, not 1")
    probs.flags.writeable = False
    return OutcomeDistribution(labels, probs)


def _check_group(instance: HspInstance, fourier: FourierTransform) -> None:
    if fourier.group.name != instance.group.name:
        raise ValueError(
            f"Fourier operator for {fourier.group.name} does not match "
            f"instance group {instance.group.name} of order {instance.group.order}"
        )


def _check_norm(matrix: np.ndarray, starts: np.ndarray, step: str) -> np.ndarray:
    """Each run's block of columns, from its entry of `starts` on, must keep unit
    norm; returns the block norms.

    One pass over the float64 view of the C-ordered state: einsum sums the
    squares of each real and imaginary column, with no squared copy of the
    state and no BLAS call, so the norms do not depend on the thread count,
    and reduceat adds them up by block."""
    x = matrix.view(np.float64)
    norms = np.sqrt(np.add.reduceat(np.einsum("ij,ij->j", x, x), 2 * starts))
    drifted = np.flatnonzero(np.abs(norms - 1.0) > NORM_TOL)
    if drifted.size:
        raise IntegrityError(f"state norm drifted to {float(norms[drifted[0]])!r} after {step}")
    return norms


def _blackbox(
    fourier: FourierTransform, level_sets: np.ndarray, widths
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """psi2 of one pipeline run per row of `level_sets`, side by side.

    Run b owns widths[b] consecutive columns of the (|G|, sum(widths))
    state, from starts[b] on, and its f takes g to column level_sets[b, g]
    of them.  Every run's psi1 is F|e> in its first column, so the first
    transform is checked once, on that column, and psi0 and psi1 are never
    built.  Returns psi2, `starts` and the norms of the two checks.
    """
    n_g = fourier.group.order
    widths = np.asarray(widths, dtype=np.int64)
    total = int(widths.sum())
    check_state_size(n_g, total)
    starts = np.cumsum(widths) - widths
    column = fourier.identity_column()
    norms = [_check_norm(column[:, None], starts[:1], "the first Fourier transform")]
    psi2 = np.zeros((n_g, total), dtype=np.complex128)
    psi2[np.arange(n_g), starts[:, None] + level_sets] = column
    norms.append(_check_norm(psi2, starts, "the blackbox application"))
    return psi2, starts, norms


def _evolve(
    fourier: FourierTransform, level_sets: np.ndarray, widths
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """psi3 of one pipeline run per row of `level_sets`, side by side, as
    `_blackbox` lays them out.  The second transform consumes psi2, kept by no
    one else, so a run holds psi2 and the transform's output, and psi3 alone on
    return.  Returns psi3, `starts` and the norms of the three checks: after the
    first transform (one, shared by every run), the blackbox and the second
    transform (one per run)."""
    parts = list(_blackbox(fourier, level_sets, widths))
    psi3 = fourier._apply_in_place(parts.pop(0))
    starts, norms = parts
    norms.append(_check_norm(psi3, starts, "the second Fourier transform"))
    return psi3, starts, norms


def outcome_labels(fourier: FourierTransform, cfg: PipelineConfig) -> tuple:
    """The outcome labels of a pipeline run, in order, without running it."""
    layout = fourier._layout
    if cfg.measure_granularity == "irrep_label_only":
        return tuple(layout.labels.tolist())
    if (layout.dims == 1).all():
        return tuple(layout.rows[0].tolist())
    return fourier.row_index


def run_pipeline(
    instance: HspInstance,
    fourier: FourierTransform,
    cfg: PipelineConfig = PipelineConfig(),
) -> OutcomeDistribution:
    """Exact left-register outcome distribution p(x) = sum_h |<x,h|psi3>|^2."""
    return run_with_norms(instance, fourier, cfg)[0]


def run_with_norms(
    instance: HspInstance,
    fourier: FourierTransform,
    cfg: PipelineConfig = PipelineConfig(),
) -> tuple[OutcomeDistribution, list[float]]:
    """`run_pipeline`'s distribution and the norms of psi0..psi3: exactly 1.0
    for psi0, whose one nonzero entry is 1.0, then the norms the run's three
    checks computed.  No state is built for them."""
    _check_group(instance, fourier)
    psi3, _, norms = _evolve(fourier, instance.f_table[None], [instance.codomain.order])
    dist = left_register_distribution(psi3, fourier, cfg)
    return dist, [1.0] + [float(n[0]) for n in norms]


def level_set_laws(
    fourier: FourierTransform, cfg: PipelineConfig, level_sets: np.ndarray, widths
) -> list[OutcomeDistribution]:
    """The outcome distribution of one pipeline run per row of `level_sets`, all
    evolved together from psi2 to psi3; run b's f takes g to level_sets[b, g] < widths[b]."""
    psi3, starts, _ = _evolve(fourier, level_sets, widths)
    blocks = np.split(psi3, starts[1:], axis=1)
    return [left_register_distribution(block, fourier, cfg) for block in blocks]


def left_register_distribution(
    psi3: np.ndarray, fourier: FourierTransform, cfg: PipelineConfig
) -> OutcomeDistribution:
    """Born distribution of the left register of a final (|G|, |H|) state."""
    magnitudes = np.abs(psi3)
    probs = np.square(magnitudes, out=magnitudes).sum(axis=1)
    if cfg.measure_granularity == "irrep_label_only":
        # bincount adds each block's rows in row order, from 0.0
        layout = fourier._layout
        probs = np.bincount(layout.block, weights=probs, minlength=len(layout.labels))
    return finalize_distribution(outcome_labels(fourier, cfg), probs)


def step_trace(instance: HspInstance, fourier: FourierTransform) -> list[np.ndarray]:
    """Snapshots psi0..psi3 of the pipeline, each a (|G|, |H|) array of amplitudes:
    the full-evolution oracle of the tests, which no run path calls.  psi0 (e at
    row 0) and psi1 (F|e> in column 0) are written from their closed forms, and
    psi2 is built a second time, since the run that makes psi3 consumes its own."""
    _check_group(instance, fourier)
    level_sets, widths = instance.f_table[None], [instance.codomain.order]
    psi3 = _evolve(fourier, level_sets, widths)[0]
    psi2 = _blackbox(fourier, level_sets, widths)[0]
    psi0 = np.zeros_like(psi2)
    psi0[0, 0] = 1.0
    psi1 = np.zeros_like(psi2)
    psi1[:, 0] = fourier.identity_column()
    return [psi0, psi1, psi2, psi3]


def sample(dist: OutcomeDistribution, n: int, seed: int) -> list:
    """n i.i.d. draws by inverse CDF over the fixed label order; seed-reproducible."""
    if n < 0:
        raise ValueError(f"sample count must be non-negative, got {n}")
    if n == 0:
        return []
    cum = np.cumsum(dist.probs)
    rng = np.random.default_rng(seed)
    u = rng.random(n) * cum[-1]
    idx = np.searchsorted(cum, u, side="right")
    idx = np.minimum(idx, len(dist.probs) - 1)
    return [dist.labels[i] for i in idx]
