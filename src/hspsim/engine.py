"""Exact two-register state-vector execution of the measurement pipeline.

The run initializes |0>|identity>, Fourier-transforms the left register,
applies the blackbox, transforms the left register again
(forward by default, inverse by configuration), and returns the exact
Born distribution of the left register, marginalized (never collapsed)
over the right register.  Exact distributions are first class; sampling
is a seeded layer on top.  State sizes are capped at |G|*|H| <= 65536,
for stacked runs at |G| times their summed |H|.

The transforms are applied by FFT (`FourierTransform.apply` and
`apply_inverse`); the first one is written directly, since F|e> is
column 0 of F.  The blackbox meets only |psi1>|e>, so it is one scatter
of that column onto the level sets of f: psi2[g, h] = (F|e>)[g] if
h = f(g), else 0.  A run therefore evolves psi2 -> psi3 alone: psi0
(e at row 0) and psi1 (F|e> in column 0) have closed forms, and only
`step_trace` writes them.  No |G| x |G| matrix is built, so memory stays
linear in the state size.  Runs that differ only in f share psi1, so
several of them evolve side by side as column blocks of one state,
through one transform, each block checked for unit norm after every
step; one run is the case of one block.
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

SECOND_TRANSFORMS = ("forward", "inverse")
MEASURE_GRANULARITIES = ("full_triple", "irrep_label_only")


@dataclass(frozen=True)
class PipelineConfig:
    second_transform: str = "forward"
    measure_granularity: str = "full_triple"

    def __post_init__(self):
        if self.second_transform not in SECOND_TRANSFORMS:
            raise ValueError(f"second_transform must be one of {SECOND_TRANSFORMS}")
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


def _check_norm(matrix: np.ndarray, starts: np.ndarray, step: str) -> None:
    """Each run's block of columns, from its entry of `starts` on, must keep unit norm.

    One vdot per block: a single run's block is the whole state, which it
    reads in place, with no squared copy of the state."""
    norms = np.sqrt([np.vdot(block, block).real for block in np.split(matrix, starts[1:], axis=1)])
    drifted = np.flatnonzero(np.abs(norms - 1.0) > NORM_TOL)
    if drifted.size:
        raise IntegrityError(f"state norm drifted to {float(norms[drifted[0]])!r} after {step}")


def _evolve(
    fourier: FourierTransform, cfg: PipelineConfig, level_sets: np.ndarray, widths
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """psi2 and psi3 of one pipeline run per row of `level_sets`, side by side.

    Run b owns widths[b] consecutive columns of each (|G|, sum(widths))
    state, from starts[b] on, and its f takes g to column level_sets[b, g]
    of them, so one transform serves every run.  Every run's psi1 is F|e>
    in its first column, so the first transform is checked once, on that
    column, and psi0 and psi1 are never built.  Returns psi2, psi3 and
    `starts`.
    """
    n_g = fourier.group.order
    widths = np.asarray(widths, dtype=np.int64)
    total = int(widths.sum())
    check_state_size(n_g, total)
    starts = np.cumsum(widths) - widths
    column = fourier.identity_column()
    _check_norm(column[:, None], starts[:1], "the first Fourier transform")
    psi2 = np.zeros((n_g, total), dtype=np.complex128)
    psi2[np.arange(n_g), starts[:, None] + level_sets] = column
    _check_norm(psi2, starts, "the blackbox application")
    second = fourier.apply if cfg.second_transform == "forward" else fourier.apply_inverse
    psi3 = second(psi2)
    _check_norm(psi3, starts, "the second Fourier transform")
    return psi2, psi3, starts


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
    _check_group(instance, fourier)
    return level_set_laws(fourier, cfg, instance.f_table[None], [instance.codomain.order])[0]


def level_set_laws(
    fourier: FourierTransform, cfg: PipelineConfig, level_sets: np.ndarray, widths
) -> list[OutcomeDistribution]:
    """The outcome distribution of one pipeline run per row of `level_sets`, all
    evolved together from psi2 to psi3; run b's f takes g to level_sets[b, g] < widths[b]."""
    # psi2 is dropped with the tuple, so only psi3 is live beside the marginals
    psi3, starts = _evolve(fourier, cfg, level_sets, widths)[1:]
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


def step_trace(
    instance: HspInstance,
    fourier: FourierTransform,
    cfg: PipelineConfig = PipelineConfig(),
) -> list[np.ndarray]:
    """Snapshots psi0..psi3 of the pipeline, each a (|G|, |H|) array of amplitudes;
    psi0 (e at row 0) and psi1 (F|e> in column 0) are written here from their closed forms."""
    _check_group(instance, fourier)
    psi2, psi3, _ = _evolve(fourier, cfg, instance.f_table[None], [instance.codomain.order])
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
