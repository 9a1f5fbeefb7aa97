"""Exact two-register state-vector execution of the measurement pipeline.

The run initializes |0>|identity>, Fourier-transforms the left register,
applies the blackbox, transforms the left register again
(forward by default, inverse by configuration), and returns the exact
Born distribution of the left register, marginalized (never collapsed)
over the right register.  Exact distributions are first class; sampling
is a seeded layer on top.  State sizes are capped at |G|*|H| <= 65536.

The transforms are applied by FFT (`FourierTransform.apply` and
`apply_inverse`); the first one is written directly, since F|e> is
column 0 of F.  The blackbox meets only |psi1>|e>, so it is one scatter
of psi1 onto the level sets of f: psi2[g, h] = psi1[g, 0] if h = f(g),
else 0.  No |G| x |G| matrix is built, so memory stays linear in the
state size.
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
class QuantumState:
    """Amplitudes over the G x H basis, index = g_index * |H| + h_index."""

    dims: tuple[int, int]
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def as_matrix(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


@dataclass
class OutcomeDistribution:
    """Exact left-register Born probabilities keyed by outcome label.

    Labels are plain irrep labels when the group is abelian (every Fourier
    row is a character row) or when measuring the irrep label only;
    otherwise they are (irrep label, row, column) triples.
    """

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        if len(self.labels) != len(self.probs):
            raise ValueError("labels and probabilities differ in length")

    def support(self, threshold: float = 0.0) -> list:
        return [lab for lab, p in zip(self.labels, self.probs) if p > threshold]

    def as_mapping(self) -> dict:
        return dict(zip(self.labels, (float(p) for p in self.probs)))

    def total_variation(self, other: "OutcomeDistribution") -> float:
        mine, theirs = self.as_mapping(), other.as_mapping()
        keys = set(mine) | set(theirs)
        return 0.5 * sum(abs(mine.get(k, 0.0) - theirs.get(k, 0.0)) for k in keys)


def finalize_distribution(labels: tuple, probs: np.ndarray) -> OutcomeDistribution:
    """Clamp float dust to zero and check normalization."""
    probs = np.where(probs < PROB_CLAMP, 0.0, probs)
    total = float(probs.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise IntegrityError(f"outcome probabilities sum to {total!r}, not 1")
    probs.flags.writeable = False
    return OutcomeDistribution(labels, probs)


def _check_dims(instance: HspInstance, fourier: FourierTransform) -> tuple[int, int]:
    n_g, n_h = instance.group.order, instance.codomain.order
    if fourier.group.name != instance.group.name:
        raise ValueError(
            f"Fourier operator for {fourier.group.name} does not match "
            f"instance group {instance.group.name} of order {n_g}"
        )
    if n_g * n_h > STATE_SIZE_CAP:
        raise ResourceCapError(
            f"state size {n_g}*{n_h} exceeds the cap {STATE_SIZE_CAP}"
        )
    return n_g, n_h


def _check_norm(matrix: np.ndarray, step: str) -> None:
    norm = float(np.linalg.norm(matrix))
    if abs(norm - 1.0) > NORM_TOL:
        raise IntegrityError(f"state norm drifted to {norm!r} after {step}")


def _evolve(
    instance: HspInstance, fourier: FourierTransform, cfg: PipelineConfig
) -> list[np.ndarray]:
    n_g, n_h = _check_dims(instance, fourier)
    psi0 = np.zeros((n_g, n_h), dtype=np.complex128)
    psi0[0, 0] = 1.0
    psi1 = np.zeros((n_g, n_h), dtype=np.complex128)
    psi1[:, 0] = fourier.identity_column()
    _check_norm(psi1, "the first Fourier transform")
    psi2 = np.where(instance.f_table[:, None] == np.arange(n_h), psi1[:, :1], 0)
    _check_norm(psi2, "the blackbox application")
    second = fourier.apply if cfg.second_transform == "forward" else fourier.apply_inverse
    psi3 = second(psi2)
    _check_norm(psi3, "the second Fourier transform")
    return [psi0, psi1, psi2, psi3]


def outcome_labels(fourier: FourierTransform, cfg: PipelineConfig) -> tuple:
    """The outcome labels of a pipeline run, in order, without running it."""
    layout = fourier._layout
    if cfg.measure_granularity == "irrep_label_only":
        return tuple(layout.labels.tolist())
    if fourier.group.is_abelian:
        return tuple(layout.rows[0].tolist())
    return fourier.row_index


def _labelled_probs(
    fourier: FourierTransform, cfg: PipelineConfig, probs: np.ndarray
) -> tuple[tuple, np.ndarray]:
    if cfg.measure_granularity == "irrep_label_only":
        # bincount adds each block's rows in row order, from 0.0
        layout = fourier._layout
        probs = np.bincount(layout.block, weights=probs, minlength=len(layout.labels))
    return outcome_labels(fourier, cfg), probs


def run_pipeline(
    instance: HspInstance,
    fourier: FourierTransform,
    cfg: PipelineConfig = PipelineConfig(),
) -> OutcomeDistribution:
    """Exact left-register outcome distribution p(x) = sum_h |<x,h|psi3>|^2."""
    return left_register_distribution(_evolve(instance, fourier, cfg)[3], fourier, cfg)


def left_register_distribution(
    psi3: np.ndarray, fourier: FourierTransform, cfg: PipelineConfig
) -> OutcomeDistribution:
    """Born distribution of the left register of a final (|G|, |H|) state."""
    probs = np.abs(psi3) ** 2
    labels, probs = _labelled_probs(fourier, cfg, probs.sum(axis=1))
    return finalize_distribution(labels, probs)


def step_trace(
    instance: HspInstance,
    fourier: FourierTransform,
    cfg: PipelineConfig = PipelineConfig(),
) -> list[QuantumState]:
    """Snapshots psi0..psi3 of the pipeline, for inspection and testing."""
    n_h = instance.codomain.order
    return [
        QuantumState((instance.group.order, n_h), m.reshape(-1))
        for m in _evolve(instance, fourier, cfg)
    ]


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
