"""Classical post-processing of measurement outcomes.

Abelian outcomes are character indices; the hidden subgroup is the
intersection of the sampled character kernels, Simon's problem
included.  Period finding extracts candidate denominators from
continued-fraction convergents in exact integer arithmetic.  A result
is confirmed only by an independent check: the full exact support not
shrinking the candidate, or the modular identity a^r = 1 (with r then
reduced to the order of a); never by sample count alone.  Outcomes and
the full support are checked by `groups._indices`, the element-index rule.

Candidate ranking compares the observed distribution with each
subgroup's predicted one.  For abelian kinds the prediction is the
annihilator law (outcomes uniform on K^perp; Hallgren, Russell and
Ta-Shma), read for all candidates at once off one character pairing, so
it builds no instance or state.  Dihedral candidates run the pipeline
together: the law of K depends only on its left cosets, so each
candidate's coset ids (`groups.coset_ids`) serve as its f, and one
evolution of the stacked candidates gives every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import OutcomeDistribution, PipelineConfig, level_set_laws, outcome_labels
from .errors import ResourceCapError
from .groups import (CyclicGroup, FiniteGroup, ProductGroup, Subgroup, _indices, _mask,
                     all_subgroups, character_pairing, coset_ids, is_z2n, membership)
from .representations import FourierTransform, fourier_transform

RANK_TIE_TOL = 1e-12
# subgroup_consistency_rank enumerates every subgroup and predicts each one's
# law: in closed form for abelian kinds, by one stacked evolution of all
# candidates for D_N
RANK_ORDER_CAP = 32
# element-outcome pairs evaluated at once by the character sieve
_PAIRING_CHUNK = 1 << 20


@dataclass(frozen=True)
class SampleSet:
    """Measurement outcomes (character indices) in an abelian group context."""

    group: FiniteGroup
    outcomes: tuple[int, ...]

    def __post_init__(self):
        _indices(self.group, self.outcomes)


@dataclass(frozen=True)
class RecoveryResult:
    candidate: Subgroup
    confirmed: bool


@dataclass(frozen=True)
class PeriodEstimate:
    period: int | None
    confirmed: bool


@dataclass(frozen=True)
class RankedCandidates:
    """Subgroup candidates sorted by distance to an observed distribution.

    ``tie_classes`` groups entry positions whose predicted distributions
    are numerically identical and therefore indistinguishable.
    """

    entries: tuple[tuple[Subgroup, float], ...]
    tie_classes: tuple[tuple[int, ...], ...]


def _kernel_intersection(group: FiniteGroup, ks: np.ndarray, outcomes) -> np.ndarray:
    """The elements of `ks` on which every sampled character chi_y is 1."""
    unique = np.flatnonzero(_mask(group, outcomes))
    keep = np.ones(len(ks), dtype=bool)
    step = max(1, _PAIRING_CHUNK // len(ks))
    for lo in range(0, len(unique), step):
        keep &= ~character_pairing(group, ks, unique[lo:lo + step])[0].any(axis=1)
    return ks[keep]


def character_sieve(samples: SampleSet, full_support=None) -> RecoveryResult:
    """K = intersection of ker(chi_y) over sampled y; confirmed when the
    full exact-distribution support would not shrink it further."""
    group = samples.group
    kernel = _kernel_intersection(group, np.arange(group.order), samples.outcomes)
    elems = tuple(kernel.tolist())
    # an intersection of kernels is a subgroup, and in an abelian group
    # every subgroup is normal, so no closure or normality check is needed
    candidate = Subgroup(group, elems, True)
    confirmed = False
    if full_support is not None:
        support = _indices(group, full_support)
        confirmed = len(_kernel_intersection(group, kernel, support)) == len(kernel)
    return RecoveryResult(candidate, confirmed)


def simon_solve(samples: SampleSet, full_support=None) -> RecoveryResult:
    """Simon's problem: the character sieve on Z2^n."""
    group = samples.group
    if not is_z2n(group):
        raise ValueError(f"simon_solve needs a Z2^n context, got {group.name}")
    return character_sieve(samples, full_support)


def continued_fraction_period(y: int, big_q: int, n: int) -> int | None:
    """Smallest convergent denominator d < n of y/Q with |y/Q - c/d| <= 1/(2Q).

    Runs entirely on integers: the distance test is 2*|y*d - c*Q| <= d.
    Returns None for y = 0 or when no convergent qualifies.
    """
    if big_q <= 0:
        raise ValueError(f"Q must be positive, got {big_q}")
    if not 0 <= y < big_q:
        raise ValueError(f"outcome {y} not in [0, {big_q})")
    if y == 0:
        return None
    h_prev, h_curr = 0, 1
    k_prev, k_curr = 1, 0
    num, den = y, big_q
    while den:
        a, rem = divmod(num, den)
        h_prev, h_curr = h_curr, a * h_curr + h_prev
        k_prev, k_curr = k_curr, a * k_curr + k_prev
        num, den = den, rem
        c, d = h_curr, k_curr
        if d < n and 2 * abs(y * d - c * big_q) <= d:
            return d
    return None


def period_from_samples(outcomes, big_q: int, n: int, base: int) -> PeriodEstimate:
    """L = LCM of per-sample candidate denominators, confirmed by a^L = 1 mod N.

    a^L = 1 holds for every multiple of the order of a, so a confirmed L is
    reduced to that order by dividing out each p while a^(L/p) = 1.  Every
    prime of L divides a denominator, so p runs up to the largest one.
    Each outcome must be an element index of Z_Q.
    """
    candidates = []
    for y in _indices(CyclicGroup(big_q), outcomes).tolist():
        d = continued_fraction_period(y, big_q, n)
        if d is not None:
            candidates.append(d)
    if not candidates:
        return PeriodEstimate(None, False)
    r = math.lcm(*candidates)
    if pow(base, r, n) != 1:
        return PeriodEstimate(r, False)
    for p in range(2, max(candidates) + 1):
        while r % p == 0 and pow(base, r // p, n) == 1:
            r //= p
    return PeriodEstimate(r, True)


def annihilator_law(group: FiniteGroup, candidates, labels) -> np.ndarray:
    """P[c, y] = |K_c|/|G| when chi_y is 1 on all of K_c, else 0.

    The exact outcome law of hidden subgroup K_c in an abelian kind, in
    the order of the character labels `labels`: F|e> is the uniform
    superposition, so either transform gives the uniform law on the
    annihilator of K_c, for every instance and seed.
    """
    member = membership(group, candidates).astype(np.float64)
    moved = character_pairing(group, np.arange(group.order), labels)[0] != 0
    # a float64 (BLAS) product of 0/1 entries is exact: each sum is an integer <= |G|
    outside = member @ moved.astype(np.float64)
    return np.where(outside == 0, member.sum(axis=1)[:, None] / group.order, 0.0)


def coset_law(fourier: FourierTransform, cfg: PipelineConfig, candidates) -> np.ndarray:
    """P[c] = the pipeline's outcome law for hidden subgroup K_c, in the order of
    `outcome_labels`, all candidates evolved together.

    f is constant on the left cosets gK_c and injective across them, and
    which value each coset takes only permutes columns of H, which the
    measurement sums over; so the coset ids of `groups.coset_ids` serve as
    f for every instance and seed.
    """
    ids = np.stack([coset_ids(fourier.group, k) for k in candidates])
    laws = level_set_laws(fourier, cfg, ids, [k.num_cosets for k in candidates])
    return np.stack([law.probs for law in laws])


def subgroup_consistency_rank(
    dist: OutcomeDistribution,
    group: FiniteGroup,
    fourier=None,
    cfg: PipelineConfig = PipelineConfig(),
) -> RankedCandidates:
    """Rank every subgroup by total-variation distance between its predicted
    exact pipeline distribution and the observed one; ties are reported.
    A label the pipeline cannot produce raises ValueError before any
    candidate is predicted.

    The predictions are the rows of one matrix over the pipeline's outcome
    labels: the annihilator law for abelian kinds, the coset law of one
    stacked evolution for D_N.  Neither depends on an instance or its seed.
    """
    if group.order > RANK_ORDER_CAP:
        raise ResourceCapError(
            f"candidate ranking uses full subgroup enumeration, capped at order {RANK_ORDER_CAP}; "
            f"{group.name} has order {group.order}"
        )
    if fourier is None:
        fourier = fourier_transform(group)
    elif fourier.group.name != group.name:
        raise ValueError(f"Fourier transform for {fourier.group.name} does not match {group.name}")
    labels = outcome_labels(fourier, cfg)
    position = {lab: i for i, lab in enumerate(labels)}
    observed = np.zeros(len(labels))
    for lab, p in dist.as_mapping().items():
        if lab not in position:
            raise ValueError(f"label {lab!r} is not an outcome of {group.name} "
                             f"under measure_granularity {cfg.measure_granularity!r}")
        observed[position[lab]] = p
    candidates = all_subgroups(group)
    if isinstance(group, (CyclicGroup, ProductGroup)):
        predicted = annihilator_law(group, candidates, labels)
    else:
        predicted = coset_law(fourier, cfg, candidates)
    tvs = (0.5 * np.abs(predicted - observed).sum(axis=1)).tolist()
    # TVs equal in exact arithmetic may differ in the last ulp; rank them by element tuple
    order = sorted(range(len(candidates)),
                   key=lambda c: (round(tvs[c] / RANK_TIE_TOL), candidates[c].elements))
    entries = tuple((candidates[c], tvs[c]) for c in order)

    signature_groups: dict[bytes, list[int]] = {}
    signatures = np.rint(predicted[order] / RANK_TIE_TOL).astype(np.int64)
    for pos, key in enumerate(signatures):
        signature_groups.setdefault(key.tobytes(), []).append(pos)
    ties = tuple(
        tuple(positions) for positions in signature_groups.values() if len(positions) > 1
    )
    return RankedCandidates(entries, ties)
