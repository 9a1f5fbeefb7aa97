"""Classical post-processing of measurement outcomes.

Abelian outcomes are character indices; the hidden subgroup is the
intersection of the sampled character kernels (for bit-vector groups,
equivalently the GF(2) null space of the sample span).  Period finding
extracts candidate denominators from continued-fraction convergents in
exact integer arithmetic.  A result is confirmed only by an independent
check: the full exact support not shrinking the candidate, or the
modular identity a^r = 1; never by sample count alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import OutcomeDistribution, PipelineConfig, run_pipeline
from .errors import ResourceCapError
from .groups import CyclicGroup, FiniteGroup, ProductGroup, Subgroup, all_subgroups
from .oracle import build_instance
from .representations import fourier_transform

RANK_TIE_TOL = 1e-12


@dataclass(frozen=True)
class SampleSet:
    """Measurement outcomes (character indices) in an abelian group context."""

    group: FiniteGroup
    outcomes: tuple[int, ...]

    def __post_init__(self):
        for y in self.outcomes:
            self.group.check_index(y)


@dataclass(frozen=True)
class RecoveryResult:
    candidate: Subgroup
    confirmed: bool
    samples_used: int


@dataclass(frozen=True)
class PeriodEstimate:
    period: int | None
    confirmed: bool
    samples_used: int


@dataclass(frozen=True)
class RankedCandidates:
    """Subgroup candidates sorted by distance to an observed distribution.

    ``tie_classes`` groups entry positions whose predicted distributions
    are numerically identical and therefore indistinguishable.
    """

    entries: tuple[tuple[Subgroup, float], ...]
    tie_classes: tuple[tuple[int, ...], ...]


def _character_pairing_trivial(group: FiniteGroup, y: int, k: int) -> bool:
    """Whether character y takes the value 1 on element k (exact integers)."""
    if isinstance(group, CyclicGroup):
        return (y * k) % group.n == 0
    if isinstance(group, ProductGroup):
        mods = group.moduli
        big = math.lcm(*mods)
        yc, kc = group.coords(y), group.coords(k)
        t = sum((yi * ki) * (big // m) for yi, ki, m in zip(yc, kc, mods))
        return t % big == 0
    raise ValueError(f"character sieve needs an abelian built-in group, got {group.name}")


def _kernel_intersection(group: FiniteGroup, outcomes) -> tuple[int, ...]:
    distinct = sorted(set(outcomes))
    return tuple(
        k
        for k in range(group.order)
        if all(_character_pairing_trivial(group, y, k) for y in distinct)
    )


def character_sieve(samples: SampleSet, full_support=None) -> RecoveryResult:
    """K = intersection of ker(chi_y) over sampled y; confirmed when the
    full exact-distribution support would not shrink it further."""
    group = samples.group
    elems = _kernel_intersection(group, samples.outcomes)
    candidate = Subgroup.from_elements(group, elems)
    confirmed = False
    if full_support is not None:
        widened = _kernel_intersection(group, tuple(samples.outcomes) + tuple(full_support))
        confirmed = widened == elems
    return RecoveryResult(candidate, confirmed, len(samples.outcomes))


def _as_bit_rows(group: ProductGroup, outcomes) -> np.ndarray:
    rows = [group.coords(y) for y in outcomes]
    return np.array(rows, dtype=np.uint8).reshape(len(rows), len(group.moduli))


def _gf2_rref(matrix: np.ndarray) -> tuple[np.ndarray, list[int]]:
    a = (matrix & 1).astype(np.uint8).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def _gf2_nullspace_basis(matrix: np.ndarray, n: int) -> list[np.ndarray]:
    if matrix.size == 0:
        return [np.eye(n, dtype=np.uint8)[i] for i in range(n)]
    rref, pivots = _gf2_rref(matrix)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for c in free:
        v = np.zeros(n, dtype=np.uint8)
        v[c] = 1
        for row, pc in zip(rref, pivots):
            if row[c]:
                v[pc] = 1
        basis.append(v)
    return basis


def _nullspace_elements(group: ProductGroup, outcomes) -> tuple[int, ...]:
    n = len(group.moduli)
    rows = _as_bit_rows(group, sorted(set(outcomes)))
    members = np.zeros(1, dtype=np.int64)
    for b in _gf2_nullspace_basis(rows, n):
        # the coordinates are bits, so the index of a sum is the XOR of the indices
        members = np.concatenate([members, members ^ group.index_of(b)])
    return tuple(np.sort(members).tolist())


def simon_solve(samples: SampleSet, full_support=None) -> RecoveryResult:
    """Null space, over the 2-element field, of the span of the samples."""
    group = samples.group
    if not isinstance(group, ProductGroup) or any(m != 2 for m in group.moduli):
        raise ValueError(f"simon_solve needs a Z2^n context, got {group.name}")
    elems = _nullspace_elements(group, samples.outcomes)
    candidate = Subgroup.from_elements(group, elems)
    confirmed = False
    if full_support is not None:
        widened = _nullspace_elements(group, tuple(samples.outcomes) + tuple(full_support))
        confirmed = widened == elems
    return RecoveryResult(candidate, confirmed, len(samples.outcomes))


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
    """LCM of per-sample candidate denominators, validated by a^r = 1 mod N."""
    outcomes = tuple(outcomes)
    candidates = []
    for y in outcomes:
        d = continued_fraction_period(int(y), big_q, n)
        if d is not None:
            candidates.append(d)
    if not candidates:
        return PeriodEstimate(None, False, len(outcomes))
    r = math.lcm(*candidates)
    confirmed = pow(base, r, n) == 1
    return PeriodEstimate(r, confirmed, len(outcomes))


def subgroup_consistency_rank(
    dist: OutcomeDistribution,
    group: FiniteGroup,
    fourier=None,
    cfg: PipelineConfig = PipelineConfig(),
    instance_seed: int = 0,
) -> RankedCandidates:
    """Rank every subgroup by total-variation distance between its predicted
    exact pipeline distribution and the observed one; ties are reported."""
    if group.order > 32:
        raise ResourceCapError(
            f"candidate ranking uses full subgroup enumeration, capped at order 32; "
            f"{group.name} has order {group.order}"
        )
    if fourier is None:
        fourier = fourier_transform(group)
    scored = []
    for k in all_subgroups(group):
        pred = run_pipeline(build_instance(group, k, instance_seed), fourier, cfg)
        scored.append((dist.total_variation(pred), k, pred))
    scored.sort(key=lambda entry: (entry[0], entry[1].elements))
    entries = tuple((k, tv) for tv, k, _ in scored)

    signature_groups: dict[tuple, list[int]] = {}
    for pos, (_, _, pred) in enumerate(scored):
        key = tuple(int(round(p / RANK_TIE_TOL)) for p in pred.probs)
        signature_groups.setdefault(key, []).append(pos)
    ties = tuple(
        tuple(positions) for positions in signature_groups.values() if len(positions) > 1
    )
    return RankedCandidates(entries, ties)
