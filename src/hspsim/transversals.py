"""Transversals of Z -> Z_Q and period finding over the finite image Z_Q.

A transversal tau picks one integer representative per residue class
modulo Q, so tau(q) mod Q = q.  The integer line is never materialized:
the representative table is a read-only int64 array of length Q.  Since
a^r = 1 mod N for the period r, the composed table f~(q) = a^tau(q) mod N
is the lookup A[tau mod r] into the power table
A = (a^0, ..., a^(r-1)) mod N, doubled until its first 1 after k = 0
(so never longer than 2r): its length is the period.  A is injective on
Z_r, so the level sets of f~ are the residue classes of tau mod r, and
the pipeline reads them off tau without building f~.  Whatever the
transversal, each class lies on one coset of gcd(Q, r)Z_Q and takes one
rfft of length Q/gcd(Q, r).  The canonical transversal maps q to its
least non-negative representative; the adversarial family adds per-point
offsets q + Q*m_q, which keeps the section property while generically
destroying the periodicity of f~.
Representatives must fit in int64, so an offset bound B needs Q*B <= 2^63.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .engine import OutcomeDistribution, check_state_size, finalize_distribution
from .errors import ConfigError

PERIOD_STATE_CAP = 1 << 22
REPRESENTATIVE_LIMIT = 1 << 63


@dataclass(frozen=True, eq=False)
class Transversal:
    """Integer representatives tau(q) of the residues q = 0..Q-1, with Q = len(table).

    `table` may be given as any integer sequence; it is stored as a
    read-only int64 array.
    """

    table: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.table)
        if raw.size and raw.dtype.kind not in "iu":
            raise ValueError("transversal representatives must be integers that fit in int64")
        table = np.array(raw, dtype=np.int64)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        q = len(table)
        bad = np.flatnonzero((table < 0) | (table % max(q, 1) != np.arange(q)))
        if bad.size:
            # distinct residues imply injectivity, so only a failing table can repeat
            ordered = np.sort(table)
            if (ordered[1:] == ordered[:-1]).any():
                raise ValueError("transversal table is not injective")
            i = int(bad[0])
            raise ValueError(f"representative {table[i]} does not reduce to {i} modulo {q}")


def shor_transversal(q: int) -> Transversal:
    """Least non-negative representatives of Z_q inside the integers."""
    if q < 1:
        raise ValueError(f"quotient order must be positive, got {q}")
    return Transversal(np.arange(q))


def check_offset_bound(q: int, bound: int, key: str = "bound") -> None:
    """Representatives i + q*m with m < bound are int64, so q*bound <= 2^63;
    `key` names the config field that gave the bound."""
    if q * bound > REPRESENTATIVE_LIMIT:
        raise ConfigError(f"field {key!r}: Q*bound = {q}*{bound} exceeds 2^63, "
                          "the int64 range of the representatives")


def offset_transversal(q: int, bound: int, seed: int) -> Transversal:
    """tau(i) = i + q*m_i with m_i drawn uniformly from [0, bound)."""
    if q < 1:
        raise ValueError(f"quotient order must be positive, got {q}")
    if bound < 1:
        raise ValueError(f"offset bound must be at least 1, got {bound}")
    check_offset_bound(q, bound)
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, bound, size=q)
    return Transversal(np.arange(q) + q * offsets)


@dataclass(frozen=True)
class PeriodicInstance:
    """Modular exponentiation x -> a^x mod N approximated over Z_Q.  The rules on
    N, a and Q are stated here alone, naming the config fields they check."""

    modulus: int
    base: int
    q: int
    allow_any_q: bool = False

    def __post_init__(self):
        if self.base < 1:
            raise ValueError(f"base must be positive, got {self.base}")
        if self.base >= self.modulus:
            raise ConfigError(f"field 'a': base {self.base} must be below N = {self.modulus}")
        if math.gcd(self.base, self.modulus) != 1:
            raise ConfigError(
                f"field 'a': gcd({self.base}, {self.modulus}) != 1, base must be coprime"
            )
        if self.q < 1:
            raise ValueError(f"Q must be positive, got {self.q}")
        if not self.allow_any_q and self.q & (self.q - 1):
            raise ConfigError(
                f"field 'Q': {self.q} is not a power of two (set allow_any_q to override)"
            )
        check_state_size(self.q, self.modulus, PERIOD_STATE_CAP)

    @cached_property
    def powers(self) -> np.ndarray:
        """A[k] = a^k mod N for k = 0..r-1, read-only; products stay below N^2."""
        n, table = self.modulus, np.ones(1, dtype=np.int64)
        # doubled until the first 1 after k = 0: a^(L+k) = a^k a^L for L = len(table)
        while not (ones := np.flatnonzero(table[1:] == 1)).size:
            table = np.concatenate([table, table * (int(table[-1]) * self.base % n) % n])
        table = table[:ones[0] + 1].copy()
        table.flags.writeable = False
        return table

    @property
    def period(self) -> int:
        return len(self.powers)


@dataclass(frozen=True, eq=False)
class ApproximateFunction:
    """Composed table f~(q) = A[tau(q) mod r], held as its level sets: the class
    tau(q) mod r of each q and the power table A, both read-only int64 arrays."""

    classes: np.ndarray
    powers: np.ndarray

    @cached_property
    def values(self) -> np.ndarray:
        """f~ itself, a read-only int64 array, built on first read."""
        values = self.powers[self.classes]
        values.flags.writeable = False
        return values


def approximate_function(instance: PeriodicInstance, tau: Transversal) -> ApproximateFunction:
    if len(tau.table) != instance.q:
        raise ValueError(
            f"transversal has quotient order {len(tau.table)}, instance expects {instance.q}"
        )
    classes = tau.table % instance.period
    classes.flags.writeable = False
    return ApproximateFunction(classes, instance.powers)


def _spectrum(instance: PeriodicInstance, tau: Transversal) -> np.ndarray:
    """Left-register probabilities over Z_Q, before `finalize_distribution`.

    g = gcd(Q, r) divides Q and r, so class k of tau mod r lies on the coset
    k + gZ_Q, and its |DFT|^2 over Z_Q is that of its length m = Q/g
    subsequence, repeated g times.  The non-empty classes are summed in
    ascending order of a^k mod N, each as one float64 indicator of length m.
    """
    q = instance.q
    f = approximate_function(instance, tau)
    sizes = np.bincount(f.classes, minlength=len(f.powers))
    g = math.gcd(q, len(f.powers))
    m = q // g
    half = np.zeros(m // 2 + 1)
    indicator = np.empty(m)
    for k in np.argsort(f.powers):
        if sizes[k]:
            np.equal(f.classes[k % g::g], k, out=indicator)
            half += np.abs(np.fft.rfft(indicator)) ** 2
    half /= q * q
    return np.concatenate([half, half[1:(m + 1) // 2][::-1]] * g)


def shor_pipeline(instance: PeriodicInstance, tau: Transversal) -> OutcomeDistribution:
    """Exact left-register distribution over Z_Q for the composed table f~.

    Identical to running the two-register pipeline on domain Z_Q with right
    register Z_N: the sum over the level sets S of f~ of |DFT(1_S)|^2 / Q^2.
    Each level set lies on a coset of gZ_Q, g = gcd(Q, r), and its indicator
    is real: one rfft of length m = Q/g, mirrored by |X[m-y]| = |X[y]|.
    """
    return finalize_distribution(range(instance.q), _spectrum(instance, tau))


def _in_windows(labels: np.ndarray, r: int, q: int) -> np.ndarray:
    """Whether min_j |y - j*Q/r| <= 1/2 for each label y, in exact integer
    arithmetic as 2*min(d, Q - d) <= r for d = r*y mod Q."""
    if r < 1:
        raise ValueError(f"period must be positive, got {r}")
    if q < 1:
        raise ValueError(f"Q must be positive, got {q}")
    if labels.size and r * max(int(np.abs(labels).max()), q) >= 1 << 52:
        raise ValueError(f"r*y and Q must stay below 2^52 for exact windows (r={r}, Q={q})")
    d = r * labels
    d %= q
    np.minimum(d, q - d, out=d)
    return 2 * d <= r


def peak_mass(dist: OutcomeDistribution, r: int, q: int) -> float:
    """Total probability within half-integer windows of the multiples j*Q/r,
    for all labels at once, summed in label order.  A range of labels, as
    `shor_pipeline` gives, is read as one arange, not element by element."""
    labels = dist.labels
    if isinstance(labels, range):
        labels = np.arange(labels.start, labels.stop, labels.step)
    labels = np.asarray(labels, dtype=np.int64)
    selected = np.where(_in_windows(labels, r, q), np.asarray(dist.probs, dtype=np.float64), 0.0)
    return float(np.cumsum(selected)[-1]) if selected.size else 0.0


def transversal_quality_sweep(
    instance: PeriodicInstance, bound: int, seeds
) -> list[tuple[int, float, float]]:
    """Peak mass of the canonical transversal versus seeded offset transversals.

    Each value equals `peak_mass(shor_pipeline(instance, tau), r, Q)`: the
    window outcomes are found once, and each transversal's probabilities
    are summed over them in ascending order.
    """
    r, q = instance.period, instance.q
    windows = np.flatnonzero(_in_windows(np.arange(q), r, q))

    def mass(tau: Transversal) -> float:
        probs = finalize_distribution(range(q), _spectrum(instance, tau)).probs
        return float(np.cumsum(probs[windows])[-1])

    reference = mass(shor_transversal(q))
    return [(int(seed), reference, mass(offset_transversal(q, bound, seed))) for seed in seeds]
