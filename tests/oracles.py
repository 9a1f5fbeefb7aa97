"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's computational paths:
dense Kronecker-product unitaries instead of blocked register updates,
direct cmath summation instead of FFTs, closed-form character sums,
Fraction-based convergents, and subset enumeration for subgroups.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np


def dense_pipeline_probs(
    n_g: int,
    n_h: int,
    fourier: np.ndarray,
    f_values,
    forward: bool = True,
) -> np.ndarray:
    """Left-register marginal via full (|G||H|)^2 matrices on the joint space."""
    dim = n_g * n_h
    left = np.kron(fourier, np.eye(n_h, dtype=np.complex128))
    perm = np.zeros((dim, dim), dtype=np.complex128)
    for g in range(n_g):
        for h in range(n_h):
            target = g * n_h + (f_values[g] - h) % n_h
            perm[target, g * n_h + h] = 1.0
    second = left if forward else left.conj().T
    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    psi = second @ (perm @ (left @ psi))
    probs = np.abs(psi.reshape(n_g, n_h)) ** 2
    return probs.sum(axis=1)


def direct_fourier_probs(f_values, big_q: int, forward: bool = True) -> list[float]:
    """O(Q^2) direct summation of the left-register distribution over Z_Q."""
    sign = -1.0 if forward else 1.0
    buckets: dict[int, list[int]] = {}
    for g, v in enumerate(f_values):
        buckets.setdefault(int(v), []).append(g)
    probs = []
    for y in range(big_q):
        total = 0.0
        for members in buckets.values():
            amp = sum(
                cmath.exp(sign * 2j * cmath.pi * ((g * y) % big_q) / big_q)
                for g in members
            ) / big_q
            total += abs(amp) ** 2
        probs.append(total)
    return probs


def mixed_radix_coords(moduli, a: int) -> tuple[int, ...]:
    """Coordinates of index a, first factor most significant."""
    out = []
    for m in reversed(moduli):
        a, r = divmod(a, m)
        out.append(r)
    return tuple(reversed(out))


def character_trivial_on(moduli, y: int, k: int) -> bool:
    """Whether character chi_y is 1 on element k: sum_c y_c k_c / m_c is an integer."""
    big = math.lcm(*moduli)
    t = sum(
        yi * ki * (big // m)
        for yi, ki, m in zip(mixed_radix_coords(moduli, y), mixed_radix_coords(moduli, k), moduli)
    )
    return t % big == 0


def kernel_intersection(moduli, outcomes) -> tuple[int, ...]:
    """Elements on which every character chi_y, y in `outcomes`, is 1, pair by pair."""
    return tuple(
        k
        for k in range(math.prod(moduli))
        if all(character_trivial_on(moduli, y, k) for y in outcomes)
    )


def character_kernel_probs(moduli, hidden_elements) -> dict[int, float]:
    """Closed form for abelian instances: uniform on the annihilator of K.

    p(y) = |K|/|G| exactly when chi_y is trivial on K, else 0.
    """
    order = math.prod(moduli)
    probs = {}
    weight = len(hidden_elements) / order
    for y in range(order):
        annihilates = all(character_trivial_on(moduli, y, k) for k in hidden_elements)
        probs[y] = weight if annihilates else 0.0
    return probs


def convergents_of(y: int, big_q: int) -> list[Fraction]:
    """All continued-fraction convergents of y/Q via exact Fraction arithmetic."""
    coefficients = []
    num, den = y, big_q
    while den:
        a, rem = divmod(num, den)
        coefficients.append(a)
        num, den = den, rem
    out = []
    for k in range(1, len(coefficients) + 1):
        value = Fraction(coefficients[k - 1])
        for a in reversed(coefficients[: k - 1]):
            value = a + 1 / value
        out.append(Fraction(value))
    return out


def reference_period_denominator(y: int, big_q: int, n: int) -> int | None:
    """Smallest convergent denominator d < n with |y/Q - c/d| <= 1/(2Q)."""
    if y == 0:
        return None
    window = Fraction(1, 2 * big_q)
    target = Fraction(y, big_q)
    qualifying = [
        c.denominator
        for c in convergents_of(y, big_q)
        if c.denominator < n and abs(target - c) <= window
    ]
    return min(qualifying) if qualifying else None


def subgroups_by_subsets(op, order: int) -> list[tuple[int, ...]]:
    """All subgroups of a tiny group by checking every identity-containing subset."""
    elements = list(range(1, order))
    found = []
    for size in range(0, order):
        for combo in itertools.combinations(elements, size):
            subset = (0,) + combo
            sset = set(subset)
            if all(op(a, b) in sset for a in subset for b in subset):
                found.append(subset)
    return found


def closure_by_pairs(op, generators) -> tuple[int, ...]:
    """Subgroup generated by `generators`: add all pairwise products until none is new."""
    found = {0, *generators}
    while True:
        grown = found | {op(a, b) for a in found for b in found}
        if grown == found:
            return tuple(sorted(found))
        found = grown


def is_closed_by_pairs(op, elements) -> bool:
    """Whether every pairwise product of the set stays in it."""
    eset = set(elements)
    return all(op(a, b) in eset for a in eset for b in eset)


def is_normal_by_conjugation(op, inv, conjugators, elements) -> bool:
    """Whether g k g^-1 lies in K for every g in `conjugators` and every k in K."""
    eset = set(elements)
    return all(op(op(g, k), inv(g)) in eset for g in conjugators for k in eset)


def multiplicative_order(base: int, modulus: int) -> int:
    value, r = base % modulus, 1
    while value != 1:
        value = (value * base) % modulus
        r += 1
    return r
