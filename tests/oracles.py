"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the package's computational paths:
dense Kronecker-product unitaries instead of blocked register updates,
direct cmath summation instead of FFTs, closed-form character sums,
irreps written element by element, Fraction-based convergents, subset
enumeration for subgroups, per-point Python loops for the
period-finding tables and peak mass, and one join per outcome label.
Four oracles keep a package formula that a faster path replaced: the
digit-wise product of mixed-radix indices, numpy's n-dimensional FFT for
the Fourier transform, one length-Q real FFT per level set for the
period-finding law, and one coset product per coset for the coset ids.
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
) -> np.ndarray:
    """Left-register marginal via full (|G||H|)^2 matrices on the joint space."""
    dim = n_g * n_h
    left = np.kron(fourier, np.eye(n_h, dtype=np.complex128))
    perm = np.zeros((dim, dim), dtype=np.complex128)
    for g in range(n_g):
        for h in range(n_h):
            target = g * n_h + (f_values[g] - h) % n_h
            perm[target, g * n_h + h] = 1.0
    psi = np.zeros(dim, dtype=np.complex128)
    psi[0] = 1.0
    psi = left @ (perm @ (left @ psi))
    probs = np.abs(psi.reshape(n_g, n_h)) ** 2
    return probs.sum(axis=1)


def blackbox_by_loops(f_values, n_h: int, amplitudes: np.ndarray) -> np.ndarray:
    """|g>|h> -> |g>|f(g) h^-1> on a (|G|, |H|) array, one basis state at a
    time, with the codomain Z_{n_h} written additively."""
    out = np.zeros_like(amplitudes)
    for g in range(len(f_values)):
        for h in range(n_h):
            out[g, (f_values[g] - h) % n_h] = amplitudes[g, h]
    return out


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


def composed_table(base: int, modulus: int, reps) -> tuple[int, ...]:
    """f~(q) = base^tau(q) mod modulus, one Python pow per representative."""
    return tuple(pow(base, int(rep), modulus) for rep in reps)


def spectrum_by_full_length_rffts(reps, powers, big_q: int) -> np.ndarray:
    """Left-register probabilities over Z_Q before clamping: one rfft of length
    Q per non-empty class of reps mod r (r = len(powers)), summed in ascending
    order of powers[k], its Q//2+1 half spectrum mirrored to length Q."""
    classes = np.asarray(reps, dtype=np.int64) % len(powers)
    half = np.zeros(big_q // 2 + 1)
    for k in np.argsort(powers):
        indicator = (classes == k).astype(np.float64)
        if indicator.any():
            half += np.abs(np.fft.rfft(indicator)) ** 2
    half /= big_q * big_q
    return np.concatenate([half, half[1:(big_q + 1) // 2][::-1]])


def peak_mass_by_windows(labels, probs, r: int, q: int) -> float:
    """Mass on labels y with min_j 2*|r*y - j*Q| <= r, label by label in Python ints."""
    total = 0.0
    for label, p in zip(labels, probs):
        y = int(label)
        j0 = round(r * y / q)
        best = min(abs(r * y - j * q) for j in (j0 - 1, j0, j0 + 1))
        if 2 * best <= r:
            total += float(p)
    return total


def product_op_by_digits(moduli, a, b):
    """The product of mixed-radix indices a and b (ints or broadcastable int64
    arrays): split each into its coordinates a // w_c % m_c, add them mod m_c
    and recombine with the place values w_c."""
    m = np.array(moduli, dtype=np.int64)
    w = np.array([math.prod(moduli[c + 1:]) for c in range(len(moduli))], dtype=np.int64)
    return (np.asarray(a)[..., None] // w + np.asarray(b)[..., None] // w) % m @ w


def coset_ids_by_cosets(group, subgroup) -> np.ndarray:
    """The coset ids, one `_op` per coset: the least element not yet placed
    is the least of its coset, and its coset gK takes the next id."""
    kel = np.array(subgroup.elements, dtype=np.int64)
    ids = np.full(group.order, -1, dtype=np.int64)
    g = 0
    for c in range(subgroup.num_cosets):
        while ids[g] >= 0:
            g += 1
        ids[group._op(g, kel)] = c
    return ids


def fourier_by_fftn(fourier, columns: np.ndarray) -> np.ndarray:
    """F @ columns through numpy's fftn over the transform plan's axes, with
    the plan's gather of spectrum entries and its row scale."""
    plan, scale = fourier._plan, fourier._layout.scale[:, None]
    spec = np.fft.fftn(columns.reshape(plan.shape + (-1,)), axes=plan.axes).reshape(columns.shape)
    out = spec[plan.src]
    out[plan.pair_rows] += plan.pair_sign[:, None] * spec[plan.pair_src]
    return scale * out


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


def abelian_irreps(moduli) -> list[tuple[int, int, list]]:
    """(label y, 1, [[[chi_y(x)]] for each x]) with chi_y(x) = exp(2 pi i sum_c x_c y_c / m_c),
    element by element from the coordinate pairing."""
    order = math.prod(moduli)
    big = math.lcm(*moduli)
    out = []
    for y in range(order):
        ys = mixed_radix_coords(moduli, y)
        mats = []
        for x in range(order):
            xs = mixed_radix_coords(moduli, x)
            t = sum(xi * yi * (big // m) for xi, yi, m in zip(xs, ys, moduli)) % big
            mats.append([[cmath.exp(2j * cmath.pi * t / big)]])
        out.append((y, 1, mats))
    return out


def dihedral_irreps(n: int) -> list[tuple[int, int, list]]:
    """(label, dim, [pi(g) for each g]) for D_N, element index t + N b for r^t s^b.

    The sign characters chi(r^t s^b) = e_r^t e_s^b come first, then rho_k for
    k = 1 .. (N-1)//2 with rho_k(r^t) = diag(w^kt, w^-kt) and
    rho_k(r^t s) = [[0, w^kt], [w^-kt, 0]], w = exp(2 pi i / N).
    """
    signs = [(1, 1), (1, -1)] + ([(-1, 1), (-1, -1)] if n % 2 == 0 else [])
    elements = [(t, b) for b in (0, 1) for t in range(n)]
    out = [
        (label, 1, [[[complex(e_r**t * e_s**b)]] for t, b in elements])
        for label, (e_r, e_s) in enumerate(signs)
    ]
    for k in range(1, (n - 1) // 2 + 1):
        mats = []
        for t, b in elements:
            up = cmath.exp(2j * cmath.pi * (k * t % n) / n)
            down = cmath.exp(-2j * cmath.pi * (k * t % n) / n)
            mats.append([[up, 0], [0, down]] if b == 0 else [[0, up], [down, 0]])
        out.append((len(signs) + k - 1, 2, mats))
    return out


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


def rank_by_pipeline(observed: dict, candidates, predict, tol: float = 1e-12):
    """Rank candidate element tuples by total variation, one prediction at a time.

    `predict(elements)` gives a candidate's law as a dict keyed by outcome
    label, in one label order for every candidate.  Returns the entries
    [(elements, tv)] sorted by (round(tv / tol), elements) and the tie
    classes: runs of entry positions whose rounded predictions agree, in
    order of first position.
    """
    scored = []
    for elements in candidates:
        pred = predict(elements)
        keys = set(pred) | set(observed)
        tv = 0.5 * sum(abs(pred.get(k, 0.0) - observed.get(k, 0.0)) for k in keys)
        scored.append((tv, tuple(elements), pred))
    scored.sort(key=lambda entry: (round(entry[0] / tol), entry[1]))
    classes: dict[tuple, list[int]] = {}
    for pos, (_, _, pred) in enumerate(scored):
        classes.setdefault(tuple(round(p / tol) for p in pred.values()), []).append(pos)
    ties = tuple(tuple(c) for c in classes.values() if len(c) > 1)
    return [(elements, tv) for tv, elements, _ in scored], ties


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


def label_str(label) -> str:
    """An outcome label as text, one part at a time: "i:j:k" or the integer."""
    if isinstance(label, tuple):
        return ":".join(str(int(x)) for x in label)
    return str(int(label))
