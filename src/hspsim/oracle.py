"""Hidden-subgroup instances and the two-register blackbox permutation.

An instance fixes a group G, a hidden subgroup K, and a map f: G -> H
that factors through the coset space: f is constant on each left coset
of K and injective across cosets.  `build_instance` takes H = Z_M with
M = |G|/|K|, and f a seed-chosen bijection of the cosets onto Z_M read
at the coset ids of `groups.coset_ids`, which number the cosets by their
least element; a hand-built instance may take a wider codomain.  The
group structure of H never influences the left-register statistics.
The blackbox acts on the G x H basis by |g>|h> -> |g>|f(g) h^-1>; the
engine applies it to |psi1>|e> only, as one scatter of psi1 onto the
level sets of `f_table`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrityError
from .groups import CyclicGroup, FiniteGroup, Subgroup, coset_ids


@dataclass(frozen=True)
class HspInstance:
    """G, its hidden subgroup K, the codomain H and f as the table g -> f(g) in H."""

    group: FiniteGroup
    hidden: Subgroup
    codomain: CyclicGroup
    f_table: np.ndarray


def build_instance(group: FiniteGroup, hidden: Subgroup, seed: int) -> HspInstance:
    """Instance with f a seed-chosen bijection of the coset space onto Z_|G/K|."""
    m = hidden.num_cosets
    f_table = np.random.default_rng(seed).permutation(m)[coset_ids(group, hidden)]
    f_table.flags.writeable = False
    return HspInstance(group, hidden, CyclicGroup(m), f_table)


def classical_brute_force_hsp(instance: HspInstance) -> Subgroup:
    """Ground-truth recovery: the stabilizer set {g : f(g) = f(e)}.

    Validates that the set is a subgroup and that f is constant on its
    left cosets with distinct values across cosets.
    """
    f = instance.f_table
    group = instance.group
    try:
        candidate = Subgroup.from_elements(group, np.flatnonzero(f == f[0]))
    except ValueError as exc:
        raise IntegrityError(f"f-stabilizer is not a subgroup: {exc}") from exc
    ids = coset_ids(group, candidate)
    # one value per coset; if a coset holds two values, some element differs from its entry
    values = np.empty(candidate.num_cosets, dtype=np.int64)
    values[ids] = f
    if not np.array_equal(values[ids], f):
        raise IntegrityError("f is not constant on a left coset of its stabilizer")
    if len(set(values.tolist())) != len(values):
        raise IntegrityError("f repeats a value across distinct cosets")
    return candidate
