"""Irreducible representations and the block Fourier transform.

Cyclic and product groups get their 1-dimensional characters; dihedral
groups get the closed-form family (two or four characters plus 2-dim
rotation blocks rho_k(r) = diag(w^k, w^-k), rho_k(s) = antidiag(1, 1)).
The Fourier transform F stacks the entrywise-conjugated irrep entries
row by row with per-block scaling sqrt(d/|G|), the unique scaling that
makes the stacked matrix unitary.  Phases are computed from exact
reduced angles 2*pi*(t mod M)/M so residuals stay near machine precision.

F is applied by FFT and never stored (`fourier_transform`): abelian
groups transform over their cyclic factors; for D_N every block entry
is one DFT coefficient of the rotation or the reflection half of a
column (Moore, Rockmore and Russell, quant-ph/0304064), so one length-N
FFT per half gives every row.  The dense |G| x |G| matrix
(`fourier_operator`) is built only for `fourier-check` and as a test
oracle.  Since F F^dagger = I is exactly the Schur orthogonality relations
of the scaled irrep entries, `fourier-check` reads the Schur residual off
that one product.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IntegrityError
from .groups import CyclicGroup, DihedralGroup, FiniteGroup, ProductGroup, character_pairing

CONTRAGREDIENT_UNITARITY_TOL = 1e-10


class BasisOrdering(str, enum.Enum):
    """Row ordering of the Fourier operator; blocks are row-major in (j, k)."""

    DIM_THEN_LABEL = "dim_then_label"
    LABEL = "label"
    DIM_DESC_THEN_LABEL = "dim_desc_then_label"


@dataclass(frozen=True)
class Irrep:
    """A unitary irreducible representation as a (|G|, dim, dim) matrix stack."""

    group: FiniteGroup
    label: int
    dim: int
    matrices: np.ndarray

    def matrix(self, g: int) -> np.ndarray:
        self.group.check_index(g)
        return self.matrices[g]

    def character(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)

    def max_unitarity_residual(self) -> float:
        return _unitarity_residual(self.matrices)


@dataclass(frozen=True)
class _FftPlan:
    """F = diag(scale) * gather * FFT over `axes` of the index reshaped to `shape`.

    Row r reads spectrum entry src[r]; the dihedral sign rows pair_rows
    also add pair_sign times entry pair_src.  `diagonal` marks the rows
    (i, j, j).
    """

    shape: tuple[int, ...]
    axes: tuple[int, ...]
    scale: np.ndarray
    diagonal: np.ndarray
    src: np.ndarray
    pair_rows: np.ndarray
    pair_src: np.ndarray
    pair_sign: np.ndarray


@dataclass(frozen=True)
class FourierTransform:
    """The |G| x |G| Fourier unitary F with rows indexed by (irrep label, row,
    column), applied by FFT without storing F."""

    group: FiniteGroup
    row_index: tuple[tuple[int, int, int], ...]
    normalization: tuple[tuple[int, float], ...]
    ordering: BasisOrdering

    @property
    def abelian_rows(self) -> bool:
        return all(j == 0 and k == 0 for _, j, k in self.row_index)

    @cached_property
    def _plan(self) -> _FftPlan:
        rows = np.array(self.row_index, dtype=np.int64).reshape(-1, 3)
        label, j, k = rows.T
        scales = dict(self.normalization)
        scale = np.array([scales[lab] for lab in label.tolist()])
        diagonal = j == k
        no_pairs = np.zeros(0, dtype=np.int64)
        if not isinstance(self.group, DihedralGroup):
            moduli = self.group.moduli
            axes = tuple(range(len(moduli)))
            return _FftPlan(moduli, axes, scale, diagonal, label, no_pairs, no_pairs, no_pairs)
        n = self.group.n
        signs = np.array(_dihedral_signs(n), dtype=np.int64)
        two = label >= len(signs)
        freq = label[two] - len(signs) + 1
        freq = np.where(j[two] == 0, freq, -freq) % n
        # rho_k(r^t) is diagonal and rho_k(r^t s) antidiagonal: the (j, j)
        # entries read the rotation half, the (j, 1-j) entries the reflection half
        src = np.empty(len(label), dtype=np.int64)
        src[two] = np.where(diagonal[two], 0, n) + freq
        pair_rows = np.flatnonzero(~two)
        eps = signs[label[pair_rows]]
        t = np.where(eps[:, 0] == 1, 0, n // 2)
        src[pair_rows] = t
        return _FftPlan((2, n), (1,), scale, diagonal, src, pair_rows, n + t, eps[:, 1])

    def identity_column(self) -> np.ndarray:
        """Column 0 of F, i.e. F|e>: sqrt(d_i/|G|) on the rows (i, j, j), 0 elsewhere."""
        p = self._plan
        return np.where(p.diagonal, p.scale, 0.0).astype(np.complex128)

    def apply(self, columns: np.ndarray) -> np.ndarray:
        """F @ columns for a (|G|, m) array: unnormalised FFT, gather, row scale."""
        p = self._plan
        spec = np.fft.fftn(columns.reshape(p.shape + (-1,)), axes=p.axes)
        spec = spec.reshape(columns.shape)
        out = spec[p.src]
        out[p.pair_rows] += p.pair_sign[:, None] * spec[p.pair_src]
        return p.scale[:, None] * out

    def apply_inverse(self, rows: np.ndarray) -> np.ndarray:
        """F^dagger @ rows for a (|G|, m) array: row scale, scatter-add,
        unnormalised inverse FFT."""
        p = self._plan
        scaled = p.scale[:, None] * rows
        spec = np.zeros_like(scaled)
        np.add.at(spec, p.src, scaled)
        np.add.at(spec, p.pair_src, p.pair_sign[:, None] * scaled[p.pair_rows])
        out = np.fft.ifftn(spec.reshape(p.shape + (-1,)), axes=p.axes, norm="forward")
        return out.reshape(rows.shape)


@dataclass(frozen=True)
class FourierOperator(FourierTransform):
    """A FourierTransform together with its dense |G| x |G| matrix."""

    matrix: np.ndarray

    def max_unitarity_residual(self) -> float:
        return _unitarity_residual(self.matrix)


def _unitarity_residual(a: np.ndarray) -> float:
    """max |A A^dagger - I| over a matrix or a (..., d, d) stack; the
    identity is subtracted from the product's diagonal in place."""
    d = a.shape[-1]
    prod = a @ a.conj().swapaxes(-1, -2)
    prod.reshape(prod.shape[:-2] + (d * d,))[..., :: d + 1] -= 1
    return float(np.abs(prod).max())


def _roots(denominator: int) -> np.ndarray:
    """exp(2*pi*i*t/denominator) for t = 0..denominator-1; index it by t mod denominator."""
    return np.exp(2j * np.pi * (np.arange(denominator, dtype=np.int64) / denominator))


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _dihedral_signs(n: int) -> list[tuple[int, int]]:
    """(chi(r), chi(s)) of the 1-dim irreps of D_N, in label order."""
    return [(1, 1), (1, -1)] + ([(-1, 1), (-1, -1)] if n % 2 == 0 else [])


def _inventory(group: FiniteGroup) -> list[tuple[int, int]]:
    """(label, dim) of every irrep of a built-in group kind, in label order."""
    if isinstance(group, (CyclicGroup, ProductGroup)):
        inventory = [(y, 1) for y in range(group.order)]
    elif isinstance(group, DihedralGroup):
        signs = len(_dihedral_signs(group.n))
        two_dim = (group.order - signs) // 4
        inventory = [(i, 1) for i in range(signs)]
        inventory += [(signs + k, 2) for k in range(two_dim)]
    else:
        raise ValueError(f"no closed-form irreps for group kind {type(group).__name__}")
    if sum(dim * dim for _, dim in inventory) != group.order:
        raise IntegrityError(f"irrep dimensions for {group.name} do not sum to |G|")
    return inventory


def irreps_of(group: FiniteGroup) -> list[Irrep]:
    """Complete set of inequivalent unitary irreps for a built-in group kind."""
    _inventory(group)  # refuses other group kinds
    if isinstance(group, DihedralGroup):
        return _dihedral_irreps(group)
    return _abelian_irreps(group)


def _abelian_irreps(group: FiniteGroup) -> list[Irrep]:
    """Character y at x is exp(2*pi*i*t/L) for the pairing t(x, y) of `character_pairing`."""
    idx = np.arange(group.order, dtype=np.int64)
    t, big = character_pairing(group, idx, idx)
    table = _readonly(_roots(big)[t])
    return [Irrep(group, y, 1, table[y].reshape(-1, 1, 1)) for y in range(group.order)]


def _dihedral_irreps(group: DihedralGroup) -> list[Irrep]:
    n = group.n
    idx = np.arange(group.order, dtype=np.int64)
    rot, ref = idx % n, idx // n
    signs = np.array(_dihedral_signs(n), dtype=np.float64)
    vals = (signs[:, :1] ** rot) * (signs[:, 1:] ** ref)
    out = [
        Irrep(group, label, 1, _readonly(v.astype(np.complex128).reshape(-1, 1, 1)))
        for label, v in enumerate(vals)
    ]

    # rho_k(r^t) = diag(w^kt, w^-kt) on the first half, rho_k(r^t s) its antidiagonal twin
    ks = np.arange(1, (group.order - len(signs)) // 4 + 1, dtype=np.int64)
    t = np.multiply.outer(ks, np.arange(n, dtype=np.int64)) % n
    roots = _roots(n)
    diag_pos, diag_neg = roots[t], roots[-t % n]
    mats = np.zeros((len(ks), group.order, 2, 2), dtype=np.complex128)
    mats[:, :n, 0, 0] = mats[:, n:, 0, 1] = diag_pos
    mats[:, :n, 1, 1] = mats[:, n:, 1, 0] = diag_neg
    _readonly(mats)
    out += [Irrep(group, len(signs) + i, 2, m) for i, m in enumerate(mats)]
    return out


def contragredient(irrep: Irrep) -> Irrep:
    """g -> transpose(pi(g^-1)); equals the entrywise conjugate for unitary pi."""
    if irrep.max_unitarity_residual() > CONTRAGREDIENT_UNITARITY_TOL:
        raise ValueError("contragredient requires a unitary representation")
    group = irrep.group
    inv_idx = group._inv(np.arange(group.order, dtype=np.int64))
    mats = irrep.matrices[inv_idx].transpose(0, 2, 1).copy()
    return Irrep(group, irrep.label, irrep.dim, _readonly(mats))


def _ordered(inventory: list[tuple[int, int]], ordering: BasisOrdering) -> list[tuple[int, int]]:
    if ordering is BasisOrdering.DIM_THEN_LABEL:
        return sorted(inventory, key=lambda ld: (ld[1], ld[0]))
    if ordering is BasisOrdering.LABEL:
        return sorted(inventory)
    if ordering is BasisOrdering.DIM_DESC_THEN_LABEL:
        return sorted(inventory, key=lambda ld: (-ld[1], ld[0]))
    raise ValueError(f"unknown basis ordering {ordering!r}")


def fourier_transform(
    group: FiniteGroup, ordering: BasisOrdering = BasisOrdering.DIM_THEN_LABEL
) -> FourierTransform:
    """Fourier transform applied by FFT; row (i, j, k) at column g is
    sqrt(d_i/|G|) * conj(pi_i(g))[j, k]."""
    ordering = BasisOrdering(ordering)
    inventory = _ordered(_inventory(group), ordering)
    n = group.order
    row_index = tuple(
        (label, j, k) for label, dim in inventory for j in range(dim) for k in range(dim)
    )
    normalization = tuple((label, math.sqrt(dim / n)) for label, dim in inventory)
    return FourierTransform(group, row_index, normalization, ordering)


def fourier_operator(
    group: FiniteGroup, ordering: BasisOrdering = BasisOrdering.DIM_THEN_LABEL
) -> FourierOperator:
    """`fourier_transform` plus its dense |G| x |G| matrix, built from `irreps_of`."""
    fourier = fourier_transform(group, ordering)
    irreps = {ir.label: ir for ir in irreps_of(group)}
    scales = dict(fourier.normalization)
    rows = np.empty((group.order, group.order), dtype=np.complex128)
    for pos, (label, j, k) in enumerate(fourier.row_index):
        rows[pos] = scales[label] * np.conj(irreps[label].matrices[:, j, k])
    return FourierOperator(
        group, fourier.row_index, fourier.normalization, fourier.ordering, _readonly(rows)
    )


def _residuals(group: FiniteGroup, ordering: BasisOrdering) -> dict:
    """Completeness defect and per-irrep unitarity from one `irreps_of` build,
    freed before F is built; the Schur residual is max |F F^dagger - I|,
    which no row ordering changes."""
    irreps = irreps_of(group)
    defect = sum(ir.dim * ir.dim for ir in irreps) - group.order
    unitarity = max(ir.max_unitarity_residual() for ir in irreps)
    del irreps
    return {
        "completeness_defect": defect,
        "max_schur_residual": fourier_operator(group, ordering).max_unitarity_residual(),
        "max_unitarity_residual": unitarity,
    }


def verify_representation_suite(group: FiniteGroup) -> dict:
    """Completeness, Schur orthogonality, and unitarity residuals for irreps_of."""
    return _residuals(group, BasisOrdering.DIM_THEN_LABEL)
