"""Irreducible representations and the block Fourier transform.

Cyclic and product groups have 1-dimensional characters; dihedral groups
have two or four characters plus 2-dim rotation blocks
rho_k(r) = diag(w^k, w^-k), rho_k(s) = antidiag(1, 1).  F stacks the
entrywise-conjugated irrep entries row by row, scaled by sqrt(d/|G|).

A `FourierTransform` is a group; its layout, numpy arrays built on first
use, is the one statement of which irrep entry (i, j, k) sits in which row
at scale sqrt(d_i/|G|), blocks by dimension then label.  The FFT plan reads
it (Moore, Rockmore and Russell, quant-ph/0304064: each D_N block entry
is one DFT coefficient of the rotation or the reflection half of a
column), so the run path makes no Python object per row.  The irreps
and the dense F (`fourier-check`, tests) are the run's own core applied
to the identity: its unscaled output on the columns e_g, conjugated, is
the entry table T[(i, j, k), g] = pi_i(g)[j, k], and F = diag(scale) conj(T)
is `apply(I)` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import IntegrityError, ResourceCapError
from .groups import MAX_TABLE_ORDER, CyclicGroup, DihedralGroup, FiniteGroup, ProductGroup

# identity columns per block of the entry table: freeing whole-table temporaries
# raised the allocator's mmap threshold and `irreps` D1024 peak RSS by about 10 MB
_ENTRY_COLUMNS = 128
# rows per block of the Gram F F^dagger: 2 * 16 * 512 * |G| bytes beside F
_GRAM_ROWS = 512


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
        """max over g of |pi(g) pi(g)^dagger - I|, in one einsum (not one matmul per g)."""
        prod = np.einsum("gjk,glk->gjl", self.matrices, self.matrices.conj())
        prod -= np.eye(self.dim)
        return float(np.abs(prod).max())


@dataclass(frozen=True)
class _FftPlan:
    """F = diag(scale) * gather * FFT over `axes` of the index reshaped to `shape`.

    Row r reads spectrum entry src[r]; the dihedral sign rows pair_rows
    also add pair_sign times entry pair_src.
    """

    shape: tuple[int, ...]
    axes: tuple[int, ...]
    src: np.ndarray
    pair_rows: np.ndarray
    pair_src: np.ndarray
    pair_sign: np.ndarray


@dataclass(frozen=True)
class _Layout:
    """Row layout of F: the irrep blocks (labels, dims) in row order, and per row
    its block, its entry (label, j, k) as a column of `rows`, and sqrt(d/|G|)."""

    labels: np.ndarray
    dims: np.ndarray
    block: np.ndarray
    rows: np.ndarray
    scale: np.ndarray


@dataclass(frozen=True)
class FourierTransform:
    """The |G| x |G| Fourier unitary F with rows indexed by (irrep label, row,
    column), applied by FFT without storing F."""

    group: FiniteGroup

    @cached_property
    def _layout(self) -> _Layout:
        labels, dims = _inventory(self.group)
        size = dims * dims
        block = np.repeat(np.arange(len(size)), size)
        dim = dims[block]
        j, k = np.divmod(np.arange(len(block)) - (np.cumsum(size) - size)[block], dim)
        rows = np.stack([labels[block], j, k])
        return _Layout(labels, dims, block, rows, np.sqrt(dim / self.group.order))

    @cached_property
    def row_index(self) -> tuple[tuple[int, int, int], ...]:
        """(label, j, k) of each row as Python ints, built only when read."""
        return tuple(zip(*self._layout.rows.tolist()))

    @cached_property
    def _plan(self) -> _FftPlan:
        label, j, k = self._layout.rows
        no_pairs = np.zeros(0, dtype=np.int64)
        if not isinstance(self.group, DihedralGroup):
            moduli = self.group.moduli
            return _FftPlan(moduli, tuple(range(len(moduli))), label, no_pairs, no_pairs, no_pairs)
        n = self.group.n
        signs = np.array(_dihedral_signs(n), dtype=np.int64)
        two = label >= len(signs)
        freq = label[two] - len(signs) + 1
        freq = np.where(j[two] == 0, freq, -freq) % n
        # rho_k(r^t) is diagonal and rho_k(r^t s) antidiagonal: the (j, j)
        # entries read the rotation half, the (j, 1-j) entries the reflection half
        src = np.empty(len(label), dtype=np.int64)
        src[two] = np.where(j[two] == k[two], 0, n) + freq
        pair_rows = np.flatnonzero(~two)
        eps = signs[label[pair_rows]]
        t = np.where(eps[:, 0] == 1, 0, n // 2)
        src[pair_rows] = t
        return _FftPlan((2, n), (1,), src, pair_rows, n + t, eps[:, 1])

    def identity_column(self) -> np.ndarray:
        """Column 0 of F, i.e. F|e>: sqrt(d_i/|G|) on the rows (i, j, j), 0 elsewhere."""
        _, j, k = self._layout.rows
        return np.where(j == k, self._layout.scale, 0.0).astype(np.complex128)

    def apply(self, columns: np.ndarray) -> np.ndarray:
        """F @ columns for a (|G|, m) array, which is left as it was: the
        forward core on a C-ordered complex128 copy."""
        return self._apply_in_place(self._copy(columns))

    def apply_inverse(self, rows: np.ndarray) -> np.ndarray:
        """F^dagger @ rows for a (|G|, m) array, which is left as it was: the
        inverse core on a C-ordered complex128 copy."""
        return self._apply_inverse_in_place(self._copy(rows))

    def _copy(self, x: np.ndarray) -> np.ndarray:
        """A C-ordered complex128 copy of x, refused unless its shape is (|G|, m)."""
        if x.ndim != 2 or x.shape[0] != self.group.order:
            raise ValueError(
                f"expected a (|G|, m) = ({self.group.order}, m) array, got shape {x.shape}")
        return x.astype(np.complex128, order="C")

    def _unscaled_in_place(self, state: np.ndarray) -> np.ndarray:
        """conj(T) @ state for a C-ordered complex128 (|G|, m) state, which it
        overwrites: unnormalised FFT in place, then the plan's gather."""
        p = self._plan
        _fft_axes(state.reshape(p.shape + (-1,)), p.axes, np.fft.fft)
        out = state[p.src]
        out[p.pair_rows] += p.pair_sign[:, None] * state[p.pair_src]
        return out

    def _apply_in_place(self, state: np.ndarray) -> np.ndarray:
        """F @ state for a C-ordered complex128 (|G|, m) state, which it
        overwrites: the unscaled core, then the row scale in place."""
        out = self._unscaled_in_place(state)
        out *= self._layout.scale[:, None]
        return out

    def _apply_inverse_in_place(self, state: np.ndarray) -> np.ndarray:
        """F^dagger @ state for a C-ordered complex128 (|G|, m) state, which it
        overwrites: row scale in place, scatter-add, unnormalised inverse FFT
        in place on the spectrum, after dropping the scattered state."""
        p = self._plan
        state *= self._layout.scale[:, None]
        spec = np.zeros(state.shape, dtype=np.complex128)
        np.add.at(spec, p.src, state)
        np.add.at(spec, p.pair_src, p.pair_sign[:, None] * state[p.pair_rows])
        del state
        _fft_axes(spec.reshape(p.shape + (-1,)), p.axes, partial(np.fft.ifft, norm="forward"))
        return spec

    def _entries(self) -> np.ndarray:
        """The entry table T[r, g] = pi_i(g)[j, k] for row r = (i, j, k): the
        conjugated unscaled core on blocks of identity columns, each written
        through a slice of T, so that F = diag(scale) conj(T) is `apply(I)`."""
        order = self.group.order
        if order > MAX_TABLE_ORDER:
            raise ResourceCapError(
                f"dense table of {self.group.name} needs order <= {MAX_TABLE_ORDER}")
        table = np.empty((order, order), dtype=np.complex128)
        for lo in range(0, order, _ENTRY_COLUMNS):
            columns = table[:, lo:lo + _ENTRY_COLUMNS]
            identity = np.eye(order, columns.shape[1], -lo, dtype=np.complex128)
            np.conjugate(self._unscaled_in_place(identity), out=columns)
        return table


@dataclass(frozen=True)
class FourierOperator(FourierTransform):
    """A FourierTransform together with its dense |G| x |G| matrix."""

    matrix: np.ndarray

    def max_unitarity_residual(self) -> float:
        """max |F F^dagger - I| by blocks of rows: conj(F[rows]) F^T is the
        conjugate of those rows of F F^dagger, so F is never copied whole."""
        f, worst = self.matrix, 0.0
        for lo in range(0, len(f), _GRAM_ROWS):
            prod = f[lo:lo + _GRAM_ROWS].conj() @ f.T
            prod[:, lo:lo + _GRAM_ROWS] -= np.eye(len(prod))
            worst = max(worst, float(np.abs(prod).max()))
        return worst


def _fft_axes(x: np.ndarray, axes: tuple[int, ...], fft) -> None:
    """`fft` along each of `axes`, last axis first, as np.fft.fftn does, in
    place on the complex array x.  An axis of length 2 takes the butterfly
    (a + b, a - b), which is exactly what the FFT computes for n = 2; the
    butterflies share one scratch array, half the size of x, for a - b."""
    scratch = None
    for axis in reversed(axes):
        if x.shape[axis] != 2:
            fft(x, axis=axis, out=x)
            continue
        head = (slice(None),) * axis
        a, b = x[head + (0,)], x[head + (1,)]
        if scratch is None:
            scratch = np.empty(x.size // 2, dtype=x.dtype)
        diff = np.subtract(a, b, out=scratch.reshape(a.shape))
        a += b
        b[...] = diff


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _dihedral_signs(n: int) -> list[tuple[int, int]]:
    """(chi(r), chi(s)) of the 1-dim irreps of D_N, in label order."""
    return [(1, 1), (1, -1)] + ([(-1, 1), (-1, -1)] if n % 2 == 0 else [])


def _inventory(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """(labels, dims) of a built-in kind's irreps in label order, 1-dim first: F's row order."""
    if isinstance(group, (CyclicGroup, ProductGroup)):
        dims = np.ones(group.order, dtype=np.int64)
    elif isinstance(group, DihedralGroup):
        signs = len(_dihedral_signs(group.n))
        dims = np.repeat(np.array([1, 2], dtype=np.int64), [signs, (group.order - signs) // 4])
    else:
        raise ValueError(f"no closed-form irreps for group kind {type(group).__name__}")
    if int((dims * dims).sum()) != group.order:
        raise IntegrityError(f"irrep dimensions for {group.name} do not sum to |G|")
    return np.arange(len(dims), dtype=np.int64), dims


def irreps_of(group: FiniteGroup) -> list[Irrep]:
    """Complete set of inequivalent unitary irreps for a built-in group kind,
    read off the run's forward core as an entry table in label order."""
    fourier = fourier_transform(group)
    return _irreps(fourier, _readonly(fourier._entries()))


def _irreps(fourier: FourierTransform, table: np.ndarray) -> list[Irrep]:
    """Each irrep's matrices as a (|G|, d, d) view of its d*d consecutive,
    row-major rows of the entry table."""
    out, pos, layout = [], 0, fourier._layout
    for label, dim in zip(layout.labels.tolist(), layout.dims.tolist()):
        block = table[pos:pos + dim * dim].reshape(dim, dim, -1).transpose(2, 0, 1)
        out.append(Irrep(fourier.group, label, dim, block))
        pos += dim * dim
    return out


def fourier_transform(group: FiniteGroup) -> FourierTransform:
    """Fourier transform applied by FFT; row (i, j, k) at column g is
    sqrt(d_i/|G|) * conj(pi_i(g))[j, k]."""
    return FourierTransform(group)


def fourier_operator(group: FiniteGroup) -> FourierOperator:
    """`fourier_transform` plus its dense |G| x |G| matrix, `apply` of the identity."""
    fourier = fourier_transform(group)
    return _operator(fourier, fourier._entries())


def _operator(fourier: FourierTransform, table: np.ndarray) -> FourierOperator:
    """The operator whose matrix F = diag(scale) conj(T) is made in place from T."""
    np.conjugate(table, out=table)
    table *= fourier._layout.scale[:, None]
    return FourierOperator(fourier.group, _readonly(table))


def _completeness_defect(fourier: FourierTransform, table: np.ndarray) -> float:
    """max_g |sum_i d_i chi_i(g) / |G| - delta(g, e)| over the entry table: the
    irreps sum to the regular representation.  chi_i(g) is the sum of the
    diagonal rows (i, j, j), so one weighted sum of rows gives it without a
    copy; dividing by |G| puts it on the scale of the Schur residual."""
    layout = fourier._layout
    _, j, k = layout.rows
    order = fourier.group.order
    regular = np.where(j == k, layout.dims[layout.block] / order, 0).astype(np.complex128) @ table
    regular[0] -= 1
    return float(np.abs(regular).max())


def verify_representation_suite(group: FiniteGroup) -> dict:
    """Completeness, Schur orthogonality and unitarity residuals of irreps_of,
    from one entry table, which then becomes F in place: F F^dagger = I is
    exactly Schur orthogonality."""
    fourier = fourier_transform(group)
    table = fourier._entries()
    unitarity = max(ir.max_unitarity_residual() for ir in _irreps(fourier, table))
    completeness = _completeness_defect(fourier, table)
    schur = _operator(fourier, table).max_unitarity_residual()
    return {
        "completeness_defect": completeness,
        "max_schur_residual": schur,
        # F F^dagger - I is also the residual of F's own unitarity
        "max_unitarity_residual": max(unitarity, schur),
    }
