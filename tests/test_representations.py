import re
import tracemalloc

import numpy as np
import pytest

from hspsim import representations
from hspsim.config import config_from_dict
from hspsim.errors import ResourceCapError
from hspsim.experiments import run_experiment
from hspsim.groups import CyclicGroup, DihedralGroup, FiniteGroup, ProductGroup, group_from_spec
from hspsim.representations import (
    _completeness_defect,
    fourier_operator,
    fourier_transform,
    irreps_of,
    verify_representation_suite,
)

from oracles import abelian_irreps, dihedral_irreps, fourier_by_fftn

SAMPLE_GROUPS = [
    "Z1", "Z4", "Z12", "Z31", "Z2^3", "Z2xZ4", "Z3xZ9",
    "D1", "D2", "D3", "D4", "D6", "D8", "D16",
]


def test_cyclic4_characters_are_powers_of_i():
    z4 = CyclicGroup(4)
    irreps = irreps_of(z4)
    assert len(irreps) == 4
    for ir in irreps:
        for x in range(4):
            assert ir.matrices[x, 0, 0] == pytest.approx(1j ** ((x * ir.label) % 4))


def test_dihedral_irrep_inventory():
    d4 = irreps_of(DihedralGroup(4))
    assert sorted(ir.dim for ir in d4) == [1, 1, 1, 1, 2]
    d3 = irreps_of(DihedralGroup(3))
    assert sorted(ir.dim for ir in d3) == [1, 1, 2]


def test_dihedral_two_dim_matrices():
    d4 = DihedralGroup(4)
    rho = [ir for ir in irreps_of(d4) if ir.dim == 2][0]
    w = np.exp(2j * np.pi / 4)
    assert np.allclose(rho.matrix(1), np.diag([w, w.conjugate()]))
    assert np.allclose(rho.matrix(4), np.array([[0, 1], [1, 0]]))


@pytest.mark.parametrize("spec", SAMPLE_GROUPS)
def test_homomorphism_property(spec):
    group = group_from_spec(spec)
    rng = np.random.default_rng(42)
    if group.order <= 16:
        pairs = [(a, b) for a in range(group.order) for b in range(group.order)]
    else:
        pairs = [
            (int(a), int(b))
            for a, b in zip(
                rng.integers(0, group.order, 1000), rng.integers(0, group.order, 1000)
            )
        ]
    for ir in irreps_of(group):
        for a, b in pairs:
            product = ir.matrix(a) @ ir.matrix(b)
            assert np.abs(product - ir.matrix(group.op(a, b))).max() < 1e-12


@pytest.mark.parametrize("spec", SAMPLE_GROUPS)
def test_irrep_invariants(spec):
    group = group_from_spec(spec)
    irreps = irreps_of(group)
    assert sum(ir.dim**2 for ir in irreps) == group.order
    for ir in irreps:
        assert ir.max_unitarity_residual() < 1e-12
        chars = ir.character()
        self_product = float(np.vdot(chars, chars).real) / group.order
        assert abs(self_product - 1.0) < 1e-10


def test_fourier_of_z2_is_hadamard():
    fop = fourier_operator(CyclicGroup(2))
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.abs(fop.matrix - expected).max() < 1e-15


@pytest.mark.parametrize("n", [3, 5, 8])
def test_fourier_of_cyclic_is_conjugated_dft(n):
    fop = fourier_operator(CyclicGroup(n))
    for y in range(n):
        for x in range(n):
            expected = np.exp(-2j * np.pi * ((x * y) % n) / n) / np.sqrt(n)
            assert abs(fop.matrix[y, x] - expected) < 1e-14


@pytest.mark.parametrize("spec", SAMPLE_GROUPS)
def test_fourier_operator_unitary_and_complete(spec):
    group = group_from_spec(spec)
    fop = fourier_operator(group)
    assert fop.matrix.shape == (group.order, group.order)
    assert len(fop.row_index) == group.order
    assert fop.max_unitarity_residual() < 1e-12


def test_fourier_d4_row_structure():
    fop = fourier_operator(DihedralGroup(4))
    assert len(fop.row_index) == 8
    assert sum(1 for _, j, k in fop.row_index if (j, k) == (0, 0)) == 5
    assert fop.row_index[:4] == ((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0))
    scales = dict(zip(fop.row_index, fop.identity_column().real))
    assert scales[0, 0, 0] == pytest.approx(np.sqrt(1 / 8))
    assert scales[4, 0, 0] == pytest.approx(np.sqrt(2 / 8))


@pytest.mark.parametrize("n", range(1, 33))
def test_abelian_reduction_row_permutation(n):
    group = CyclicGroup(n)
    fop = fourier_operator(group)
    character_transform = np.array(
        [
            [np.exp(2j * np.pi * ((x * y) % n) / n) / np.sqrt(n) for x in range(n)]
            for y in range(n)
        ]
    )
    perm = []
    for row in fop.matrix:
        matches = [
            y
            for y in range(n)
            if np.abs(row - character_transform[y]).max() < 1e-12
        ]
        assert len(matches) == 1
        perm.append(matches[0])
    assert sorted(perm) == list(range(n))


def _dim_then_label_rows(group):
    """F's one row order: its irrep blocks by dimension, then by label, each
    row-major in (j, k)."""
    dims = {ir.label: ir.dim for ir in irreps_of(group)}
    return [(i, j, k) for i in sorted(dims, key=lambda i: (dims[i], i))
            for j in range(dims[i]) for k in range(dims[i])]


# The row order each equivalence case checks F against, by its case id.
ROW_ORDERS = {"dim_then_label": _dim_then_label_rows}


@pytest.mark.parametrize("spec", ["D4", "D5", "Z2xZ4"])
def test_rows_are_blocks_by_dimension_then_label(spec):
    group = group_from_spec(spec)
    assert list(fourier_transform(group).row_index) == _dim_then_label_rows(group)


EQUIVALENCE_GROUPS = [
    "Z1", "Z12", "Z31", "Z2^5", "Z2xZ4", "Z3xZ9",
    "D1", "D2", "D3", "D7", "D8", "D16",
]


@pytest.mark.parametrize("row_order", list(ROW_ORDERS))
@pytest.mark.parametrize("spec", EQUIVALENCE_GROUPS)
def test_fft_transform_matches_dense_matrix(spec, row_order):
    group = group_from_spec(spec)
    fop = fourier_operator(group)
    rng = np.random.default_rng(group.order)
    x = rng.normal(size=(group.order, 3)) + 1j * rng.normal(size=(group.order, 3))
    assert np.abs(fop.apply(x) - fop.matrix @ x).max() < 1e-12
    assert np.array_equal(fop.identity_column(), fop.matrix[:, 0])
    assert list(fop.row_index) == ROW_ORDERS[row_order](group)
    fourier = fourier_transform(group)
    assert fourier.row_index == fop.row_index
    assert np.array_equal(fourier.apply(x), fop.apply(x))


@pytest.mark.parametrize("row_order", list(ROW_ORDERS))
@pytest.mark.parametrize(
    "spec", ["Z1", "Z2", "Z6", "Z3xZ9", "Z2^5", "Z2xZ16", "D1", "D2", "D3", "D8", "D16"])
def test_dense_f_is_the_run_transform(spec, row_order):
    """The dense F is `apply` of the identity bit for bit, and the closed-form
    identity column is `apply(e_0)` down to the sign of each zero."""
    group = group_from_spec(spec)
    fourier = fourier_transform(group)
    assert list(fourier.row_index) == ROW_ORDERS[row_order](group)
    eye = np.eye(group.order)
    assert np.array_equal(fourier_operator(group).matrix, fourier.apply(eye))
    assert fourier.identity_column().tobytes() == fourier.apply(eye[:, :1])[:, 0].tobytes()


@pytest.mark.parametrize("spec", ["D6", "Z3xZ9"])
def test_entry_table_does_not_depend_on_block_size(spec, monkeypatch):
    """One column per block, 7 (the last block partial) and |G| give the same bits."""
    group = group_from_spec(spec)
    tables = []
    for width in (1, 7, group.order):
        monkeypatch.setattr(representations, "_ENTRY_COLUMNS", width)
        tables.append(fourier_transform(group)._entries().tobytes())
    assert tables[0] == tables[1] == tables[2]


@pytest.mark.parametrize("spec", ["Z6", "D4", "Z2^3"])
def test_transforms_refuse_a_state_that_is_not_g_by_m(spec):
    """apply refuses a vector or a wrong row count in its one copy step,
    naming the expected and the received shape, and leaves it as it was."""
    fourier = fourier_transform(group_from_spec(spec))
    n = fourier.group.order
    for bad in (np.ones(n), np.ones((n + 1, 2))):
        before = bad.copy()
        expected = f"expected a (|G|, m) = ({n}, m) array, got shape {bad.shape}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            fourier.apply(bad)
        assert np.array_equal(bad, before)


@pytest.mark.parametrize("width", [1, 5, 16])
@pytest.mark.parametrize("spec", ["Z2^12", "Z2xZ16", "Z3xZ9", "Z32", "D16", "D2"])
def test_transform_is_bit_identical_to_fftn(spec, width):
    """The per-axis transform, with butterflies on the length-2 axes, gives
    the very floats of numpy's fftn, and leaves its input as it was, in
    either memory order."""
    fourier = fourier_transform(group_from_spec(spec))
    rng = np.random.default_rng(width)
    size = (fourier.group.order, width)
    x = rng.normal(size=size) + 1j * rng.normal(size=size)
    for columns in (x, np.asfortranarray(x)):
        before = columns.copy()
        assert np.array_equal(fourier.apply(columns), fourier_by_fftn(fourier, x))
        assert np.array_equal(columns, before)


@pytest.mark.parametrize("row_order", list(ROW_ORDERS))
@pytest.mark.parametrize("spec", EQUIVALENCE_GROUPS)
def test_fourier_rows_match_closed_form_irreps(spec, row_order):
    """irreps_of, the dense F and the FFT transform all read the plan; each
    agrees with the textbook irreps written element by element."""
    group = group_from_spec(spec)
    if isinstance(group, DihedralGroup):
        closed = dihedral_irreps(group.n)
    else:
        closed = abelian_irreps(group.moduli)
    oracle = {label: np.array(mats, dtype=np.complex128) for label, _, mats in closed}
    irreps = irreps_of(group)
    assert [(ir.label, ir.dim) for ir in irreps] == [(label, dim) for label, dim, _ in closed]
    for ir in irreps:
        assert np.abs(ir.matrices - oracle[ir.label]).max() < 1e-12

    fop = fourier_operator(group)
    assert list(fop.row_index) == ROW_ORDERS[row_order](group)
    dims = {label: dim for label, dim, _ in closed}
    dense = np.array(
        [np.sqrt(dims[i] / group.order) * np.conj(oracle[i][:, j, k]) for i, j, k in fop.row_index]
    )
    assert np.abs(fop.matrix - dense).max() < 1e-12
    fourier = fourier_transform(group)
    rng = np.random.default_rng(group.order + 1)
    x = rng.normal(size=(group.order, 3)) + 1j * rng.normal(size=(group.order, 3))
    assert np.abs(fourier.apply(x) - dense @ x).max() < 1e-12
    assert np.abs(fourier.identity_column() - dense[:, 0]).max() < 1e-12


@pytest.mark.parametrize("spec", SAMPLE_GROUPS)
def test_completeness_defect_reads_the_regular_character(spec):
    """sum_i d_i chi_i(g) / |G| = delta(g, e) to 1e-12; with one block dropped
    (d^2 / |G| missing at e), or with a 1-dim block replaced by another, which
    keeps sum_i d_i^2 = |G|, the defect is far from 0."""
    group = group_from_spec(spec)
    fourier = fourier_transform(group)
    table, block = fourier._entries(), fourier._layout.block
    assert _completeness_defect(fourier, table) < 1e-12
    dropped = table.copy()
    dropped[block == block[-1]] = 0
    assert group.order * _completeness_defect(fourier, dropped) >= 1.0 - 1e-12
    if len(block) > 1:
        # the rows put the trivial character first and a 1-dim irrep second
        twice = table.copy()
        twice[block == 1] = table[block == 0]
        assert group.order * _completeness_defect(fourier, twice) > 0.1


def test_verify_representation_suite_values():
    cases = (("Z8", 1e-13), ("D6", 1e-12), ("D3", 1e-12))
    for spec, tol in cases:
        report = verify_representation_suite(group_from_spec(spec))
        assert report["completeness_defect"] < tol
        assert report["max_schur_residual"] < tol
        assert report["max_unitarity_residual"] < tol
        # F F^dagger - I is also a unitarity residual, so it is part of the maximum
        assert report["max_unitarity_residual"] >= report["max_schur_residual"]


@pytest.mark.parametrize("spec", ["Z2", "Z2^3", "Z2^6", "Z4", "D2"])
def test_completeness_is_exact_where_characters_are_units(spec):
    """Characters of exponent-2 and exponent-4 groups come off the FFT exactly."""
    assert verify_representation_suite(group_from_spec(spec))["completeness_defect"] == 0.0


def test_z2n_characters_are_exactly_plus_minus_one():
    chars = np.array([ir.character() for ir in irreps_of(group_from_spec("Z2^4"))])
    assert set(chars.real.ravel().tolist()) == {-1.0, 1.0}
    assert not chars.imag.any()


@pytest.mark.parametrize("spec", ["D256", "Z2^9"])
def test_fourier_check_forms_one_gram(spec, tmp_path):
    """fourier-check reads Schur orthogonality off F F^dagger, the one |G| x |G| product."""
    group = group_from_spec(spec)
    cfg = config_from_dict({"experiment": "fourier-check", "group": spec})
    tracemalloc.start()
    try:
        report = run_experiment(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # F, a conjugate copy for the product, and the product itself; a second
    # Gram over label-ordered irrep entries peaks at 5 matrices
    assert peak < 4 * 16 * group.order**2
    suite = verify_representation_suite(group)
    assert report["max_schur_residual"] == suite["max_schur_residual"] < 1e-12
    assert report["max_unitarity_residual"] == suite["max_unitarity_residual"] < 1e-12
    assert report["completeness_defect"] < 1e-12


@pytest.mark.parametrize("spec", ["D1024", "Z2^11"])
def test_fourier_check_never_copies_f_whole(spec, tmp_path):
    """The entry table becomes F in place and the Gram is taken by row blocks,
    so fourier-check holds F plus blocks, under two |G| x |G| arrays."""
    group = group_from_spec(spec)
    cfg = config_from_dict({"experiment": "fourier-check", "group": spec})
    tracemalloc.start()
    try:
        report = run_experiment(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * group.order**2
    assert report["max_schur_residual"] < 1e-12
    assert report["completeness_defect"] < 1e-12


@pytest.mark.parametrize("spec, bound", [("D4096", 1 << 20), ("Z8192", 1 << 20)])
def test_dense_table_refused_before_allocation(spec, bound):
    """Library calls refuse the 16 |G|^2-byte entry table past MAX_TABLE_ORDER
    (1 GiB at order 8192) before asking for it."""
    group = group_from_spec(spec)
    for build in (irreps_of, fourier_operator, verify_representation_suite):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match=f"{spec} needs order <= 4096"):
                build(group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, build.__name__


def test_irreps_unsupported_kind():
    class Z2Copy(FiniteGroup):
        name, order = "Z2copy", 2

        def _op(self, a, b):
            return (a + b) % 2

    with pytest.raises(ValueError, match="kind"):
        irreps_of(Z2Copy())
