import numpy as np
import pytest

from hspsim.engine import run_pipeline, step_trace
from hspsim.errors import IntegrityError
from hspsim.groups import CyclicGroup, Subgroup, all_subgroups, group_from_spec
from hspsim.oracle import HspInstance, build_instance, classical_brute_force_hsp
from hspsim.representations import fourier_transform


def test_instance_respects_coset_structure():
    group = group_from_spec("Z2^2")
    hidden = Subgroup.from_generators(group, [3])
    inst = build_instance(group, hidden, seed=5)
    f = inst.f_table
    assert f[0] == f[3]
    assert f[1] == f[2]
    assert f[0] != f[1]
    assert len(set(int(v) for v in f)) == 2


def test_instance_trivial_and_full_hidden_subgroups():
    group = group_from_spec("D4")
    trivial = Subgroup.from_generators(group, [])
    inst = build_instance(group, trivial, seed=0)
    assert len(set(int(v) for v in inst.f_table)) == group.order

    whole = Subgroup.from_generators(group, [1, 4])
    inst = build_instance(group, whole, seed=0)
    assert len(set(int(v) for v in inst.f_table)) == 1


def test_instance_codomain_can_be_larger():
    """build_instance maps the cosets onto Z_|G/K|; a wider codomain is built by
    hand from the same table and gives the same left-register law."""
    group = group_from_spec("Z6")
    hidden = Subgroup.from_generators(group, [3])
    inst = build_instance(group, hidden, seed=1)
    assert inst.codomain.order == 3
    assert sorted(set(inst.f_table.tolist())) == [0, 1, 2]
    wide = HspInstance(group, hidden, CyclicGroup(10), inst.f_table)
    assert wide.codomain.order == 10
    fourier = fourier_transform(group)
    assert np.array_equal(run_pipeline(wide, fourier).probs, run_pipeline(inst, fourier).probs)


@pytest.mark.parametrize("spec", ["Z6", "Z12", "Z2^3", "Z2xZ4", "D3", "D4", "D6"])
def test_brute_force_recovers_hidden_subgroup(spec):
    group = group_from_spec(spec)
    for hidden in all_subgroups(group):
        for seed in (0, 1, 2):
            inst = build_instance(group, hidden, seed=seed)
            assert classical_brute_force_hsp(inst).elements == hidden.elements


@pytest.mark.parametrize("spec, f_values, message", [
    ("Z4", [0, 0, 1, 1], "not a subgroup"),
    ("Z4", [0, 1, 0, 2], "not constant on a left coset"),
    # constant on the right cosets {r, sr}, {r^2, sr^2} of <s> in D3, not on the left ones
    ("D3", [0, 1, 2, 0, 2, 1], "not constant on a left coset"),
    ("Z6", [0, 1, 1, 0, 1, 1], "repeats a value across distinct cosets"),
])
def test_brute_force_refuses_inconsistent_tables(spec, f_values, message):
    """Hand-built tables that build_instance never makes, each breaking one
    property that the brute force checks."""
    group = group_from_spec(spec)
    table = np.array(f_values, dtype=np.int64)
    inst = HspInstance(group, Subgroup.from_generators(group, []), CyclicGroup(group.order), table)
    with pytest.raises(IntegrityError, match=message):
        classical_brute_force_hsp(inst)


def _blackbox_step(inst):
    """psi1 and psi2 of the pipeline, as (|G|, |H|) arrays."""
    return step_trace(inst, fourier_transform(inst.group))[1:3]


def test_oracle_writes_f_into_identity_column():
    group = group_from_spec("D3")
    hidden = Subgroup.from_generators(group, [1])
    inst = build_instance(group, hidden, seed=3)
    psi1, psi2 = _blackbox_step(inst)
    assert np.count_nonzero(psi1[:, 0]) == 4
    for g in range(group.order):
        # row g of |psi1>|e> is psi1[g] |g>|e>, which the blackbox sends to psi1[g] |g>|f(g)>
        assert list(np.flatnonzero(psi2[g])) == ([inst.f_table[g]] if psi1[g, 0] else [])
        assert psi2[g, inst.f_table[g]] == psi1[g, 0]


def test_oracle_is_linear_on_uniform_input():
    group = group_from_spec("Z6")
    hidden = Subgroup.from_generators(group, [2])
    inst = build_instance(group, hidden, seed=9)
    n_g, n_h = group.order, inst.codomain.order
    psi1, psi2 = _blackbox_step(inst)
    # an abelian start F|e> is the uniform superposition
    assert np.abs(psi1[:, 0] - 1 / np.sqrt(n_g)).max() < 1e-15
    expected = np.zeros((n_g, n_h), dtype=np.complex128)
    for g in range(n_g):
        expected[g, inst.f_table[g]] = psi1[g, 0]
    assert np.array_equal(psi2, expected)
