import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest

from hspsim import groups
from hspsim.config import config_from_dict
from hspsim.engine import PipelineConfig, outcome_labels
from hspsim.errors import ResourceCapError
from hspsim.groups import (
    CyclicGroup,
    DihedralGroup,
    FiniteGroup,
    ProductGroup,
    Subgroup,
    all_subgroups,
    character_pairing,
    coset_ids,
    group_from_spec,
    lattice_generators,
    left_cosets,
)
from hspsim.oracle import build_instance, classical_brute_force_hsp
from hspsim.recovery import SampleSet, character_sieve, simon_solve
from hspsim.representations import fourier_transform

from oracles import (
    character_trivial_on,
    closure_by_pairs,
    is_closed_by_pairs,
    is_normal_by_conjugation,
    product_op_by_digits,
    subgroups_by_subsets,
)

AXIOM_GROUPS = ["Z1", "Z2", "Z6", "Z12", "Z2^3", "Z2xZ4", "D1", "D2", "D3", "D4", "D6"]


@pytest.mark.parametrize("spec", AXIOM_GROUPS)
def test_group_axioms_exhaustive(spec):
    group = group_from_spec(spec)
    n = group.order
    table = group.op_table
    # identity and inverses
    for a in range(n):
        assert group.op(a, 0) == a
        assert group.op(0, a) == a
        assert group.op(a, group.inv(a)) == 0
        assert group.op(group.inv(a), a) == 0
    # associativity via the materialized table: op(op(a,b),c) == op(a,op(b,c))
    assert np.array_equal(table[table], table[:, table])
    # outcome labels are plain ints exactly for the abelian groups, D1 and D2 included
    labels = outcome_labels(fourier_transform(group), PipelineConfig())
    assert all(isinstance(lab, int) for lab in labels) == np.array_equal(table, table.T)


def test_cyclic_op_examples():
    z6 = CyclicGroup(6)
    assert z6.op(4, 5) == 3
    assert z6.inv(4) == 2
    assert z6.label(3) == "3"


def test_dihedral_defining_relation():
    d4 = DihedralGroup(4)
    s, r = 4, 1
    assert d4.label(d4.op(s, r)) == "r3s"
    # s r s^-1 = r^-1
    conj = d4.op(d4.op(s, r), d4.inv(s))
    assert conj == d4.inv(r)


def test_dihedral_inverse_matches_table_search():
    d4 = DihedralGroup(4)
    rs = 5
    brute = [b for b in range(d4.order) if d4.op(rs, b) == 0]
    assert brute == [d4.inv(rs)]
    assert d4.inv(rs) == rs


def test_product_involution_group():
    g = ProductGroup((2, 2))
    for a in range(4):
        assert g.inv(a) == a
    assert g.label(3) == "(1,1)"
    assert g.index_of((1, 0)) == 2


def test_element_canonicalization():
    d4 = DihedralGroup(4)
    assert d4.label(6) == "r2s"
    assert d4.label(0) == "e"
    with pytest.raises(ValueError):
        d4.label(8)
    with pytest.raises(ValueError):
        d4.op(0, 9)


def test_subgroup_from_generators_examples():
    d4 = DihedralGroup(4)
    center = Subgroup.from_generators(d4, [2])
    assert center.elements == (0, 2)
    assert center.normal

    z12 = CyclicGroup(12)
    k = Subgroup.from_generators(z12, [8])
    assert k.elements == (0, 4, 8)
    assert k.normal

    d3 = DihedralGroup(3)
    refl = Subgroup.from_generators(d3, [3])
    assert refl.elements == (0, 3)
    assert not refl.normal


def test_subgroup_from_elements_rejects_non_subgroup():
    z6 = CyclicGroup(6)
    with pytest.raises(ValueError):
        Subgroup.from_elements(z6, [0, 1])
    with pytest.raises(ValueError):
        Subgroup.from_elements(z6, [1, 2])


@pytest.mark.parametrize("elements,message", [
    ([0, 1.5], "element index 1.5 out of range for Z6 (order 6)"),
    ((0, "a", 9), "element index 'a' out of range for Z6 (order 6)"),
    ([[0, 3]], "element index [0, 3] out of range for Z6 (order 6)"),
    ([0, 7, -1], "element index 7 out of range for Z6 (order 6)"),
    ([0, -1], "element index -1 out of range for Z6 (order 6)"),
    (np.array([0, 6]), "element index np.int64(6) out of range for Z6 (order 6)"),
    ([], "subgroup must contain the identity"),
    (np.array([], dtype=np.int64), "subgroup must contain the identity"),
    ([3, 3], "subgroup must contain the identity"),
    ([0, 1], "element set not closed under the group operation: it generates 2"),
    (iter([0, 2, 2]), "element set not closed under the group operation: it generates 4"),
])
def test_from_elements_error_messages(elements, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        Subgroup.from_elements(CyclicGroup(6), elements)


def test_from_elements_takes_any_iterable_and_repeats():
    z6 = CyclicGroup(6)
    expected = Subgroup(z6, (0, 3), True)
    for elements in ([3, 0, 3], (0, 3), np.array([3, 0], dtype=np.uint8), range(0, 6, 3),
                     iter([0, 3, 0]), [np.int64(3), 0], [False, 3]):
        sub = Subgroup.from_elements(z6, elements)
        assert sub == expected and sub.normal
        assert all(type(a) is int for a in sub.elements)


def test_from_elements_checks_in_one_array_pass(monkeypatch):
    """K = G on Z2^16: no per-element `check_index` call (the set comprehension made 65,536)."""
    group = group_from_spec("Z2^16")
    calls = []
    real = FiniteGroup.check_index
    monkeypatch.setattr(FiniteGroup, "check_index", lambda self, a: calls.append(a) or real(self, a))
    sub = Subgroup.from_elements(group, np.arange(group.order))
    assert sub.elements == tuple(range(group.order)) and sub.normal
    assert not calls


@pytest.mark.parametrize("spec", ["Z2^5", "Z2xZ16", "Z32", "D16", "D32"])
def test_lattice_generators_equal_spanning_generators(spec):
    subs = all_subgroups(group_from_spec(spec))
    expected = [sub.spanning_generators() for sub in subs]
    assert lattice_generators(subs) == expected
    # any order of the subgroups gives each its own generators
    order = random.Random(spec).sample(range(len(subs)), len(subs))
    assert lattice_generators([subs[i] for i in order]) == [expected[i] for i in order]


@pytest.mark.parametrize("spec", ["Z2^6", "D16", "Z3xZ9"])
def test_greedy_span_after_each_step_is_the_prefix_closure(spec, monkeypatch):
    """Each greedy step grows the last span by the new generator's squares alone,
    and the span it leaves is <g_1, ..., g_i> closed from scratch."""
    group = group_from_spec(spec)
    grow, steps = groups._grow, []

    def recording(group, span, gens, closed=0):
        grow(group, span, gens, closed)
        steps.append((list(gens), closed, np.flatnonzero(span)))

    for sub in all_subgroups(group):
        steps.clear()
        monkeypatch.setattr(groups, "_grow", recording)
        gens = groups._greedy_generators(group, groups._mask(group, sub.elements))
        monkeypatch.undo()
        assert len(steps) == len(gens)
        for i, (prefix, closed, span) in enumerate(steps):
            assert prefix == list(gens[:i + 1]) and closed == i
            assert tuple(span.tolist()) == Subgroup.from_generators(group, prefix).elements
        assert tuple(steps[-1][2].tolist() if steps else [0]) == sub.elements


def test_grow_first_layer_skips_the_generators_the_span_is_closed_under():
    group = group_from_spec("Z2^6")
    op, layers = group._op, []

    def recording(a, b):
        if np.ndim(a) == 2:  # a frontier layer, not a repeated square
            layers.append(np.size(b))
        return op(a, b)

    group._op = recording
    span = groups._mask(group, range(8))  # <1, 2, 4>
    groups._grow(group, span, [1, 2, 4, 8], closed=3)
    assert np.array_equal(np.flatnonzero(span), np.arange(16))
    # 8 and 8^2 = 0 first, then every generator with its square
    assert layers == [2, 8]


def test_left_cosets_examples():
    z6 = CyclicGroup(6)
    k = Subgroup.from_generators(z6, [3])
    assert left_cosets(z6, k) == [(0, 3), (1, 4), (2, 5)]

    d3 = DihedralGroup(3)
    refl = Subgroup.from_generators(d3, [3])
    cosets = left_cosets(d3, refl)
    assert len(cosets) == 3
    assert all(len(c) == 2 for c in cosets)
    assert cosets[0] == refl.elements

    whole = Subgroup.from_generators(z6, [1])
    assert left_cosets(z6, whole) == [tuple(range(6))]


@pytest.mark.parametrize("spec", AXIOM_GROUPS)
def test_cosets_partition_evenly(spec):
    """left_cosets, coset_ids and the instance's f against cosets gK formed
    element by element with scalar `op`."""
    group = group_from_spec(spec)
    for sub in all_subgroups(group):
        cosets = left_cosets(group, sub)
        assert len(cosets) == group.order // sub.order
        assert all(len(c) == sub.order for c in cosets)
        assert sorted(x for c in cosets for x in c) == list(range(group.order))
        # least-index representatives, subgroup first
        assert all(c[0] == min(c) for c in cosets)
        assert cosets[0] == sub.elements
        expected = sorted({tuple(sorted(group.op(g, k) for k in sub.elements))
                           for g in range(group.order)})
        assert cosets == expected
        index = {g: i for i, coset in enumerate(expected) for g in coset}
        assert coset_ids(group, sub).tolist() == [index[g] for g in range(group.order)]
        for seed in range(4):
            inst = build_instance(group, sub, seed)
            values = np.random.default_rng(seed).permutation(len(expected)).tolist()
            assert inst.f_table.tolist() == [values[index[g]] for g in range(group.order)]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_all_subgroups_counts():
    # Z_N has one subgroup per divisor; D_N has tau(N) rotation subgroups
    # <r^d> and sigma(N) subgroups <r^d, r^i s>; Z2^n has as many as
    # GF(2)^n has subspaces
    for n in range(1, 65):
        assert len(all_subgroups(CyclicGroup(n))) == len(_divisors(n))
    for n in range(1, 33):
        assert len(all_subgroups(DihedralGroup(n))) == len(_divisors(n)) + sum(_divisors(n))
    for n, count in enumerate([2, 5, 16, 67, 374, 2825], start=1):
        assert len(all_subgroups(group_from_spec(f"Z2^{n}"))) == count


@pytest.mark.parametrize(
    "spec", ["Z6", "Z8", "Z2^2", "D3", "D4", "Z2xZ6", "Z3xZ3", "Z2^3", "D5", "D6"]
)
def test_all_subgroups_matches_subset_enumeration(spec):
    group = group_from_spec(spec)
    expected = sorted(
        subgroups_by_subsets(group.op, group.order), key=lambda s: (len(s), s)
    )
    got = [s.elements for s in all_subgroups(group)]
    assert got == expected


@pytest.mark.parametrize("spec", AXIOM_GROUPS)
def test_all_subgroups_closed_distinct_sorted(spec):
    group = group_from_spec(spec)
    subs = all_subgroups(group)
    seen = set()
    for sub in subs:
        assert sub.elements not in seen
        seen.add(sub.elements)
        # closure check, independent of construction
        eset = set(sub.elements)
        assert all(group.op(a, b) in eset for a in eset for b in eset)
    assert [s.elements for s in subs] == sorted(
        (s.elements for s in subs), key=lambda e: (len(e), e)
    )


def test_all_subgroups_order_cap():
    with pytest.raises(ResourceCapError):
        all_subgroups(CyclicGroup(65))


def test_all_subgroups_at_the_order_limit():
    for group, count in [
        (CyclicGroup(64), 7),
        (DihedralGroup(32), 6 + 63),
        (ProductGroup((2,) * 6), 2825),
    ]:
        assert len(all_subgroups(group)) == count
        assert "op_table" not in vars(group)


def test_group_orders_stay_below_int64_range():
    """Element indices are int64: an order at or above 2^63 is refused by name."""
    for make, name in [
        (lambda: CyclicGroup(2**63), "Z9223372036854775808"),
        (lambda: ProductGroup((2,) * 63), "Z2^63"),
        (lambda: ProductGroup((2,) * 70), "Z2^70"),
        # an order past Python's int-to-str digit limit is refused by name too
        (lambda: ProductGroup((2,) * 40000), "Z2^40000"),
        (lambda: DihedralGroup(2**62), "D4611686018427387904"),
    ]:
        with pytest.raises(ResourceCapError, match=re.escape(name)):
            make()
    assert CyclicGroup(2**63 - 1).order == 2**63 - 1
    assert ProductGroup((2,) * 62).order == 2**62
    assert DihedralGroup(2**62 - 1).order == 2**63 - 2


def test_group_from_spec_counts_factors_before_expanding():
    """More than 63 cyclic factors are refused by spec before the factor list is built;
    63 factors of modulus >= 2 already reach 2^63, so only Z1 padding is newly refused."""
    assert group_from_spec("Z1^63").order == 1
    assert group_from_spec("Z2^62xZ1").order == 2**62
    for spec in ("Z1^64", "Z1^32xZ1^32", "Z2^1000000", "Z2^99999999999999999999"):
        with pytest.raises(ResourceCapError, match=re.escape(spec)):
            group_from_spec(spec)


def test_all_subgroups_refuses_other_group_kinds():
    class Trivial(FiniteGroup):
        name, order = "T1", 1

    with pytest.raises(ValueError, match="Trivial"):
        all_subgroups(Trivial())


@pytest.mark.parametrize("spec", ["Z12", "Z2xZ4", "Z3xZ9", "Z6xZ10xZ4"])
def test_character_pairing_matches_pairwise_oracle(spec):
    group = group_from_spec(spec)
    idx = np.arange(group.order)
    t, big = character_pairing(group, idx, idx)
    assert t.shape == (group.order, group.order) and ((0 <= t) & (t < big)).all()
    trivial = [
        [character_trivial_on(group.moduli, y, x) for y in range(group.order)]
        for x in range(group.order)
    ]
    assert np.array_equal(t == 0, np.array(trivial))


def test_character_pairing_refuses_non_abelian_group():
    with pytest.raises(ValueError, match="D4"):
        character_pairing(DihedralGroup(4), [0], [0])


def test_group_from_spec_grammar():
    assert isinstance(group_from_spec("Z6"), CyclicGroup)
    g = group_from_spec("Z2^3")
    assert isinstance(g, ProductGroup) and g.moduli == (2, 2, 2)
    g = group_from_spec("Z2xZ4")
    assert g.moduli == (2, 4)
    assert isinstance(group_from_spec("D4"), DihedralGroup)
    assert group_from_spec("Z2^2xZ4").moduli == (2, 2, 4)
    for bad in ("", "Q8", "Z", "Z0", "D4xZ2", "Z2^"):
        with pytest.raises(ValueError):
            group_from_spec(bad)


def test_group_names_round_trip():
    for spec in ("Z6", "Z2^3", "Z2xZ4", "D4", "Z2^1"):
        group = group_from_spec(spec)
        again = group_from_spec(group.name)
        assert type(again) is type(group)
        assert again.order == group.order


ORACLE_GROUPS = list(
    dict.fromkeys(AXIOM_GROUPS + [f"D{n}" for n in range(1, 17)] + ["Z2xZ16", "Z2^5"])
)


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_subgroup_checks_match_brute_force_oracles(spec):
    group = group_from_spec(spec)
    for sub in all_subgroups(group):
        gens = sub.spanning_generators()
        elements = closure_by_pairs(group.op, gens)
        normal = is_normal_by_conjugation(group.op, group.inv, range(group.order), elements)
        assert sub.elements == elements
        assert sub.normal == normal
        generated = Subgroup.from_generators(group, gens)
        assert (generated.elements, generated.normal) == (elements, normal)
        assert Subgroup.from_elements(group, elements).normal == normal


def _candidate_sets(group, rng):
    """Seeded random sets with the identity, plus subgroups with one element added or removed."""
    for _ in range(40):
        size = rng.randint(1, group.order)
        yield (0, *rng.sample(range(1, group.order), size - 1))
    subs = all_subgroups(group)
    for sub in rng.sample(subs, min(20, len(subs))):
        outside = sorted(set(range(group.order)) - set(sub.elements))
        if outside:
            yield sub.elements + (rng.choice(outside),)
        if sub.order > 1:
            drop = rng.choice(sub.elements[1:])
            yield tuple(a for a in sub.elements if a != drop)


@pytest.mark.parametrize("spec", ORACLE_GROUPS)
def test_from_elements_accepts_exactly_the_closed_sets(spec):
    group = group_from_spec(spec)
    rng = random.Random(spec)
    for candidate in _candidate_sets(group, rng):
        if is_closed_by_pairs(group.op, candidate):
            sub = Subgroup.from_elements(group, candidate)
            assert sub.elements == tuple(sorted(candidate))
            assert sub.normal == is_normal_by_conjugation(
                group.op, group.inv, range(group.order), candidate
            )
        else:
            with pytest.raises(ValueError, match="not closed"):
                Subgroup.from_elements(group, candidate)


@pytest.mark.parametrize("spec", ["Z4", "Z2^3", "D4", "D6"])
def test_equal_subgroups_compare_equal(spec):
    """A subgroup is its element set: every construction of it is equal, with one hash."""
    group = group_from_spec(spec)
    subs = all_subgroups(group)
    for sub in subs:
        again = [
            Subgroup.from_elements(group, reversed(sub.elements)),
            Subgroup.from_generators(group, sub.spanning_generators()),
            Subgroup.from_generators(group, sub.elements),
        ]
        assert all(other == sub and hash(other) == hash(sub) for other in again)
    assert len(set(subs)) == len(subs)


def test_subgroup_equality_ignores_the_generators():
    z4 = group_from_spec("Z4")
    subs = [
        Subgroup.from_generators(z4, [1]),
        Subgroup.from_generators(z4, [3]),
        Subgroup.from_elements(z4, range(4)),
    ]
    assert subs[0] == subs[1] == subs[2]
    assert len({hash(s) for s in subs}) == 1 and len(set(subs)) == 1
    assert Subgroup.from_generators(z4, [2]) != subs[0]
    # the refusal names an element that the set generates outside itself
    with pytest.raises(ValueError, match="not closed.* generates 2$"):
        Subgroup.from_elements(z4, [0, 1])
    with pytest.raises(ValueError, match="not closed.* generates r2$"):
        Subgroup.from_elements(group_from_spec("D4"), [0, 1, 4])


# every product of moduli 2^e, e >= 1, of order <= 64, and some with a factor Z1
POWER_OF_TWO_PRODUCTS = [
    tuple(2**e for e in exps)
    for parts in range(1, 7)
    for exps in itertools.product(range(1, 7), repeat=parts)
    if sum(exps) <= 6
] + [(1,), (1, 1), (1, 4), (4, 2, 1), (2, 1, 8), (1, 2, 1, 2)]


def test_product_op_matches_the_digit_oracle_exhaustively():
    """On every pair: the bit-field formula of power-of-two products is the digit-wise sum."""
    assert len(POWER_OF_TWO_PRODUCTS) == 63 + 6
    for moduli in POWER_OF_TWO_PRODUCTS:
        group = ProductGroup(moduli)
        idx = np.arange(group.order, dtype=np.int64)
        got = group._op(idx[:, None], idx)
        assert got.dtype == np.int64
        assert np.array_equal(got, product_op_by_digits(moduli, idx[:, None], idx)), moduli


@pytest.mark.parametrize("moduli", [(2,) * 16, (2, 6), (3, 9)])
def test_product_op_matches_the_digit_oracle_on_random_pairs(moduli):
    """Z2^16 takes the bit fields, Z2xZ6 and Z3xZ9 the digits; each in the
    broadcast shapes the package passes."""
    group = ProductGroup(moduli)
    rng = np.random.default_rng(len(moduli))
    a, b = rng.integers(0, group.order, size=(2, 20000))
    assert np.array_equal(group._op(a, b), product_op_by_digits(moduli, a, b))
    gens, frontier = rng.integers(0, group.order, size=5), rng.integers(0, group.order, size=7)
    shapes = [
        (gens, gens),  # _grow: the repeated squares
        (frontier[:, None], gens),  # _grow: one breadth-first layer
        (int(gens[0]), frontier),  # coset_ids: one coset gK
        (gens[:, None], frontier),  # _is_normal: g k, then (g k) g^-1
        (int(a[0]), int(b[0])),  # op
    ]
    for x, y in shapes:
        got, want = group._op(x, y), product_op_by_digits(moduli, x, y)
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


def test_closing_z2_16_stays_in_bounded_memory():
    """K = G on Z2^16 from its 16 basis vectors: the closure and its greedy
    generators stay within about twice their tracemalloc peaks of 9.4 and
    27 MiB (the digit formula took 104 and 267 MiB)."""
    group = group_from_spec("Z2^16")
    basis = tuple(1 << i for i in range(16))
    tracemalloc.start()
    try:
        sub = Subgroup.from_generators(group, basis)
        closure_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        gens = sub.spanning_generators()
        span_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sub.order == group.order and gens == basis
    assert closure_peak < 20 * 2**20
    assert span_peak < 56 * 2**20


def test_subgroup_checks_above_the_table_order():
    n = 4096
    group = DihedralGroup(n)
    assert group.order > 4096
    conjugators = random.Random(0).sample(range(group.order), 16)
    # <r^2, s> has index 2, so it is normal; in <r^4, rs>, r (rs) r^-1 = r^3 s is missing
    cases = [
        ([2, n], tuple(range(0, n, 2)) + tuple(range(n, 2 * n, 2)), True),
        ([4, n + 1], tuple(range(0, n, 4)) + tuple(range(n + 1, 2 * n, 4)), False),
    ]
    for gens, elements, normal in cases:
        sub = Subgroup.from_generators(group, gens)
        assert (sub.elements, sub.normal) == (elements, normal)
        assert Subgroup.from_elements(group, elements).normal == normal
        assert is_normal_by_conjugation(group.op, group.inv, conjugators, elements) == normal
    assert group.op(group.op(1, n + 1), group.inv(1)) == n + 3
    with pytest.raises(ValueError, match="not closed"):
        Subgroup.from_elements(group, cases[1][1] + (2,))
    with pytest.raises(ValueError, match="not closed"):
        Subgroup.from_elements(group, cases[0][1][:-1])
    assert "op_table" not in vars(group)


def test_run_path_builds_no_op_table():
    """Instance, coset, recovery and ground-truth work stay O(|G|) in memory."""
    n = 12
    gens = [[int(i in (j, j + 1)) for i in range(n)] for j in range(8)]
    cfg = config_from_dict(
        {"experiment": "simon", "group": f"Z2^{n}", "hidden_generators": gens, "trials": 15}
    )
    group, hidden, _ = cfg.resolved
    instance = build_instance(group, hidden, seed=3)
    assert len(left_cosets(group, hidden)) == 16
    # the annihilator of K: y with an even number of shared 1 bits with every generator
    kernel = [group.index_of(g) for g in gens]
    outcomes = tuple(
        y for y in range(group.order) if all(bin(y & k).count("1") % 2 == 0 for k in kernel)
    )
    assert simon_solve(SampleSet(group, outcomes)).candidate.elements == hidden.elements
    assert classical_brute_force_hsp(instance).elements == hidden.elements
    assert "op_table" not in vars(group)

    for generators in ([2, 2048], [4, 2049], [1]):
        cfg = config_from_dict(
            {"experiment": "simulate", "group": "D2048", "hidden_generators": generators}
        )
        group, hidden, _ = cfg.resolved
        instance = build_instance(group, hidden, seed=3)
        assert len(left_cosets(group, hidden)) == hidden.num_cosets
        assert classical_brute_force_hsp(instance).elements == hidden.elements
        assert "op_table" not in vars(group)


def _label_by_rule(group, a):
    """The label rule of each kind, stated element by element."""
    if isinstance(group, DihedralGroup):
        ref, rot = divmod(a, group.n)
        return ("r" if rot == 1 else f"r{rot}" if rot else "") + ("s" if ref else "") or "e"
    if isinstance(group, ProductGroup):
        return "(" + ",".join(str(x) for x in group.coords(a)) + ")"
    return str(a)


_Z6, _Z2_3, _D4 = CyclicGroup(6), group_from_spec("Z2^3"), group_from_spec("D4")
# each entry point that takes element indices: the group whose check_index
# rule it applies, and a call with one bad entry (after a good one, where it
# takes several)
INDEX_ENTRY_POINTS = {
    "check_index": (_Z6, _Z6.check_index),
    "label D4": (_D4, _D4.label),
    "labels Z6": (_Z6, lambda bad: _Z6.labels([0, bad])),
    "labels Z2^3": (_Z2_3, lambda bad: _Z2_3.labels([0, bad])),
    "labels D4": (_D4, lambda bad: _D4.labels([0, bad])),
    "from_elements": (_Z6, lambda bad: Subgroup.from_elements(_Z6, [0, bad])),
    "from_generators": (_D4, lambda bad: Subgroup.from_generators(_D4, [1, bad])),
    "SampleSet": (_Z2_3, lambda bad: SampleSet(_Z2_3, (0, bad))),
    "character_sieve": (_Z2_3, lambda bad: character_sieve(SampleSet(_Z2_3, (1,)),
                                                            full_support=[0, bad])),
    # a coordinate is an element index of its cyclic factor
    "index_of": (CyclicGroup(2), lambda bad: _Z2_3.index_of((1, bad, 0))),
}


@pytest.mark.parametrize("entry", list(INDEX_ENTRY_POINTS))
@pytest.mark.parametrize("bad", ["1.5", "'a'", "-1", "|G|", "np.int64(|G|)", "[0, 3]"])
def test_every_entry_point_applies_the_one_index_rule(entry, bad):
    """Non-integers, strings, nested lists and out-of-range values are refused
    everywhere, with check_index's text for the bad entry."""
    group, call = INDEX_ENTRY_POINTS[entry]
    value = {"1.5": 1.5, "'a'": "a", "-1": -1, "|G|": group.order,
             "np.int64(|G|)": np.int64(group.order), "[0, 3]": [0, 3]}[bad]
    with pytest.raises(ValueError) as rule:
        group.check_index(value)
    with pytest.raises(ValueError, match="^" + re.escape(str(rule.value)) + "$"):
        call(value)


@pytest.mark.parametrize(
    "spec", ["Z1", "Z12", "Z2^5", "Z3xZ9", "Z6xZ10xZ4", "Z2^13", "D1", "D2", "D16"]
)
def test_label_table_matches_label(spec):
    """`labels` renders in one array pass (Z2^13 over two `%` chunks) what the
    label rule gives element by element, and `label` is its one-element case."""
    group = group_from_spec(spec)
    expected = [_label_by_rule(group, a) for a in range(group.order)]
    assert group.labels(np.arange(group.order)) == expected
    assert [group.label(a) for a in range(group.order)] == expected
    picks = [group.order - 1, 0, group.order // 2]
    assert group.labels(picks) == [expected[a] for a in picks]
    assert group.labels(()) == []
    for bad in (-1, group.order):
        with pytest.raises(ValueError, match="out of range"):
            group.labels([0, bad])
