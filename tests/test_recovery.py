import math
import re
import sys

import numpy as np
import pytest

from hspsim import engine, groups, oracle
from hspsim.config import config_from_dict
from hspsim.engine import (
    MEASURE_GRANULARITIES,
    OutcomeDistribution,
    PipelineConfig,
    outcome_labels,
    run_pipeline,
    sample,
)
from hspsim.errors import ConfigError, IntegrityError, ResourceCapError
from hspsim.experiments import run_experiment
from hspsim.groups import (
    DihedralGroup,
    Subgroup,
    all_subgroups,
    character_pairing,
    group_from_spec,
    membership,
)
from hspsim.oracle import build_instance
from hspsim.recovery import (
    RANK_TIE_TOL,
    SampleSet,
    annihilator_law,
    character_sieve,
    continued_fraction_period,
    period_from_samples,
    simon_solve,
    subgroup_consistency_rank,
)
from hspsim.reporting import write_distribution_csv
from hspsim.representations import FourierTransform, fourier_operator, fourier_transform
from hspsim.transversals import PeriodicInstance, shor_pipeline, shor_transversal

from oracles import (
    character_kernel_probs,
    character_trivial_on,
    kernel_intersection,
    multiplicative_order,
    rank_by_pipeline,
    reference_period_denominator,
)

# every abelian group of order <= 32 in the spellings group_from_spec writes
ABELIAN_SPECS = [f"Z{n}" for n in range(1, 33)] + [
    "Z2^2", "Z2^3", "Z2^4", "Z2^5", "Z2xZ4", "Z2xZ8", "Z4xZ4", "Z2xZ16",
    "Z2^2xZ4", "Z2^3xZ4", "Z2xZ4^2", "Z3xZ9",
]
PIPELINE_CONFIGS = [PipelineConfig(m) for m in MEASURE_GRANULARITIES]


def _refuse_pipeline(monkeypatch):
    """Make any instance build, pipeline run or closure search fail, wherever
    an hspsim module binds it."""

    def refuse(*args, **kwargs):
        raise AssertionError("ranking built an instance, ran a pipeline or closed a span")

    originals = (oracle.build_instance, engine.run_pipeline, groups._grow)
    for name, module in list(sys.modules.items()):
        if name == "hspsim" or name.startswith("hspsim."):
            for key, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, key, refuse)


def test_simon_solve_single_sample():
    group = group_from_spec("Z2^2")
    samples = SampleSet(group, (3,))
    result = simon_solve(samples)
    assert result.candidate.elements == (0, 3)
    assert len(samples.outcomes) == 1


def test_simon_solve_full_rank():
    group = group_from_spec("Z2^2")
    result = simon_solve(SampleSet(group, (1, 2)))
    assert result.candidate.elements == (0,)


def test_simon_solve_empty_samples():
    group = group_from_spec("Z2^3")
    result = simon_solve(SampleSet(group, ()))
    assert result.candidate.elements == tuple(range(8))
    assert not result.confirmed


def test_simon_solve_confirmation_against_full_support():
    group = group_from_spec("Z2^3")
    hidden = Subgroup.from_generators(group, [5])
    dist = run_pipeline(build_instance(group, hidden, seed=0), fourier_operator(group))
    support = tuple(dist.support(1e-10))
    partial = simon_solve(SampleSet(group, support[:1]), full_support=support)
    full = simon_solve(SampleSet(group, support), full_support=support)
    assert full.candidate.elements == hidden.elements
    assert full.confirmed
    assert not partial.confirmed


def test_simon_solve_requires_bit_vector_group():
    with pytest.raises(ValueError, match="Z2"):
        simon_solve(SampleSet(group_from_spec("Z4"), (1,)))


@pytest.mark.parametrize("spec,z2n", [("Z2^3", True), ("Z2^1", True), ("Z2", False),
                                      ("Z2xZ4", False), ("Z6", False), ("D4", False)])
def test_simon_config_and_solver_share_one_z2n_rule(spec, z2n):
    """Validation and simon_solve accept the same groups, with their own texts."""
    raw = {"experiment": "simon", "group": spec, "hidden_generators": []}
    group = group_from_spec(spec)
    if z2n:
        config_from_dict(raw)
        simon_solve(SampleSet(group, (0,)))
        return
    with pytest.raises(ConfigError, match=f"^field 'group': simon needs a Z2\\^n group, "
                                          f"got '{spec}'$"):
        config_from_dict(raw)
    with pytest.raises(ValueError, match="^simon_solve needs a Z2\\^n context, got "):
        simon_solve(SampleSet(group, (0,)))


def test_character_sieve_z12_examples():
    z12 = group_from_spec("Z12")
    assert character_sieve(SampleSet(z12, (6,))).candidate.elements == (0, 2, 4, 6, 8, 10)
    trivial = character_sieve(SampleSet(z12, (0,)))
    assert trivial.candidate.elements == tuple(range(12))
    assert not trivial.confirmed
    assert character_sieve(SampleSet(z12, (4, 6))).candidate.elements == (0, 6)
    with pytest.raises(ValueError, match="out of range"):
        character_sieve(SampleSet(z12, (6,)), full_support=(0, 12))


@pytest.mark.parametrize("spec", ["Z4", "Z6", "Z8", "Z12", "Z16", "Z2^3", "Z2^5", "Z2xZ4", "Z2^2xZ4"])
def test_sieve_on_full_support_recovers_every_subgroup(spec):
    group = group_from_spec(spec)
    fop = fourier_operator(group)
    for hidden in all_subgroups(group):
        dist = run_pipeline(build_instance(group, hidden, seed=0), fop)
        support = tuple(dist.support(1e-10))
        result = character_sieve(SampleSet(group, support), full_support=support)
        assert result.candidate.elements == hidden.elements
        assert result.confirmed


def _check_against_oracle(group, solve, seed):
    """Seeded outcome sets, the empty one first, against the pure-Python oracle.

    Half the supports are drawn from the annihilator of the oracle's K, so
    both answers of the confirmation are exercised.
    """
    moduli = getattr(group, "moduli", (group.order,))
    rng = np.random.default_rng(seed)
    for trial in range(25):
        size = 0 if trial == 0 else int(rng.integers(1, 6))
        outcomes = tuple(int(x) for x in rng.integers(0, group.order, size))
        expected = kernel_intersection(moduli, outcomes)
        pool = range(group.order)
        if trial % 2:
            pool = [y for y in pool if all(character_trivial_on(moduli, y, k) for k in expected)]
        support = tuple(int(y) for y in rng.choice(pool, int(rng.integers(0, 4))))
        widened = kernel_intersection(moduli, outcomes + support)

        bare = solve(SampleSet(group, outcomes))
        assert bare.candidate.elements == expected
        # the same fields as the closure-checked construction
        assert bare.candidate == Subgroup.from_elements(group, expected)
        assert not bare.confirmed
        result = solve(SampleSet(group, outcomes), full_support=support)
        assert result.candidate.elements == expected
        assert result.confirmed == (widened == expected)


@pytest.mark.parametrize("n", range(1, 7))
def test_simon_solve_agrees_with_character_sieve(n):
    """simon_solve against the pair-by-pair character sieve of tests/oracles.py."""
    _check_against_oracle(group_from_spec(f"Z2^{n}"), simon_solve, seed=n)


@pytest.mark.parametrize("spec", ["Z12", "Z2xZ4", "Z2^2xZ4", "Z3xZ9"])
def test_character_sieve_agrees_with_oracle(spec):
    _check_against_oracle(group_from_spec(spec), character_sieve, seed=len(spec))


def test_character_sieve_refuses_non_abelian_group():
    with pytest.raises(ValueError, match="D4"):
        character_sieve(SampleSet(group_from_spec("D4"), (1,)))


def test_abelian_recovery_runs_no_closure_search(monkeypatch):
    """A kernel intersection is a subgroup by construction; nothing re-checks it."""

    def refuse(*args, **kwargs):
        raise AssertionError("closure search on the recovery path")

    monkeypatch.setattr(groups, "_grow", refuse)
    z2_16 = group_from_spec("Z2^16")
    result = simon_solve(SampleSet(z2_16, (0,) * 19), full_support=(0,))
    assert result.candidate.elements == tuple(range(z2_16.order))
    assert result.confirmed
    # 17 distinct outcomes on 65536 elements exceed one pairing chunk
    units = (0,) + tuple(1 << i for i in range(16))
    assert simon_solve(SampleSet(z2_16, units)).candidate.elements == (0,)
    z3x9 = group_from_spec("Z3xZ9")
    result = character_sieve(SampleSet(z3x9, (3, 12)))
    assert result.candidate.elements == kernel_intersection((3, 9), (3, 12))


def test_continued_fraction_examples():
    assert continued_fraction_period(12, 16, 15) == 4
    assert continued_fraction_period(0, 16, 15) is None
    assert continued_fraction_period(13, 16, 15) == 5
    with pytest.raises(ValueError):
        continued_fraction_period(3, 0, 15)


@pytest.mark.parametrize("big_q,n", [(16, 15), (64, 21), (512, 21), (128, 33)])
def test_continued_fraction_matches_reference_oracle(big_q, n):
    for y in range(big_q):
        assert continued_fraction_period(y, big_q, n) == reference_period_denominator(
            y, big_q, n
        )


def test_period_from_samples_examples():
    est = period_from_samples([12, 8], 16, 15, 7)
    assert est.period == 4 and est.confirmed
    est = period_from_samples([8], 16, 15, 7)
    assert est.period == 2 and not est.confirmed
    est = period_from_samples([0, 0, 0], 16, 15, 7)
    assert est.period is None and not est.confirmed


@pytest.mark.parametrize("outcomes, bad", [
    ([85.7, "171"], "85.7"),
    ([85, "171"], "'171'"),
    ([85, 512], "512"),
    ([-1], "-1"),
])
def test_period_from_samples_refuses_an_outcome_outside_z_q(outcomes, bad):
    """Each outcome is an element index of Z_Q, refused by that rule, not
    truncated by int(): [85.7, '171'] once gave a confirmed period 6."""
    message = f"^element index {re.escape(bad)} out of range for Z512 \\(order 512\\)$"
    with pytest.raises(ValueError, match=message):
        period_from_samples(outcomes, 512, 21, 2)


@pytest.mark.parametrize("r,big_q", [(2, 16), (4, 16), (8, 16), (16, 256)])
def test_period_recovered_from_ideal_support(r, big_q):
    # big_q is large enough that no convergent below r slips into the
    # 1/(2Q) window, so the smallest-denominator rule is sound
    support = [j * (big_q // r) for j in range(r)]
    base, modulus = {2: (4, 15), 4: (7, 15), 8: (2, 17), 16: (3, 17)}[r]
    est = period_from_samples(support, big_q, modulus, base)
    assert est.period == r
    assert est.confirmed


def test_confirmed_period_is_the_order_not_a_multiple():
    # N=21, a=2, r=6, Q=512: y=128 gives denominator 4 and y=171 gives 3, so
    # L = 12 and a^12 = 1, but the period is 6
    assert [continued_fraction_period(y, 512, 21) for y in (128, 171)] == [4, 3]
    est = period_from_samples([128, 171], 512, 21, 2)
    assert est.period == 6 and est.confirmed
    # a^4 != 1, so L = 4 stays as it is and is not confirmed
    est = period_from_samples([128], 512, 21, 2)
    assert est.period == 4 and not est.confirmed


@pytest.mark.parametrize("modulus,big_q", [(15, 64), (21, 512), (35, 1024), (91, 4096), (97, 999)])
def test_period_from_samples_against_brute_force_order(modulus, big_q):
    """A confirmed period is the brute-force multiplicative order, on random outcome sets."""
    rng = np.random.default_rng(modulus)
    for base in (b for b in range(2, modulus) if math.gcd(b, modulus) == 1):
        order = multiplicative_order(base, modulus)
        for _ in range(8):
            outcomes = rng.integers(0, big_q, size=int(rng.integers(1, 6))).tolist()
            denominators = [reference_period_denominator(y, big_q, modulus) for y in outcomes]
            denominators = [d for d in denominators if d is not None]
            est = period_from_samples(outcomes, big_q, modulus, base)
            if not denominators:
                assert est.period is None and not est.confirmed
                continue
            lcm = math.lcm(*denominators)
            assert est.confirmed == (lcm % order == 0)
            assert est.period == (order if est.confirmed else lcm)


def test_trivial_period_support_is_uninformative():
    # r = 1 puts all mass on outcome 0, which carries no denominator
    est = period_from_samples([0], 16, 15, 1)
    assert est.period is None and not est.confirmed


def test_period_from_pipeline_samples_end_to_end():
    inst = PeriodicInstance(15, 7, 16)
    dist = shor_pipeline(inst, shor_transversal(16))
    draws = sample(dist, 16, seed=5)
    est = period_from_samples(draws, 16, 15, 7)
    assert est.period == 4 and est.confirmed


def test_consistency_rank_assigns_zero_to_true_subgroup():
    group = group_from_spec("D4")
    hidden = Subgroup.from_generators(group, [2])
    fop = fourier_operator(group)
    dist = run_pipeline(build_instance(group, hidden, seed=0), fop)
    ranking = subgroup_consistency_rank(dist, group, fop)
    by_elements = {sub.elements: tv for sub, tv in ranking.entries}
    assert by_elements[hidden.elements] < 1e-10
    top_group, top_tv = ranking.entries[0]
    assert top_tv < 1e-10


def test_consistency_rank_orders_and_reports_ties():
    group = group_from_spec("Z2^2")
    hidden = Subgroup.from_generators(group, [3])
    fop = fourier_operator(group)
    dist = run_pipeline(build_instance(group, hidden, seed=0), fop)
    ranking = subgroup_consistency_rank(dist, group, fop)
    tvs = [tv for _, tv in ranking.entries]
    assert tvs == sorted(tvs)
    assert ranking.entries[0][0].elements == hidden.elements
    # every position appears in at most one tie class
    flat = [p for cls in ranking.tie_classes for p in cls]
    assert len(flat) == len(set(flat))
    for cls in ranking.tie_classes:
        assert len(cls) >= 2
        base = ranking.entries[cls[0]][1]
        for pos in cls[1:]:
            assert abs(ranking.entries[pos][1] - base) < 1e-10


def test_consistency_rank_orders_equal_tvs_by_elements():
    """TVs equal to RANK_TIE_TOL rank by element tuple, whatever their last ulp."""
    group = group_from_spec("Z2^5")
    fourier = fourier_transform(group)
    dist = run_pipeline(build_instance(group, Subgroup.from_generators(group, [3]), 0), fourier)
    ranking = subgroup_consistency_rank(dist, group, fourier)
    keys = [(round(tv / RANK_TIE_TOL), sub.elements) for sub, tv in ranking.entries]
    assert keys == sorted(keys)
    assert "op_table" not in vars(group)


@pytest.mark.parametrize(
    "spec, granularity, labels, stray",
    [
        ("Z4", "full_triple", (0, 7), "7"),
        ("D4", "full_triple", ((0, 0, 0), 4), "4"),
        ("D4", "irrep_label_only", (0, (4, 0, 1)), "(4, 0, 1)"),
    ],
)
def test_consistency_rank_refuses_stray_labels(spec, granularity, labels, stray, monkeypatch):
    """A label the pipeline cannot produce is refused, not ranked as if observed,
    before any candidate is predicted."""
    _refuse_pipeline(monkeypatch)
    dist = OutcomeDistribution(labels, np.array([0.5, 0.5]))
    cfg = PipelineConfig(granularity)
    with pytest.raises(ValueError, match=re.escape(f"label {stray} is not an outcome")):
        subgroup_consistency_rank(dist, group_from_spec(spec), cfg=cfg)


@pytest.mark.parametrize("spec, other", [("D4", "D3"), ("Z4", "Z2^2")])
def test_consistency_rank_refuses_transform_of_another_group(spec, other):
    group = group_from_spec(spec)
    dist = run_pipeline(build_instance(group, all_subgroups(group)[1], 0), fourier_transform(group))
    with pytest.raises(ValueError, match=re.escape(f"for {other} does not match {spec}")):
        subgroup_consistency_rank(dist, group, fourier_transform(group_from_spec(other)))


def test_consistency_rank_respects_order_cap():
    group = group_from_spec("Z64")
    dist = run_pipeline(
        build_instance(group, Subgroup.from_generators(group, [1]), seed=0),
        fourier_operator(group),
    )
    with pytest.raises(ResourceCapError):
        subgroup_consistency_rank(dist, group)


def test_consistency_rank_with_coarse_measurement():
    group = group_from_spec("D4")
    hidden = Subgroup.from_generators(group, [2])
    fop = fourier_operator(group)
    cfg = PipelineConfig("irrep_label_only")
    dist = run_pipeline(build_instance(group, hidden, seed=0), fop, cfg)
    ranking = subgroup_consistency_rank(dist, group, fop, cfg)
    by_elements = {sub.elements: tv for sub, tv in ranking.entries}
    assert by_elements[hidden.elements] < 1e-10


@pytest.mark.parametrize("spec", ABELIAN_SPECS)
def test_annihilator_law_matches_character_kernel_oracle(spec):
    """Every prediction row is the closed form p(y) = |K|/|G| on the annihilator of K."""
    group = group_from_spec(spec)
    candidates = all_subgroups(group)
    expected = [character_kernel_probs(group.moduli, k.elements) for k in candidates]
    fourier = fourier_transform(group)
    for cfg in PIPELINE_CONFIGS:
        labels = outcome_labels(fourier, cfg)
        law = annihilator_law(group, candidates, labels)
        for row, probs in zip(law, expected):
            assert np.abs(row - [probs[y] for y in labels]).max() <= 1e-12


@pytest.mark.parametrize("spec", ["Z2^5", "Z2^6", "Z4xZ2", "Z3xZ9"])
def test_annihilator_law_float_product_equals_integer_product(spec):
    """The float64 membership x moved-character product gives, bit for bit, the
    law of the exact int64 product, on every subgroup and outcome labelling."""
    group = group_from_spec(spec)
    candidates = all_subgroups(group)
    member = membership(group, candidates).astype(np.int64)
    fourier = fourier_transform(group)
    for cfg in PIPELINE_CONFIGS:
        labels = outcome_labels(fourier, cfg)
        moved = character_pairing(group, np.arange(group.order), labels)[0] != 0
        outside = member @ moved.astype(np.int64)
        expected = np.where(outside == 0, member.sum(axis=1)[:, None] / group.order, 0.0)
        assert np.array_equal(annihilator_law(group, candidates, labels), expected)


@pytest.mark.parametrize("spec", ABELIAN_SPECS + ["D3", "D4", "D5", "D8", "D16"])
def test_consistency_rank_matches_per_candidate_oracle(spec):
    """The matrix ranking against the loop that runs one pipeline per candidate and
    sums dict TVs: same order and tie classes, TVs to 1e-12, for a seeded pipeline
    output and a seeded random law on a random subset of the labels."""
    group = group_from_spec(spec)
    fourier = fourier_transform(group)
    candidates = all_subgroups(group)
    rng = np.random.default_rng(group.order)
    for cfg in PIPELINE_CONFIGS:
        preds = {
            k.elements: run_pipeline(build_instance(group, k, 0), fourier, cfg).as_mapping()
            for k in candidates
        }
        labels = outcome_labels(fourier, cfg)
        hidden = candidates[int(rng.integers(len(candidates)))].elements
        kept = sorted(rng.choice(len(labels), int(rng.integers(1, len(labels) + 1)), replace=False))
        weights = rng.random(len(kept))
        observed = [preds[hidden], {labels[i]: w / weights.sum() for i, w in zip(kept, weights)}]
        for law in observed:
            expected, expected_ties = rank_by_pipeline(law, list(preds), preds.__getitem__)
            dist = OutcomeDistribution(tuple(law), np.array(list(law.values())))
            ranking = subgroup_consistency_rank(dist, group, fourier, cfg)
            assert [k.elements for k, _ in ranking.entries] == [e for e, _ in expected]
            tvs = np.array([tv for _, tv in ranking.entries])
            assert np.abs(tvs - [tv for _, tv in expected]).max() <= 1e-12
            assert ranking.tie_classes == expected_ties
            if not isinstance(group, DihedralGroup):
                # distinct subgroups have distinct annihilators
                assert ranking.tie_classes == ()


def test_recover_ranks_abelian_candidates_without_pipeline(tmp_path, monkeypatch):
    group = group_from_spec("Z2^5")
    hidden = Subgroup.from_generators(group, [3, 12])
    dist = run_pipeline(build_instance(group, hidden, seed=0), fourier_transform(group))
    write_distribution_csv(tmp_path / "distribution.csv", dist)
    _refuse_pipeline(monkeypatch)
    cfg = config_from_dict(
        {"experiment": "recover", "group": "Z2^5", "dist": str(tmp_path / "distribution.csv")}
    )
    report = run_experiment(cfg, tmp_path / "recover")
    assert len(report["candidates"]) == len(all_subgroups(group))
    truth = [c for c in report["candidates"] if c["elements"] == group.labels(hidden.elements)]
    assert len(truth) == 1
    assert truth[0]["total_variation"] <= 1e-12
    assert report["tie_classes"] == []


def _recover_report(tmp_path, group, dist, granularity="full_triple"):
    write_distribution_csv(tmp_path / "distribution.csv", dist)
    cfg = config_from_dict({"experiment": "recover", "group": group.name,
                            "dist": str(tmp_path / "distribution.csv"),
                            "measure_granularity": granularity})
    return run_experiment(cfg, tmp_path / "recover")


@pytest.mark.parametrize("spec", ABELIAN_SPECS + [f"D{n}" for n in range(1, 17)])
def test_recover_reports_spanning_generators(spec, tmp_path):
    """Each reported candidate's generators, read off the subgroup lattice, are the
    greedy `spanning_generators()` of its subgroup, for every subgroup."""
    group = group_from_spec(spec)
    candidates = all_subgroups(group)
    hidden = candidates[len(candidates) // 2]
    dist = run_pipeline(build_instance(group, hidden, seed=1), fourier_transform(group))
    report = _recover_report(tmp_path, group, dist)
    expected = {
        tuple(group.labels(k.elements)): [group.label(g) for g in k.spanning_generators()] for k in candidates
    }
    assert len(report["candidates"]) == len(expected)
    for entry in report["candidates"]:
        assert entry["generators"] == expected[tuple(entry["elements"])]


@pytest.mark.parametrize("granularity", MEASURE_GRANULARITIES)
def test_recover_ranks_dihedral_candidates_without_pipeline(granularity, tmp_path, monkeypatch):
    """D16 through run_experiment with no instance, pipeline run or closure search:
    the true K at TV 0 and the tie classes of the per-candidate pipeline loop."""
    group = group_from_spec("D16")
    fourier = fourier_transform(group)
    cfg = PipelineConfig(granularity)
    hidden = Subgroup.from_generators(group, [4, 17])
    dist = run_pipeline(build_instance(group, hidden, seed=5), fourier, cfg)
    candidates = all_subgroups(group)
    preds = {k.elements: run_pipeline(build_instance(group, k, 0), fourier, cfg).as_mapping()
             for k in candidates}
    expected, expected_ties = rank_by_pipeline(dist.as_mapping(), list(preds), preds.__getitem__)
    _refuse_pipeline(monkeypatch)
    report = _recover_report(tmp_path, group, dist, granularity)
    truth = [c for c in report["candidates"] if c["elements"] == group.labels(hidden.elements)]
    assert len(truth) == 1 and truth[0]["total_variation"] <= 1e-12
    assert [tuple(group.labels(e)) for e, _ in expected] == [
        tuple(c["elements"]) for c in report["candidates"]]
    assert report["tie_classes"] == [list(t) for t in expected_ties]


class _DriftingTransform(FourierTransform):
    """Moves 1e-9 of norm^2 from the first column to the last after the second
    transform: the first and the last block drift, the whole stack does not.
    The run path calls the in-place forward core, not `apply`."""

    def _apply_in_place(self, state):
        out = super()._apply_in_place(state)
        first, last = (float(np.sum(np.abs(out[:, c]) ** 2)) for c in (0, -1))
        out[:, 0] *= np.sqrt(1 + 1e-9 / first)
        out[:, -1] *= np.sqrt(1 - 1e-9 / last)
        return out


def test_norm_drift_in_one_candidate_block_is_refused():
    group = group_from_spec("D16")
    fourier = fourier_transform(group)
    dist = run_pipeline(build_instance(group, Subgroup.from_generators(group, [2]), 0), fourier)
    subgroup_consistency_rank(dist, group, fourier)
    with pytest.raises(IntegrityError, match="after the second Fourier transform"):
        subgroup_consistency_rank(dist, group, _DriftingTransform(group))
