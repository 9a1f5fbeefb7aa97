"""Acceptance checks: one test per criterion, one printed line per criterion.

Expected values tagged as frozen were computed once with the independent
oracles in oracles.py and pinned here; every tolerance is stated inline.
"""

import statistics
import time

import numpy as np
import pytest

from hspsim.config import parse_config
from hspsim.engine import run_pipeline, sample
from hspsim.experiments import run_experiment
from hspsim.groups import Subgroup, all_subgroups, group_from_spec
from hspsim.oracle import build_instance, classical_brute_force_hsp
from hspsim.recovery import (
    SampleSet,
    character_sieve,
    period_from_samples,
    simon_solve,
    subgroup_consistency_rank,
)
from hspsim.representations import fourier_operator, verify_representation_suite
from hspsim.transversals import (
    PeriodicInstance,
    offset_transversal,
    peak_mass,
    shor_pipeline,
    shor_transversal,
)

from oracles import character_kernel_probs, dense_pipeline_probs, direct_fourier_probs

# Frozen from the direct-summation oracle for N=21, a=2 (r=6), Q=512 with the
# canonical transversal; the pipeline must reproduce it to 1e-10.
PEAK_MASS_N21_A2_Q512 = 0.7893015002055206

PRODUCT_SPECS = [
    "Z2xZ4", "Z2xZ6", "Z2xZ8", "Z2xZ16", "Z2xZ32", "Z3xZ3", "Z3xZ9",
    "Z4xZ4", "Z4xZ8", "Z5xZ5", "Z6xZ6", "Z2^2xZ4", "Z2^2xZ8",
]


def _representation_family():
    specs = [f"Z{n}" for n in range(1, 65)]
    specs += [f"Z2^{n}" for n in range(1, 7)]
    specs += PRODUCT_SPECS
    specs += [f"D{n}" for n in range(1, 33)]
    return specs


def _finish(number: int, name: str, failures: list, elapsed: float | None = None):
    status = "FAIL" if failures else "PASS"
    stamp = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[criterion {number}] {name}: {status}{stamp}")
    assert not failures, f"criterion {number} ({name}): " + " | ".join(failures[:10])


def test_criterion_1_representation_suite():
    start = time.perf_counter()
    failures = []
    for spec in _representation_family():
        group = group_from_spec(spec)
        assert group.order <= 64
        report = verify_representation_suite(group)
        if report["completeness_defect"] >= 1e-12:
            failures.append(f"{spec}: completeness defect {report['completeness_defect']:.3e}")
        if report["max_schur_residual"] >= 1e-12:
            failures.append(f"{spec}: Schur residual {report['max_schur_residual']:.3e}")
        unitarity = fourier_operator(group).max_unitarity_residual()
        if unitarity >= 1e-12:
            failures.append(f"{spec}: Fourier unitarity residual {unitarity:.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _finish(1, "representation-suite", failures, elapsed)


def test_criterion_2_abelian_reduction():
    failures = []
    for n in range(1, 33):
        group = group_from_spec(f"Z{n}")
        fop = fourier_operator(group)
        character_transform = np.array(
            [
                [np.exp(2j * np.pi * ((x * y) % n) / n) / np.sqrt(n) for x in range(n)]
                for y in range(n)
            ]
        )
        permutation = []
        for row in fop.matrix:
            matches = [
                y for y in range(n)
                if np.abs(row - character_transform[y]).max() < 1e-12
            ]
            if len(matches) != 1:
                failures.append(f"Z{n}: row matches {len(matches)} character rows")
                break
            permutation.append(matches[0])
        else:
            if sorted(permutation) != list(range(n)):
                failures.append(f"Z{n}: matched rows do not form a permutation")
    _finish(2, "abelian-reduction", failures)


def test_criterion_3_simon_end_to_end():
    start = time.perf_counter()
    exact_failures = []
    sieve_failures = []
    sampled_failures = []
    subgroups_total = 0
    for n in range(1, 6):
        group = group_from_spec(f"Z2^{n}")
        fop = fourier_operator(group)
        for k_index, hidden in enumerate(all_subgroups(group)):
            subgroups_total += 1
            dist = run_pipeline(build_instance(group, hidden, seed=0), fop)
            expected = character_kernel_probs(group.moduli, hidden.elements)
            for label, p in zip(dist.labels, dist.probs):
                if expected[label] > 0 and abs(p - expected[label]) >= 1e-10:
                    exact_failures.append(f"n={n} K#{k_index}: deviation at {label}")
                if expected[label] == 0 and p >= 1e-12:
                    exact_failures.append(f"n={n} K#{k_index}: off-support mass at {label}")

            support = tuple(dist.support(1e-10))
            sieved = character_sieve(SampleSet(group, support), full_support=support)
            if sieved.candidate.elements != hidden.elements:
                sieve_failures.append(f"n={n} K#{k_index}: sieve returned wrong subgroup")

            draws = sample(dist, 100 * (n + 3), seed=1000 * n + k_index)
            successes = 0
            for run in range(100):
                chunk = tuple(int(s) for s in draws[run * (n + 3):(run + 1) * (n + 3)])
                solved = simon_solve(SampleSet(group, chunk))
                successes += solved.candidate.elements == hidden.elements
            if successes < 99:
                sampled_failures.append(
                    f"n={n} K#{k_index} |K|={hidden.order}: {successes}/100 < 99"
                )
    elapsed = time.perf_counter() - start
    runtime_failures = [] if elapsed < 60.0 else [f"runtime {elapsed:.1f}s exceeds 60s"]
    print(
        f"  exact-uniformity: {'PASS' if not exact_failures else 'FAIL'}; "
        f"sieve-exactness: {'PASS' if not sieve_failures else 'FAIL'}; "
        f"sampled-recovery(>=99/100): "
        f"{subgroups_total - len(sampled_failures)}/{subgroups_total} subgroups"
    )
    failures = exact_failures + sieve_failures + runtime_failures + sampled_failures
    _finish(3, "simon-end-to-end", failures, elapsed)


def test_criterion_4_shor_exact_case():
    failures = []
    instance = PeriodicInstance(15, 7, 16)
    dist = shor_pipeline(instance, shor_transversal(16))
    expected_support = {0, 4, 8, 12}
    for label, p in zip(dist.labels, dist.probs):
        if label in expected_support:
            if abs(p - 0.25) >= 1e-10:
                failures.append(f"outcome {label}: probability {p!r} != 0.25")
        elif p >= 1e-12:
            failures.append(f"outcome {label}: unexpected mass {p!r}")
    oracle_probs = direct_fourier_probs(
        tuple(pow(7, q, 15) for q in range(16)), 16
    )
    if np.abs(np.asarray(dist.probs) - np.asarray(oracle_probs)).max() >= 1e-12:
        failures.append("state-vector path disagrees with direct summation")
    if abs(peak_mass(dist, 4, 16) - 1.0) >= 1e-12:
        failures.append(f"peak mass {peak_mass(dist, 4, 16)!r} != 1.0")
    estimate = period_from_samples(dist.support(1e-12), 16, 15, 7)
    if estimate.period != 4 or not estimate.confirmed:
        failures.append(f"period estimate {estimate} is not a confirmed 4")
    _finish(4, "shor-exact-case", failures)


def test_criterion_5_shor_inexact_case():
    start = time.perf_counter()
    failures = []
    instance = PeriodicInstance(21, 2, 512)
    assert instance.period == 6
    dist = shor_pipeline(instance, shor_transversal(512))
    pm = peak_mass(dist, 6, 512)
    if abs(pm - PEAK_MASS_N21_A2_Q512) >= 1e-10:
        failures.append(f"peak mass {pm!r} != frozen {PEAK_MASS_N21_A2_Q512!r}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _finish(5, "shor-inexact-case", failures, elapsed)


def test_criterion_6_transversal_conjecture_demonstration():
    start = time.perf_counter()
    failures = []
    instance = PeriodicInstance(21, 2, 512)
    r, big_q = instance.period, 512
    reference = peak_mass(shor_pipeline(instance, shor_transversal(big_q)), r, big_q)
    offset_masses = []
    wins = 0
    for seed in range(100):
        tau = offset_transversal(big_q, 21, seed=seed)
        pm = peak_mass(shor_pipeline(instance, tau), r, big_q)
        offset_masses.append(pm)
        wins += reference > pm
    if wins < 90:
        failures.append(f"canonical transversal won only {wins}/100 runs")
    median = statistics.median(offset_masses)
    if median >= 0.5 * reference:
        failures.append(f"median offset peak mass {median:.4f} >= half of {reference:.4f}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5min")
    print(f"  wins={wins}/100 median_offset={median:.4f} reference={reference:.4f}")
    _finish(6, "transversal-conjecture-demonstration", failures, elapsed)


def test_criterion_7_brute_force_equivalences():
    failures = []
    specs = ["Z2", "Z3", "Z4", "Z6", "Z8", "Z12", "Z16", "Z24", "Z32",
             "Z2^2", "Z2^3", "Z2^4", "Z2^5", "Z2xZ4", "Z2^2xZ4", "Z3xZ9",
             "D3", "D4", "D6", "D8", "D12", "D16"]
    for spec in specs:
        group = group_from_spec(spec)
        assert group.order <= 32
        fop = fourier_operator(group)
        for hidden in all_subgroups(group):
            # (a) dense-unitary equivalence wherever the joint space fits
            if group.order * hidden.num_cosets <= 64:
                inst = build_instance(group, hidden, seed=0)
                dist = run_pipeline(inst, fop)
                dense = dense_pipeline_probs(
                    group.order,
                    inst.codomain.order,
                    fop.matrix,
                    [inst.f(g) for g in range(group.order)],
                )
                if np.abs(np.asarray(dist.probs) - dense).max() >= 1e-12:
                    failures.append(f"{spec}: dense mismatch for K of order {hidden.order}")
            # (b) the classical scan recovers the constructed subgroup
            for seed in (0, 1, 2):
                inst = build_instance(group, hidden, seed=seed)
                if classical_brute_force_hsp(inst).elements != hidden.elements:
                    failures.append(f"{spec}: brute force missed K (seed {seed})")
    _finish(7, "brute-force-equivalences", failures)


def test_criterion_8_non_abelian_self_consistency():
    failures = []
    group = group_from_spec("D4")
    hidden = Subgroup.from_generators(group, [2])
    fop = fourier_operator(group)
    dist = run_pipeline(build_instance(group, hidden, seed=0), fop)
    ranking = subgroup_consistency_rank(dist, group, fop)
    by_elements = {sub.elements: tv for sub, tv in ranking.entries}
    if by_elements[hidden.elements] >= 1e-10:
        failures.append(f"true subgroup distance {by_elements[hidden.elements]!r}")
    tie_note = ", ".join(
        "{" + "; ".join(
            "|".join(group.labels(ranking.entries[pos][0].elements)) for pos in cls
        ) + "}"
        for cls in ranking.tie_classes
    ) or "none"
    print(f"  tie classes: {tie_note}")
    # any two candidates with numerically identical predictions share a class
    predictions = {
        sub.elements: run_pipeline(build_instance(group, sub, seed=0), fop)
        for sub, _ in ranking.entries
    }
    entries = list(ranking.entries)
    in_same_class = {
        (min(a, b), max(a, b))
        for cls in ranking.tie_classes
        for a in cls
        for b in cls
        if a != b
    }
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = (predictions[entries[k][0].elements] for k in (i, j))
            assert a.labels == b.labels
            tv = 0.5 * np.abs(a.probs - b.probs).sum()
            if tv < 1e-12 and (i, j) not in in_same_class:
                failures.append(f"identical predictions at ranks {i},{j} not reported as tie")
    _finish(8, "non-abelian-self-consistency", failures)


@pytest.mark.parametrize(
    "config_text",
    [
        '{"experiment":"simon","group":"Z2^4","hidden_generators":[[1,0,1,1]],"trials":12,"seed":7}',
        '{"experiment":"shor","N":15,"a":7,"Q":16,"transversal":{"kind":"shor"},"trials":10,"seed":3}',
        '{"experiment":"shor","N":21,"a":2,"Q":512,"transversal":{"kind":"offset","bound":21},"trials":6,"seed":5}',
        '{"experiment":"simulate","group":"D4","hidden_generators":[2],"oracle_seed":7,"trials":25,"seed":13}',
        '{"experiment":"sweep-transversal","N":21,"a":2,"Q":64,"bound":21,"seeds":10,"seed":2}',
    ],
    ids=["simon", "shor-exact", "shor-offset", "simulate-d4", "sweep"],
)
def test_criterion_9_replay_determinism(tmp_path, config_text):
    cfg = parse_config(config_text)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, out_a)
    run_experiment(cfg, out_b)
    names = sorted(p.name for p in out_a.iterdir())
    failures = []
    if names != sorted(p.name for p in out_b.iterdir()):
        failures.append("artifact sets differ")
    for name in names:
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            failures.append(f"{name} differs between identical runs")
    _finish(9, f"replay-determinism[{cfg.experiment}]", failures)
