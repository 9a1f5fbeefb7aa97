import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import hspsim
from hspsim.config import config_from_dict
from hspsim.engine import (
    MEASURE_GRANULARITIES,
    SECOND_TRANSFORMS,
    OutcomeDistribution,
    PipelineConfig,
    finalize_distribution,
    outcome_labels,
    run_pipeline,
    sample,
    step_trace,
)
from hspsim.errors import IntegrityError, ResourceCapError
from hspsim.experiments import run_experiment
from hspsim.groups import CyclicGroup, Subgroup, all_subgroups, group_from_spec
from hspsim.oracle import HspInstance, build_instance
from hspsim.recovery import SampleSet, character_sieve, coset_law
from hspsim.reporting import (
    DistributionPairs,
    csv_floats,
    float_texts,
    fmt17,
    json_floats,
    label_strs,
    write_distribution_csv,
    write_f_table_csv,
    write_samples_csv,
)
from hspsim.representations import fourier_operator, fourier_transform

from oracles import blackbox_by_loops, character_kernel_probs, dense_pipeline_probs, label_str

ABELIAN_SWEEP = [
    "Z2", "Z4", "Z6", "Z8", "Z12", "Z16", "Z24", "Z32",
    "Z2^2", "Z2^3", "Z2^4", "Z2^5", "Z2xZ4", "Z2^2xZ4", "Z3xZ9",
]


def test_simon_instance_distribution_uniform_on_annihilator():
    group = group_from_spec("Z2^2")
    hidden = Subgroup.from_generators(group, [3])
    dist = run_pipeline(
        build_instance(group, hidden, seed=0), fourier_operator(group)
    )
    assert dist.as_mapping() == {0: 0.5, 1: 0.0, 2: 0.0, 3: 0.5}


def test_constant_function_gives_point_mass_at_trivial_character():
    group = group_from_spec("Z12")
    hidden = Subgroup.from_generators(group, [1])
    dist = run_pipeline(
        build_instance(group, hidden, seed=0), fourier_operator(group)
    )
    assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)
    assert dist.probs[1:].max() < 1e-12


def test_injective_function_gives_uniform_distribution():
    group = group_from_spec("Z6")
    hidden = Subgroup.from_generators(group, [])
    dist = run_pipeline(
        build_instance(group, hidden, seed=0), fourier_operator(group)
    )
    assert np.abs(dist.probs - 1 / 6).max() < 1e-12


@pytest.mark.parametrize("spec", ABELIAN_SWEEP)
def test_abelian_character_kernel_law(spec):
    group = group_from_spec(spec)
    fop = fourier_operator(group)
    moduli = getattr(group, "moduli", (group.order,))
    for hidden in all_subgroups(group):
        dist = run_pipeline(build_instance(group, hidden, seed=1), fop)
        expected = character_kernel_probs(moduli, hidden.elements)
        for label, p in zip(dist.labels, dist.probs):
            assert abs(p - expected[label]) < 1e-12


@pytest.mark.parametrize("spec", ["Z4", "Z6", "Z2^2", "D3", "D4"])
def test_pipeline_matches_dense_unitary_simulation(spec):
    group = group_from_spec(spec)
    fop = fourier_operator(group)
    for hidden in all_subgroups(group):
        if group.order * hidden.num_cosets > 64:
            continue
        inst = build_instance(group, hidden, seed=2)
        for forward in (True, False):
            cfg = PipelineConfig("forward" if forward else "inverse")
            dist = run_pipeline(inst, fop, cfg)
            expected = dense_pipeline_probs(
                group.order,
                inst.codomain.order,
                fop.matrix,
                inst.f_table.tolist(),
                forward=forward,
            )
            assert np.abs(np.asarray(dist.probs) - expected).max() < 1e-12


@pytest.mark.parametrize(
    "spec", ["Z4", "Z6", "Z8", "Z12", "Z16", "Z2^3", "Z2^4", "Z2xZ4", "Z2^2xZ4"]
)
def test_forward_and_inverse_transforms_relabel_by_negation(spec):
    group = group_from_spec(spec)
    fop = fourier_operator(group)
    for hidden in all_subgroups(group):
        inst = build_instance(group, hidden, seed=0)
        fwd = run_pipeline(inst, fop, PipelineConfig("forward"))
        inv = run_pipeline(inst, fop, PipelineConfig("inverse"))
        fwd_map, inv_map = fwd.as_mapping(), inv.as_mapping()
        for y in range(group.order):
            assert abs(fwd_map[y] - inv_map[group.inv(y)]) < 1e-12
        k_fwd = character_sieve(SampleSet(group, tuple(fwd.support(1e-10))))
        k_inv = character_sieve(SampleSet(group, tuple(inv.support(1e-10))))
        assert k_fwd.candidate.elements == k_inv.candidate.elements == hidden.elements


def test_distribution_independent_of_injection_seed():
    group = group_from_spec("D4")
    hidden = Subgroup.from_generators(group, [2])
    fop = fourier_operator(group)
    dists = [
        run_pipeline(build_instance(group, hidden, seed=s), fop) for s in range(5)
    ]
    for other in dists[1:]:
        assert np.abs(dists[0].probs - other.probs).max() < 1e-12


def test_norms_along_the_pipeline():
    for spec in ["D6", "Z3xZ9", "Z2^6"]:
        group = group_from_spec(spec)
        hidden = Subgroup.from_generators(group, [3])
        inst = build_instance(group, hidden, seed=0)
        fop = fourier_operator(group)
        states = step_trace(inst, fop)
        assert len(states) == 4
        shape = (group.order, inst.codomain.order)
        for state in states:
            assert state.shape == shape and state.dtype == np.complex128
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12
        # the initial state is |e>|0>, and the first transform puts column 0 of F
        # in column 0, bit for bit
        psi0 = np.zeros(shape, dtype=np.complex128)
        psi0[0, 0] = 1.0
        psi1 = np.zeros(shape, dtype=np.complex128)
        psi1[:, 0] = fop.matrix[:, 0]
        assert np.array_equal(states[0], psi0), spec
        assert np.array_equal(states[1], psi1), spec


# (group, hidden generators, K normal, codomain order or None for the coset count)
BLACKBOX_CASES = [
    ("D3", [1], True, None),
    ("D3", [3], False, None),
    ("D4", [2], True, None),
    ("D4", [4], False, None),
    ("D4", [4], False, 11),
    ("Z6", [2], True, None),
    ("Z6", [3], True, 7),
    ("Z2^3", [3, 5], True, None),
]


@pytest.mark.parametrize("spec, gens, normal, codomain_order", BLACKBOX_CASES)
def test_blackbox_step_is_the_basis_permutation(spec, gens, normal, codomain_order):
    """psi2 is |g>|h> -> |g>|f(g) h^-1> applied to psi1, bit for bit."""
    group = group_from_spec(spec)
    hidden = Subgroup.from_generators(group, gens)
    assert hidden.normal == normal
    inst = build_instance(group, hidden, seed=4)
    if codomain_order is not None:
        inst = HspInstance(group, hidden, CyclicGroup(codomain_order), inst.f_table)
    assert inst.codomain.order == (codomain_order or hidden.num_cosets)
    psi1, psi2 = step_trace(inst, fourier_transform(group))[1:3]
    expected = blackbox_by_loops(inst.f_table.tolist(), inst.codomain.order, psi1)
    assert psi2.dtype == expected.dtype and psi2.shape == expected.shape
    assert np.array_equal(psi2, expected)
    # a permutation moves the amplitudes and changes none of them
    assert np.array_equal(np.sort(np.abs(psi2.ravel())), np.sort(np.abs(psi1.ravel())))


def test_first_step_is_uniform_for_abelian_groups():
    group = group_from_spec("Z12")
    hidden = Subgroup.from_generators(group, [4])
    inst = build_instance(group, hidden, seed=0)
    matrix = step_trace(inst, fourier_operator(group))[1]
    assert np.abs(np.abs(matrix[:, 0]) - 1 / np.sqrt(group.order)).max() < 1e-12


def test_irrep_label_granularity_aggregates_blocks():
    """irrep_label_only sums each block's row probabilities in row order,
    bit for bit as a loop over row_index does."""
    cfg = PipelineConfig("forward", "irrep_label_only")
    for spec in ["D3", "D4", "D5", "D8", "D16"]:
        group = group_from_spec(spec)
        fourier = fourier_transform(group)
        for hidden in all_subgroups(group):
            inst = build_instance(group, hidden, seed=0)
            coarse = run_pipeline(inst, fourier, cfg)
            probs = (np.abs(step_trace(inst, fourier, cfg)[3]) ** 2).sum(axis=1)
            labels = tuple(dict.fromkeys(i for i, _, _ in fourier.row_index))
            agg = {lab: 0.0 for lab in labels}
            for (i, _, _), p in zip(fourier.row_index, probs):
                agg[i] += float(p)
            expected = finalize_distribution(labels, np.array([agg[lab] for lab in labels]))
            assert coarse.labels == expected.labels, spec
            assert coarse.probs.dtype == expected.probs.dtype
            assert np.array_equal(coarse.probs, expected.probs), (spec, hidden)


@pytest.mark.parametrize("granularity", MEASURE_GRANULARITIES)
@pytest.mark.parametrize("second", SECOND_TRANSFORMS)
@pytest.mark.parametrize("spec", ["Z2^12", "Z3xZ9", "D16"])
def test_run_is_the_marginal_of_the_traced_final_state(spec, second, granularity):
    """run_pipeline, which never builds psi0 or psi1, gives the very floats of
    the Born marginal of step_trace's psi3, summed row by row."""
    group = group_from_spec(spec)
    fourier = fourier_transform(group)
    cfg = PipelineConfig(second, granularity)
    if spec == "Z2^12":
        hiddens = [Subgroup.from_generators(group, [1 << i for i in range(bits)])
                   for bits in (8, 12)]
    else:
        hiddens = all_subgroups(group)
    labels = outcome_labels(fourier, cfg)
    for hidden in hiddens:
        inst = build_instance(group, hidden, seed=3)
        probs = (np.abs(step_trace(inst, fourier, cfg)[3]) ** 2).sum(axis=1)
        if granularity == "irrep_label_only":
            agg = dict.fromkeys(labels, 0.0)
            for (i, _, _), p in zip(fourier.row_index, probs.tolist()):
                agg[i] += p
            probs = np.array(list(agg.values()))
        expected = finalize_distribution(labels, probs)
        dist = run_pipeline(inst, fourier, cfg)
        assert dist.labels == expected.labels
        assert np.array_equal(dist.probs, expected.probs), hidden.elements


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("second", SECOND_TRANSFORMS)
def test_run_holds_psi2_and_one_transform_buffer(second):
    """On Z2^12 with an 8-dim K (16 cosets, 1 MiB per state) a run holds psi2,
    which the second transform overwrites, and the transform's output: 2.13
    MiB forward, and 2.01 MiB inverse, whose core frees psi2 once it is
    scattered, before its butterflies take a half-state scratch (2.88 MiB
    while the run still held psi2).  A transform that copied psi2 peaked at
    3.07 MiB either way, and building all four states at 6.2 (forward) and
    7.3 MiB (inverse)."""
    group = group_from_spec("Z2^12")
    hidden = Subgroup.from_generators(group, [1 << i for i in range(8)])
    inst = build_instance(group, hidden, seed=0)
    fourier = fourier_transform(group)
    cfg = PipelineConfig(second)
    # the row layout and FFT plan are cached before the traced run
    run_pipeline(inst, fourier, cfg)
    assert _traced_peak(lambda: run_pipeline(inst, fourier, cfg)) < 2.5 * 2**20


def test_coset_law_of_every_d16_subgroup_stays_below_a_mebibyte():
    """36 candidates side by side (403 cosets, 206 KB per state) peaked at 1.32 MiB
    with four states built; psi2 and psi3 alone stay below 1 MiB."""
    group = group_from_spec("D16")
    candidates = all_subgroups(group)
    fourier = fourier_transform(group)
    for second in SECOND_TRANSFORMS:
        cfg = PipelineConfig(second)
        coset_law(fourier, cfg, candidates)
        assert _traced_peak(lambda: coset_law(fourier, cfg, candidates)) < 2**20, second


def test_simulate_holds_no_state_beside_its_artifacts(tmp_path):
    """simulate on D2048 with K = <r^8> (16 cosets, 1 MiB per state) holds psi2
    and psi3 at most, and takes its norms from the run's checks: 2.37 MiB,
    where the four states of step_trace peaked at 4.33 MiB, and holding them
    to the end at 6.4 MiB."""
    cfg = config_from_dict({"experiment": "simulate", "group": "D2048",
                            "hidden_generators": [8], "trials": 64})
    run_experiment(cfg, tmp_path / "warm")
    assert _traced_peak(lambda: run_experiment(cfg, tmp_path / "run")) < 3 * 2**20


@pytest.mark.parametrize("second", SECOND_TRANSFORMS)
@pytest.mark.parametrize("spec, gens", [("D8", [2]), ("D16", [4, 17]), ("Z3xZ9", [3]),
                                        ("Z2^6", [5, 10]), ("D2048", [8])])
def test_simulate_norms_are_the_norms_of_the_traced_states(tmp_path, spec, gens, second):
    """simulate's norms, taken from the run's checks, are those of step_trace's
    four states, summed exactly by math.fsum, to 16 ulps of 1.0 (3.6e-15);
    psi0's is exactly 1.0.  The checks' one-pass sums were off by at most
    2.0e-15 (on D2048 forward), np.linalg.norm by up to 2.9e-15."""
    cfg = config_from_dict({"experiment": "simulate", "group": spec, "hidden_generators": gens,
                            "trials": 4, "second_transform": second})
    norms = run_experiment(cfg, tmp_path)["norms"]
    group = group_from_spec(spec)
    inst = build_instance(group, Subgroup.from_generators(group, gens), cfg.seed)
    states = step_trace(inst, fourier_transform(group), PipelineConfig(second))
    exact = [math.sqrt(math.fsum(np.square(state.view(np.float64)).ravel().tolist()))
             for state in states]
    assert norms[0] == 1.0 and len(norms) == 4
    assert np.abs(np.array(norms) - exact).max() <= 16 * np.finfo(np.float64).eps


@pytest.mark.parametrize("second", SECOND_TRANSFORMS)
@pytest.mark.parametrize("spec", ["Z2^12", "Z3xZ9", "D16"])
def test_transform_of_the_traced_psi2_is_psi3_and_keeps_psi2(spec, second):
    """apply and apply_inverse, a copy and then the in-place core that a run
    hands its own psi2 to, give step_trace's psi3 bit for bit and leave
    their input unchanged."""
    group = group_from_spec(spec)
    fourier = fourier_transform(group)
    transform = fourier.apply if second == "forward" else fourier.apply_inverse
    if spec == "Z2^12":
        hiddens = [Subgroup.from_generators(group, [1 << i for i in range(bits)])
                   for bits in (8, 12)]
    else:
        hiddens = all_subgroups(group)
    for hidden in hiddens:
        inst = build_instance(group, hidden, seed=1)
        _, _, psi2, psi3 = step_trace(inst, fourier, PipelineConfig(second))
        before = psi2.copy()
        assert np.array_equal(transform(psi2), psi3), hidden.elements
        assert np.array_equal(psi2, before)


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """simulate on D2048 with K = <r^8> writes the same report.json under one
    and two BLAS threads: its norms are summed without BLAS.  Each run is a
    fresh process, since BLAS reads its thread count at import."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(hspsim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    code = ("from hspsim.config import config_from_dict\n"
            "from hspsim.experiments import run_experiment\n"
            "run_experiment(config_from_dict({'experiment': 'simulate', 'group': 'D2048', "
            "'hidden_generators': [8], 'trials': 64}), 'out')")
    reports = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        thread_env = {**env, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-c", code], cwd=tmp_path / threads, env=thread_env,
                       check=True)
        reports.append((tmp_path / threads / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("spec", ["Z65536", "D32768"])
def test_fourier_rows_are_arrays_at_the_state_cap(spec):
    """The transform and F|e> read the row layout as int64 arrays: no Python
    object per row at the largest admitted group."""
    group = group_from_spec(spec)
    tracemalloc.start()
    try:
        fourier = fourier_transform(group)
        fourier.identity_column()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert "row_index" not in vars(fourier)


@pytest.mark.parametrize("spec, gens, granularity", [
    ("Z12", [4], "full_triple"),
    ("D16", [2], "irrep_label_only"),
])
def test_run_path_builds_no_row_index(spec, gens, granularity):
    group = group_from_spec(spec)
    inst = build_instance(group, Subgroup.from_generators(group, gens), seed=0)
    fourier = fourier_transform(group)
    run_pipeline(inst, fourier, PipelineConfig("forward", granularity))
    assert "row_index" not in vars(fourier)


def test_pipeline_rejects_mismatched_fourier_operator():
    group = group_from_spec("Z6")
    other = fourier_operator(group_from_spec("Z8"))
    hidden = Subgroup.from_generators(group, [3])
    inst = build_instance(group, hidden, seed=0)
    with pytest.raises(ValueError, match="match"):
        run_pipeline(inst, other)


def test_pipeline_state_size_cap():
    group = group_from_spec("Z512")
    hidden = Subgroup.from_generators(group, [])
    inst = build_instance(group, hidden, seed=0)
    fop = fourier_operator(group)
    with pytest.raises(ResourceCapError, match=r"^state size 512\*512 exceeds 65536$"):
        run_pipeline(inst, fop)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_finalize_distribution_refuses_a_non_finite_total(bad):
    """A NaN total compares false against the tolerance; it is refused like an inf one."""
    with pytest.raises(IntegrityError, match=f"^outcome probabilities sum to {bad!r}, not 1$"):
        finalize_distribution(range(2), np.array([bad, 1.0]))


@pytest.mark.parametrize("probs, value", [
    ([-0.5, 1.0, 0.0], -0.5),
    ([float("-inf"), 1.0], float("-inf")),
    ([1.0, -1e-300, 0.0], -1e-300),
    ([0.5, -0.25, 0.75], -0.25),
])
def test_finalize_distribution_refuses_a_negative_entry(probs, value):
    """Born probabilities are never negative: no entry is clamped to zero, however
    small, and the first negative one is named."""
    message = f"^outcome probability {re.escape(repr(value))} is negative$"
    with pytest.raises(IntegrityError, match=message):
        finalize_distribution(range(len(probs)), np.array(probs))


def test_finalize_distribution_clamps_dust_and_negative_zero():
    """-0.0 is not negative, and positive float dust still clamps to zero."""
    dist = finalize_distribution(range(3), np.array([-0.0, 1.0, 1e-16]))
    assert dist.probs.tolist() == [0.0, 1.0, 0.0]


def test_run_path_builds_no_dense_fourier_matrix(tmp_path, monkeypatch):
    """simulate and simon apply F by FFT: no irrep stack, no |G| x |G| array."""

    def refuse(*args, **kwargs):
        raise AssertionError("the run path built dense representation arrays")

    for module in [m for name, m in sys.modules.items() if name.startswith("hspsim")]:
        for attr in ("fourier_operator", "irreps_of"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    unit_vectors = [[int(i == j) for j in range(12)] for i in range(8)]
    configs = [
        {"experiment": "simulate", "group": "D2048", "hidden_generators": [4, 2049]},
        {"experiment": "simon", "group": "Z2^12", "hidden_generators": unit_vectors},
    ]
    for i, raw in enumerate(configs):
        cfg = config_from_dict(raw)
        tracemalloc.start()
        try:
            run_experiment(cfg, tmp_path / str(i))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense F of order 4096 alone takes 256 MiB
        assert peak < 16 * 2**20


def test_distribution_csv_is_streamed(tmp_path):
    """A 2^20-label distribution, the period cap, is written without a list of its lines."""
    q = 1 << 20
    dist = OutcomeDistribution(tuple(range(q)), np.full(q, 1 / q))
    path = tmp_path / "distribution.csv"
    tracemalloc.start()
    try:
        write_distribution_csv(path, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # building all lines as one list and joining them peaks near 137 MiB
    assert peak < 4 * 2**20
    text = path.read_text(encoding="utf-8")
    assert text.startswith("outcome_label,probability\n0,9.5367431640625e-07\n")
    assert text.endswith(f"\n{q - 1},9.5367431640625e-07\n")
    assert text.count("\n") == q + 1


def test_distinct_probabilities_csv_is_streamed(tmp_path):
    """2^20 all-distinct probabilities, the worst case for the distinct-value
    table, are written under the same bound as the uniform column."""
    q = 1 << 20
    probs = np.arange(1, q + 1) / (q * (q + 1) / 2)
    assert len(np.unique(probs)) == q
    dist = OutcomeDistribution(range(q), probs)
    path = tmp_path / "distribution.csv"
    tracemalloc.start()
    try:
        write_distribution_csv(path, dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == q + 1
    for i in (0, 1, 1023, 1024, 1025, q - 1):
        assert lines[i + 1] == f"{i},{fmt17(probs[i])}"


def test_float_texts_match_the_per_entry_format():
    """One text per distinct bit pattern gives "%.17g" % v and repr(v) entry by
    entry: exact repeats, last-ulp neighbours, subnormals, 1.0, 0.0 and -0.0.
    Short and all-distinct columns are left to per-entry formatting."""
    base = np.array([0.1, 1 / 3, 0.25, 1.0, 0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308])
    column = np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf),
                             base[::-1], base[:4], np.full(5, 1 / 3)] * 3)
    np.random.default_rng(7).shuffle(column)
    for part in (column, tuple(column.tolist())):
        values = np.asarray(part).tolist()
        assert float_texts(part, csv_floats) == ["%.17g" % v for v in values]
        assert float_texts(part, json_floats) == [repr(v) for v in values]
    special = [float("nan"), float("inf"), -float("inf"), 0.5] * 20
    assert float_texts(np.array(special), json_floats) == json.dumps(special)[1:-1].split(", ")
    for declined in (column[:64], np.arange(1000.0), np.zeros(0)):
        assert float_texts(declined, csv_floats) is None
    assert csv_floats(column.tolist()) == ["%.17g" % v for v in column.tolist()]
    assert json_floats(column.tolist()) == [repr(v) for v in column.tolist()]
    assert csv_floats([]) == json_floats([]) == []


def test_distribution_csv_matches_row_by_row_format(tmp_path):
    """The chunked `%` formatting writes the bytes of the oracle's label_str and
    fmt17 row by row: integer and triple labels, zeros, several chunks, and no rows."""
    rng = np.random.default_rng(5)
    probs = rng.random(10_000)
    probs[::3] = 0.0
    d16 = group_from_spec("D16")
    inst = build_instance(d16, Subgroup.from_generators(d16, [3]), seed=0)
    dists = [
        OutcomeDistribution(tuple(range(len(probs))), probs / probs.sum()),
        run_pipeline(inst, fourier_transform(d16)),
        OutcomeDistribution((), np.zeros(0)),
    ]
    for i, dist in enumerate(dists):
        path = tmp_path / f"{i}.csv"
        write_distribution_csv(path, dist)
        rows = "".join(f"{label_str(lab)},{fmt17(p)}\n" for lab, p in zip(dist.labels, dist.probs))
        assert path.read_text(encoding="utf-8") == "outcome_label,probability\n" + rows


def test_samples_and_f_table_csv_match_row_by_row_format(tmp_path):
    """The chunked writers give the bytes of one f-string per row: integer and
    triple labels, several chunks, and no rows."""
    d16 = group_from_spec("D16")
    z2 = group_from_spec("Z2^11")
    instances = [
        build_instance(d16, Subgroup.from_generators(d16, [3]), seed=0),
        build_instance(z2, Subgroup.from_generators(z2, [5]), seed=1),
    ]
    for i, inst in enumerate(instances):
        path = tmp_path / f"f{i}.csv"
        write_f_table_csv(path, inst)
        rows = "".join(f"{g},{int(v)}\n" for g, v in enumerate(inst.f_table))
        assert path.read_text(encoding="utf-8") == "g_index,f_index\n" + rows
    triples = run_pipeline(instances[0], fourier_transform(d16))
    rng = np.random.default_rng(3)
    for i, samples in enumerate([
        rng.integers(0, 1 << 40, size=3000).tolist(),
        sample(triples, 2500, seed=4),
        [],
    ]):
        path = tmp_path / f"s{i}.csv"
        write_samples_csv(path, samples)
        rows = "".join(f"{j},{label_str(lab)}\n" for j, lab in enumerate(samples))
        assert path.read_text(encoding="utf-8") == "trial_index,outcome_label\n" + rows


def test_label_strs_match_the_oracle(tmp_path):
    """One `%` per label gives the oracle's part-by-part join: irrep:row:column
    triples, plain character indices (also as a range), irrep labels alone, the
    samples and distribution of a run, and no labels."""
    d8, z = group_from_spec("D8"), group_from_spec("Z2xZ4")
    d8_inst = build_instance(d8, Subgroup.from_generators(d8, [2]), seed=0)
    triples = run_pipeline(d8_inst, fourier_transform(d8))
    irrep_only = run_pipeline(d8_inst, fourier_transform(d8),
                              PipelineConfig("forward", "irrep_label_only"))
    plain = run_pipeline(build_instance(z, Subgroup.from_generators(z, [1]), seed=0),
                         fourier_transform(z))
    assert isinstance(triples.labels[0], tuple)
    assert not isinstance(plain.labels[0], tuple) and not isinstance(irrep_only.labels[0], tuple)
    for labels in (triples.labels, plain.labels, range(len(plain.labels)), irrep_only.labels,
                   sample(triples, 50, seed=2), sample(plain, 50, seed=2), (), [], range(0)):
        assert label_strs(labels) == [label_str(lab) for lab in labels]
    cfg = config_from_dict({"experiment": "simulate", "group": "D8", "hidden_generators": [2],
                            "trials": 40, "seed": 3})
    report = run_experiment(cfg, tmp_path)
    dist = run_pipeline(build_instance(d8, Subgroup.from_generators(d8, [2]), seed=3),
                        fourier_transform(d8))
    assert report["samples"] == [label_str(lab) for lab in sample(dist, 40, seed=3)]
    assert [lab for lab, _ in report["distribution"]] == [label_str(lab) for lab in dist.labels]


def _one_dumps_per_key(report: dict) -> str:
    """report.json as one `json.dumps(v, sort_keys=True)` per top-level key, sorted."""
    lines = [f"  {json.dumps(k)}: {json.dumps(report[k], sort_keys=True)}" for k in sorted(report)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.mark.parametrize("spec,gens,granularity", [
    ("D8", [2], "full_triple"),
    ("D16", [3], "full_triple"),
    ("D16", [3], "irrep_label_only"),
    ("Z2xZ4", [[1, 0]], "full_triple"),
    ("Z32", [4], "full_triple"),
])
@pytest.mark.parametrize("trials", [0, 37])
def test_report_json_matches_one_dumps_per_key(tmp_path, spec, gens, granularity, trials):
    """report.json, whose distribution is written from the label and probability
    texts, is byte for byte the per-key json.dumps of the report with plain
    pairs, and its pairs are those of the CSV and of an independent run."""
    cfg = config_from_dict({"experiment": "simulate", "group": spec, "hidden_generators": gens,
                            "trials": trials, "seed": 5, "measure_granularity": granularity})
    report = run_experiment(cfg, tmp_path)
    pairs = report["distribution"]
    assert isinstance(pairs, DistributionPairs)
    plain = {**report, "distribution": [list(pair) for pair in pairs]}
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == _one_dumps_per_key(plain)
    group = cfg.resolved.group
    dist = run_pipeline(build_instance(group, cfg.resolved.hidden, seed=5), fourier_transform(group),
                        PipelineConfig("forward", granularity))
    assert plain["distribution"] == [[label_str(lab), p]
                                     for lab, p in zip(dist.labels, dist.probs.tolist())]
    rows = (tmp_path / "distribution.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert rows == [f"{lab},{fmt17(p)}" for lab, p in plain["distribution"]]


def test_support_matches_the_label_loop():
    """One array pass gives the labels a loop over every label keeps, in order."""
    probs = np.array([0.25, 0.0, 5e-11, 0.25, 1e-13, 0.5, 0.0])
    triples = ((0, 0, 0), (1, 0, 0), (4, 0, 1), (4, 1, 0), (4, 1, 1), (5, 0, 0), (5, 1, 1))
    for labels in (range(7), (3, 1, 4, 15, 9, 2, 6), triples):
        dist = OutcomeDistribution(labels, probs)
        for threshold in (0.0, 1e-12, 1e-10, 0.25, 0.5):
            loop = [lab for lab, p in zip(labels, probs) if p > threshold]
            assert dist.support(threshold) == loop
    assert OutcomeDistribution((), np.zeros(0)).support() == []


def test_sample_point_mass_and_determinism():
    dist = OutcomeDistribution((7,), np.array([1.0]))
    assert sample(dist, 5, seed=3) == [7] * 5
    assert sample(dist, 0, seed=3) == []
    two = OutcomeDistribution((0, 1), np.array([0.5, 0.5]))
    first = sample(two, 1000, seed=11)
    second = sample(two, 1000, seed=11)
    assert first == second
    assert sample(two, 1000, seed=12) != first


def test_sample_frequencies_within_binomial_bound():
    two = OutcomeDistribution((0, 1), np.array([0.5, 0.5]))
    draws = sample(two, 10_000, seed=202)
    ones = sum(draws)
    sigma = np.sqrt(10_000 * 0.25)
    assert abs(ones - 5000) <= 5 * sigma
