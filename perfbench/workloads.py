"""Seeded workload families: configs, CLI arguments and output checks.

A family is a list of steps.  Each step is one experiment, given both as
the config dict that run_experiment receives in process and as the
`hspsim` command line that produces the same experiment in a fresh
process.  Everything is generated here from the workload seed; the
package only ever sees the resulting configs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import checks


@dataclass(frozen=True)
class Step:
    name: str  # artifact subdirectory of the unit root
    config: dict
    argv: tuple  # CLI arguments after the program name, without --out-dir
    check: Callable  # (report, out_dir) -> list of problems
    files: dict = field(default_factory=dict)  # file name -> JSON payload written before the CLI
    family: str = ""


WHY = {
    "simon_z2n": (
        "ROADMAP baseline simon --n 12: the op-table broadcast reached through simon_solve "
        "dominates and peaks near 3.6 GB, so it loads groups and recovery"
    ),
    "dihedral_simulate": (
        "simulate on D2048 with normal and non-normal K: loads groups (op table, normality) "
        "and the dense 4096x4096 Fourier operator, and validates twice"
    ),
    "period_sweep": (
        "the paper's transversal sweep at Q=65536: almost all transversals, never groups or "
        "the dense F, so it is the no-change control for those layers"
    ),
    "rank_small": (
        "simulate then recover on order-32 groups: hundreds of tiny run_pipeline and "
        "build_instance calls, the only load on ranking and all_subgroups"
    ),
}

SIMON_N = 12
SIMON_DIM = 8
DIHEDRAL_N = 2048
SWEEP = {"N": 21, "a": 2, "Q": 65536, "bound": 21}
SWEEP_SEEDS = 8
RANK_GROUPS = ("Z2^5", "D16", "Z2xZ16", "Z32")


def _seed31(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _independent_bitvectors(rng: random.Random, n: int, dim: int) -> list[list[int]]:
    """dim random vectors of GF(2)^n of full rank, by Gaussian elimination on ints."""
    basis: dict[int, int] = {}  # pivot bit -> reduced vector
    vectors = []
    while len(vectors) < dim:
        v = rng.getrandbits(n)
        r = v
        for bit in sorted(basis, reverse=True):
            if r >> bit & 1:
                r ^= basis[bit]
        if r:
            basis[r.bit_length() - 1] = r
            vectors.append([v >> (n - 1 - i) & 1 for i in range(n)])
    return vectors


def _simulate_step(name, root, group, generators, oracle_seed, trials, seed):
    instance = root / f"{name}.instance.json"
    return Step(
        name,
        {
            "experiment": "simulate",
            "group": group,
            "hidden_generators": generators,
            "oracle_seed": oracle_seed,
            "trials": trials,
            "seed": seed,
        },
        ("simulate", "--instance", str(instance), "--trials", str(trials), "--seed", str(seed)),
        checks.check_simulate(group, generators),
        {instance.name: {"group": group, "hidden_generators": generators, "seed": oracle_seed}},
    )


def simon_z2n(seed: int, root: Path) -> list[Step]:
    rng = random.Random(f"simon_z2n:{seed}")
    gens = _independent_bitvectors(rng, SIMON_N, SIMON_DIM)
    oracle_seed, run_seed, trials = _seed31(rng), _seed31(rng), SIMON_N + 3
    hidden = ",".join("".join(map(str, g)) for g in gens)
    return [
        Step(
            "simon",
            {
                "experiment": "simon",
                "group": f"Z2^{SIMON_N}",
                "hidden_generators": gens,
                "oracle_seed": oracle_seed,
                "trials": trials,
                "seed": run_seed,
            },
            ("simon", "--n", str(SIMON_N), "--hidden", hidden, "--trials", str(trials),
             "--oracle-seed", str(oracle_seed), "--seed", str(run_seed)),
            checks.check_simon(gens),
        )
    ]


def _dihedral_subgroups(n: int):
    """Generator lists of the subgroups of D_n with at most 16 cosets, by normality.

    Index a stands for r^(a mod n) s^(a div n).  Normal: D_n itself, the
    rotation subgroups <r^d> with 2d <= 16, and <r^2, s>, <r^2, rs> of
    index 2.  Non-normal: <r^d, r^i s> for d in 4, 8, 16.
    """
    normal = [[1, n], [1], [2], [4], [8], [2, n], [2, n + 1]]
    non_normal = {d: [[d, n + i] for i in range(d)] for d in (4, 8, 16)}
    return normal, non_normal


def dihedral_simulate(seed: int, root: Path) -> list[Step]:
    rng = random.Random(f"dihedral_simulate:{seed}")
    normal, non_normal = _dihedral_subgroups(DIHEDRAL_N)
    picks = [rng.choice(normal), rng.choice(non_normal[rng.choice((4, 8, 16))])]
    return [
        _simulate_step(f"k{i}", root, f"D{DIHEDRAL_N}", gens, _seed31(rng), 64, _seed31(rng))
        for i, gens in enumerate(picks)
    ]


def period_sweep(seed: int, root: Path) -> list[Step]:
    s = SWEEP
    config = {"experiment": "sweep-transversal", **s, "seeds": SWEEP_SEEDS, "seed": seed}
    argv = ("sweep-transversal", "--N", str(s["N"]), "--a", str(s["a"]), "--Q", str(s["Q"]),
            "--bound", str(s["bound"]), "--seeds", str(SWEEP_SEEDS), "--seed", str(seed))
    check = checks.check_sweep(s["N"], s["a"], s["Q"], s["bound"], seed, SWEEP_SEEDS)
    return [Step("sweep", config, argv, check)]


def _small_generators(rng: random.Random, group: str):
    if group == "Z2^5":
        return [[rng.randrange(2) for _ in range(5)] for _ in range(rng.randint(1, 3))]
    if group == "Z2xZ16":
        return [[rng.randrange(2), rng.randrange(16)] for _ in range(rng.randint(1, 2))]
    if group == "D16":
        return [rng.randrange(32) for _ in range(rng.randint(1, 2))]
    return [rng.randrange(32)]


def rank_small(seed: int, root: Path) -> list[Step]:
    rng = random.Random(f"rank_small:{seed}")
    steps = []
    for i, group in enumerate(RANK_GROUPS):
        gens = _small_generators(rng, group)
        oracle_seed = _seed31(rng)
        sim = _simulate_step(f"pair{i}", root, group, gens, oracle_seed, 16, _seed31(rng))
        dist = str(root / sim.name / "distribution.csv")
        steps.append(sim)
        steps.append(
            Step(
                f"pair{i}-recover",
                {"experiment": "recover", "group": group, "dist": dist,
                 "oracle_seed": oracle_seed, "seed": 0},
                ("recover", "--dist", dist, "--group", group, "--oracle-seed", str(oracle_seed)),
                checks.check_recover(group, gens),
            )
        )
    return steps


FAMILIES = {
    "simon_z2n": simon_z2n,
    "dihedral_simulate": dihedral_simulate,
    "period_sweep": period_sweep,
    "rank_small": rank_small,
}

# A workload runs two families back to back.  The benchmark gets a fixed
# number of runs per workload in a fixed time budget, and on a shared
# 2-vCPU VM the speed swung by up to 1.8x over 5-15 s, so two long
# workloads measure more steadily than four short ones.  Each optimisation on the ROADMAP is
# exercised by one workload and bypassed by the other: large_groups loads
# the dense group algebra (op tables, normality, the 4096x4096 Fourier
# operator), while sweep_and_rank never builds a group of more than 32
# elements and holds the whole period-finding path.
WORKLOADS = {
    "large_groups": ("simon_z2n", "dihedral_simulate"),
    "sweep_and_rank": ("period_sweep", "rank_small"),
}


def steps(workload: str, seed: int, root: Path) -> list[Step]:
    """The workload's families in order, each generated from the workload seed."""
    return [replace(step, family=family)
            for family in WORKLOADS[workload] for step in FAMILIES[family](seed, root)]
