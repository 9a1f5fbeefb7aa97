"""Experiment orchestration: run a validated config, emit reproducible reports.

A report is fully determined by its configuration bytes: runs never
record timestamps, and all randomness flows from the config seeds.  Each
handler reads the group, hidden subgroup or period instance that
validation built (`cfg.resolved`) and builds none of them again.
"""

from __future__ import annotations

import platform
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, config_to_dict
from .engine import PipelineConfig, run_pipeline, run_with_norms, sample
from .errors import ConfigError
from .groups import lattice_generators
from .oracle import build_instance, classical_brute_force_hsp
from .recovery import (
    SampleSet,
    period_from_samples,
    simon_solve,
    subgroup_consistency_rank,
)
from .reporting import (
    _write_rows,
    label_strs,
    read_distribution_csv,
    write_distribution_csv,
    write_f_table_csv,
    write_json,
    write_samples_csv,
)
from .representations import fourier_transform, irreps_of, verify_representation_suite
from .transversals import (
    offset_transversal,
    peak_mass,
    shor_pipeline,
    shor_transversal,
    transversal_quality_sweep,
)


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path = ".") -> dict:
    """Execute one experiment, write its artifacts, and return the report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    handlers = {
        "irreps": _run_irreps,
        "fourier-check": _run_fourier_check,
        "simulate": _run_simulate,
        "simon": _run_simon,
        "shor": _run_shor,
        "sweep-transversal": _run_sweep,
        "recover": _run_recover,
    }
    versions = {"hspsim": __version__, "numpy": np.__version__,
                "python": platform.python_version()}
    report = {"config": config_to_dict(cfg), "seed": cfg.seed, "versions": versions}
    report.update(handlers[cfg.experiment](cfg, out))
    write_json(out / "report.json", report)
    return report


def _run_irreps(cfg: ExperimentConfig, out: Path) -> dict:
    group = cfg.resolved.group
    table = [
        {
            "label": ir.label,
            "dim": ir.dim,
            # complex128 viewed as float64 pairs: [real, imag] per character
            "characters": ir.character().view(np.float64).reshape(-1, 2).tolist(),
        }
        for ir in irreps_of(group)
    ]
    payload = {
        "group": group.name,
        "elements": group.labels(np.arange(group.order)),
        "irreps": table,
    }
    write_json(out / "irreps.json", payload)
    return payload


def _run_fourier_check(cfg: ExperimentConfig, out: Path) -> dict:
    group = cfg.resolved.group
    return {**verify_representation_suite(group), "group": group.name}


def _pipeline_pieces(cfg: ExperimentConfig):
    group, hidden = cfg.resolved.group, cfg.resolved.hidden
    seed = cfg.seed if cfg.oracle_seed is None else cfg.oracle_seed
    instance = build_instance(group, hidden, seed)
    fourier = fourier_transform(group)
    pipeline_cfg = PipelineConfig(cfg.measure_granularity)
    return group, hidden, instance, fourier, pipeline_cfg


def _run_simulate(cfg: ExperimentConfig, out: Path) -> dict:
    group, hidden, instance, fourier, pipeline_cfg = _pipeline_pieces(cfg)
    dist, norms = run_with_norms(instance, fourier, pipeline_cfg)
    samples = sample(dist, cfg.trials, cfg.seed)
    report = {
        "group": group.name,
        "hidden_elements": group.labels(hidden.elements),
        "hidden_is_normal": hidden.normal,
        "samples": label_strs(samples),
        "norms": norms,
        "paths": {
            "distribution": "distribution.csv",
            "samples": "samples.csv",
            "f_table": "f_table.csv",
        },
    }
    # the distribution's texts come last, so they reuse the memory the element
    # labels freed: peak RSS on D32768 with K = G is 74 MB this way round, 77 MB the other
    report["distribution"] = write_distribution_csv(out / "distribution.csv", dist, pairs=True)
    write_samples_csv(out / "samples.csv", samples)
    write_f_table_csv(out / "f_table.csv", instance)
    return report


def _run_simon(cfg: ExperimentConfig, out: Path) -> dict:
    group, hidden, instance, fourier, pipeline_cfg = _pipeline_pieces(cfg)
    dist = run_pipeline(instance, fourier, pipeline_cfg)
    samples = sample(dist, cfg.trials, cfg.seed)
    write_distribution_csv(out / "distribution.csv", dist)
    write_samples_csv(out / "samples.csv", samples)
    result = simon_solve(
        SampleSet(group, tuple(int(s) for s in samples)),
        full_support=dist.support(1e-10),
    )
    recovered = result.candidate
    truth = classical_brute_force_hsp(instance)
    gens = recovered.spanning_generators()
    return {
        "group": group.name,
        "recovered_generators": [list(group.coords(g)) for g in gens],
        "recovered_elements": group.labels(recovered.elements),
        "confirmed": result.confirmed,
        "trials_used": len(samples),
        "matches_brute_force": recovered.elements == truth.elements,
        "paths": {"distribution": "distribution.csv", "samples": "samples.csv"},
    }


def _run_shor(cfg: ExperimentConfig, out: Path) -> dict:
    instance = cfg.resolved.instance
    if cfg.transversal.kind == "shor":
        tau, tau_name = shor_transversal(cfg.big_q), "shor"
    else:
        tau = offset_transversal(cfg.big_q, cfg.transversal.bound, cfg.seed)
        tau_name = f"offset(seed={cfg.seed}, bound={cfg.transversal.bound})"
    dist = shor_pipeline(instance, tau)
    write_distribution_csv(out / "distribution.csv", dist)
    report = {
        "N": cfg.modulus,
        "a": cfg.base,
        "Q": cfg.big_q,
        "transversal": tau_name,
        "distribution_csv_path": "distribution.csv",
        "peak_mass": peak_mass(dist, instance.period, cfg.big_q),
        "r_true": instance.period,
    }
    if cfg.trials:
        samples = sample(dist, cfg.trials, cfg.seed)
        write_samples_csv(out / "samples.csv", samples)
        estimate = period_from_samples(samples, cfg.big_q, cfg.modulus, cfg.base)
        report["samples_path"] = "samples.csv"
        report["period_estimate"] = {
            "period": estimate.period,
            "confirmed": estimate.confirmed,
            "samples_used": len(samples),
        }
    return report


def _run_sweep(cfg: ExperimentConfig, out: Path) -> dict:
    instance = cfg.resolved.instance
    seeds = [cfg.seed + i for i in range(cfg.seeds)]
    rows = transversal_quality_sweep(instance, cfg.bound, seeds)
    # the middle of the sorted masses: np.median would import numpy.ma
    offsets, mid = sorted(pm for _, _, pm in rows), len(rows) // 2
    _write_rows(out / "sweep.csv", "seed,peak_mass_shor,peak_mass_offset",
                tuple(zip(*rows)), ("%d", "%.17g", "%.17g"))
    return {
        "N": cfg.modulus,
        "a": cfg.base,
        "Q": cfg.big_q,
        "bound": cfg.bound,
        "r_true": instance.period,
        "csv_path": "sweep.csv",
        "peak_mass_shor": rows[0][1],
        "median_peak_mass_offset": (offsets[mid] if len(rows) % 2
                                    else (offsets[mid - 1] + offsets[mid]) / 2),
        "wins_shor": sum(1 for _, pm_shor, pm_offset in rows if pm_shor > pm_offset),
        "seeds": cfg.seeds,
    }


def _run_recover(cfg: ExperimentConfig, out: Path) -> dict:
    group = cfg.resolved.group
    pipeline_cfg = PipelineConfig(cfg.measure_granularity)
    # a malformed CSV and a label the pipeline cannot produce both raise ValueError
    try:
        dist = read_distribution_csv(cfg.dist)
        # the law of K does not depend on the instance, so `oracle_seed` is accepted and unused
        ranking = subgroup_consistency_rank(dist, group, cfg=pipeline_cfg)
    except OSError as exc:
        raise ConfigError(f"field 'dist': cannot read {cfg.dist!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"field 'dist': {exc}") from exc
    names = group.labels(np.arange(group.order))
    generators = lattice_generators([sub for sub, _ in ranking.entries])
    return {
        "group": group.name,
        "candidates": [
            {
                "elements": [names[g] for g in sub.elements],
                "generators": [names[g] for g in gens],
                "normal": sub.normal,
                "total_variation": tv,
            }
            for (sub, tv), gens in zip(ranking.entries, generators)
        ],
        "tie_classes": [list(t) for t in ranking.tie_classes],
    }
