"""Exact simulation of hidden-subgroup experiments on small finite groups."""

__version__ = "0.1.0"

from .config import ExperimentConfig, parse_config
from .engine import (
    OutcomeDistribution,
    PipelineConfig,
    run_pipeline,
    sample,
    step_trace,
)
from .errors import ConfigError, IntegrityError, ResourceCapError
from .groups import (
    CyclicGroup,
    DihedralGroup,
    FiniteGroup,
    ProductGroup,
    Subgroup,
    all_subgroups,
    coset_ids,
    group_from_spec,
    left_cosets,
)
from .oracle import HspInstance, build_instance, classical_brute_force_hsp
from .recovery import (
    PeriodEstimate,
    RankedCandidates,
    RecoveryResult,
    SampleSet,
    character_sieve,
    continued_fraction_period,
    period_from_samples,
    simon_solve,
    subgroup_consistency_rank,
)
from .representations import (
    FourierOperator,
    FourierTransform,
    Irrep,
    fourier_operator,
    fourier_transform,
    irreps_of,
    verify_representation_suite,
)
from .transversals import (
    ApproximateFunction,
    PeriodicInstance,
    Transversal,
    approximate_function,
    offset_transversal,
    peak_mass,
    shor_pipeline,
    shor_transversal,
    transversal_quality_sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
