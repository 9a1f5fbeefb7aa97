"""Experiment configuration: one field table, strict JSON parsing and validation.

SCHEMA lists the fields each experiment accepts.  Parsing, the config
echo in reports and the CLI flags are all loops over it.  Unknown keys
are rejected, every structural error names the offending field, and
resource caps are enforced here rather than mid-run.  Validation builds
what the run reads, once, on the derived `ExperimentConfig.resolved`: the
group and hidden subgroup, or the `PeriodicInstance`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

from .engine import STATE_SIZE_CAP, MEASURE_GRANULARITIES, check_state_size
from .errors import ConfigError, ResourceCapError
from .groups import (MAX_TABLE_ORDER, FiniteGroup, ProductGroup, Subgroup, group_from_spec,
                     is_z2n)
from .recovery import RANK_ORDER_CAP
from .transversals import PeriodicInstance, check_offset_bound

TRANSVERSAL_KINDS = ("shor", "offset")
# each trial is one sample and one report entry, each sweep seed one transversal
TRIALS_CAP = 65536
SEEDS_CAP = 65536


@dataclass(frozen=True)
class TransversalSpec:
    kind: str = "shor"
    bound: int = 1


class Resolved(NamedTuple):
    """What validation built for the run; None where the experiment has none."""

    group: FiniteGroup | None = None
    hidden: Subgroup | None = None
    instance: PeriodicInstance | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    group: str | None = None
    hidden_generators: tuple = ()
    seed: int = 0
    oracle_seed: int | None = None
    trials: int = 0
    modulus: int | None = None
    base: int | None = None
    big_q: int | None = None
    transversal: TransversalSpec = TransversalSpec()
    allow_any_q: bool = False
    measure_granularity: str = "full_triple"
    bound: int | None = None
    seeds: int | None = None
    dist: str | None = None
    resolved: Resolved = field(default=Resolved(), init=False, compare=False, repr=False)


def _normalize_generators(raw_gens) -> tuple:
    if not isinstance(raw_gens, list):
        raise ConfigError("field 'hidden_generators' must be a list")
    out = []
    for g in raw_gens:
        if isinstance(g, bool):
            raise ConfigError(f"field 'hidden_generators' has invalid entry {g!r}")
        if isinstance(g, int):
            out.append(g)
        elif isinstance(g, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in g):
            out.append(tuple(g))
        else:
            raise ConfigError(f"field 'hidden_generators' has invalid entry {g!r}")
    return tuple(out)


def _dump_generators(gens: tuple) -> list:
    return [list(g) if isinstance(g, tuple) else g for g in gens]


def _parse_transversal(spec) -> TransversalSpec:
    if not isinstance(spec, dict):
        raise ConfigError("field 'transversal' must be an object")
    unknown = sorted(set(spec) - {"kind", "bound"})
    if unknown:
        raise ConfigError(f"unknown field 'transversal.{unknown[0]}'")
    parsed = TransversalSpec(**spec)
    if parsed.kind not in TRANSVERSAL_KINDS:
        raise ConfigError(f"field 'transversal.kind' must be one of {list(TRANSVERSAL_KINDS)}")
    if isinstance(parsed.bound, bool) or not isinstance(parsed.bound, int) or parsed.bound < 1:
        raise ConfigError("field 'transversal.bound' must be a positive integer")
    return parsed


_KIND_NAMES = {int: "an integer", str: "a string", bool: "a boolean"}


@dataclass(frozen=True)
class Field:
    """One config field: its JSON key, its ExperimentConfig attribute and its check.

    `kind` is int, str or bool, or a parser for a structured value.  The
    default is the ExperimentConfig default of `attr`.  The CLI flag is
    `--key` with `_` turned into `-`; structured fields have no flag.
    """

    key: str
    attr: str
    kind: type | Callable = int
    required: bool = False
    minimum: int | None = None
    choices: tuple = ()
    dump: Callable = lambda value: value

    def parse(self, value):
        if self.kind not in _KIND_NAMES:
            return self.kind(value)
        if not isinstance(value, self.kind) or (self.kind is int and isinstance(value, bool)):
            raise ConfigError(
                f"field {self.key!r} must be {_KIND_NAMES[self.kind]}, got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ConfigError(f"field {self.key!r} must be at least {self.minimum}, got {value}")
        if self.choices and value not in self.choices:
            raise ConfigError(f"field {self.key!r} must be one of {list(self.choices)}")
        return value


_SEED = Field("seed", "seed", minimum=0)
_ORACLE_SEED = Field("oracle_seed", "oracle_seed", minimum=0)
_TRIALS = Field("trials", "trials", minimum=0)
_GROUP = Field("group", "group", str, required=True)
_HIDDEN = Field("hidden_generators", "hidden_generators", _normalize_generators, required=True,
                dump=_dump_generators)
_N = Field("N", "modulus", required=True, minimum=2)
_A = Field("a", "base", required=True, minimum=1)
_Q = Field("Q", "big_q", required=True, minimum=1)
_ALLOW_ANY_Q = Field("allow_any_q", "allow_any_q", bool)
_TRANSVERSAL = Field("transversal", "transversal", _parse_transversal, dump=asdict)
_BOUND = Field("bound", "bound", required=True, minimum=1)
_SEEDS = Field("seeds", "seeds", required=True, minimum=1)
_DIST = Field("dist", "dist", str, required=True)
_MEASURE_GRANULARITY = Field("measure_granularity", "measure_granularity", str,
                             choices=MEASURE_GRANULARITIES)

# The fields each experiment accepts, besides "experiment" itself.
SCHEMA = {
    "simulate": (_SEED, _GROUP, _HIDDEN, _ORACLE_SEED, _TRIALS, _MEASURE_GRANULARITY),
    "simon": (_SEED, _GROUP, _HIDDEN, _ORACLE_SEED, _TRIALS),
    "shor": (_SEED, _N, _A, _Q, _TRANSVERSAL, _TRIALS, _ALLOW_ANY_Q),
    "sweep-transversal": (_SEED, _N, _A, _Q, _BOUND, _SEEDS, _ALLOW_ANY_Q),
    "irreps": (_GROUP,),
    "fourier-check": (_GROUP,),
    "recover": (_SEED, _GROUP, _DIST, _MEASURE_GRANULARITY, _ORACLE_SEED),
}


def resolve_group(cfg: ExperimentConfig) -> FiniteGroup:
    try:
        return group_from_spec(cfg.group)
    except ValueError as exc:
        raise ConfigError(f"field 'group': {exc}") from exc


def resolve_hidden(cfg: ExperimentConfig, group: FiniteGroup) -> Subgroup:
    """Generator entries are element indices, or coordinate tuples for products."""
    indices = []
    for g in cfg.hidden_generators:
        if isinstance(g, tuple) and not isinstance(group, ProductGroup):
            raise ConfigError(
                f"field 'hidden_generators': coordinate entry {list(g)!r} "
                f"needs a product group, got {group.name}"
            )
        try:
            indices.append(group.index_of(g) if isinstance(g, tuple) else group.check_index(g))
        except ValueError as exc:
            raise ConfigError(f"field 'hidden_generators': {exc}") from exc
    return Subgroup.from_generators(group, indices)


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a JSON object")
    experiment = raw.get("experiment")
    if experiment not in SCHEMA:
        raise ConfigError(
            f"field 'experiment' must be one of {list(SCHEMA)}, got {experiment!r}"
        )
    fields = SCHEMA[experiment]
    unknown = sorted(set(raw) - {"experiment"} - {f.key for f in fields})
    if unknown:
        raise ConfigError(f"unknown field {unknown[0]!r} for experiment {experiment!r}")
    missing = sorted(f.key for f in fields if f.required and f.key not in raw)
    if missing:
        raise ConfigError(f"missing field {missing[0]!r} for experiment {experiment!r}")
    cfg = ExperimentConfig(
        experiment, **{f.attr: f.parse(raw[f.key]) for f in fields if f.key in raw}
    )
    _validate_semantics(cfg)
    return cfg


# recover enumerates and ranks every subgroup (D_N candidates by one stacked
# pipeline run, abelian ones off the annihilator law); irreps and fourier-check
# build |G| x |G| arrays (the character table, the dense Fourier operator), and
# irreps writes each character as nested JSON, twice (274 MB at order 1024);
# simulate and simon hold |G| * |G/K| amplitudes, so |G| alone must already
# meet the state cap.
ORDER_CAPS = {
    "recover": RANK_ORDER_CAP,
    "irreps": 1024,
    "fourier-check": MAX_TABLE_ORDER,
    "simulate": STATE_SIZE_CAP,
    "simon": STATE_SIZE_CAP,
}


def _validate_semantics(cfg: ExperimentConfig) -> None:
    for key, value, cap in (("trials", cfg.trials, TRIALS_CAP), ("seeds", cfg.seeds, SEEDS_CAP)):
        if value is not None and value > cap:
            raise ResourceCapError(f"field {key!r} is capped at {cap}, got {value}")
    group = hidden = instance = None
    if cfg.experiment in ORDER_CAPS:
        group = resolve_group(cfg)
        cap = ORDER_CAPS[cfg.experiment]
        if group.order > cap:
            raise ResourceCapError(f"{cfg.experiment} is capped at order {cap}, "
                                   f"got {cfg.group!r} of order {group.order}")
        if cfg.experiment == "simon" and not is_z2n(group):
            raise ConfigError(f"field 'group': simon needs a Z2^n group, got {cfg.group!r}")
        if cfg.experiment in ("simulate", "simon"):
            hidden = resolve_hidden(cfg, group)
            check_state_size(group.order, hidden.num_cosets)
    if cfg.experiment in ("shor", "sweep-transversal"):
        instance = PeriodicInstance(cfg.modulus, cfg.base, cfg.big_q, cfg.allow_any_q)
        if cfg.experiment == "sweep-transversal":
            check_offset_bound(cfg.big_q, cfg.bound)
        elif cfg.transversal.kind == "offset":
            check_offset_bound(cfg.big_q, cfg.transversal.bound, "transversal.bound")
    object.__setattr__(cfg, "resolved", Resolved(group, hidden, instance))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment configuration."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical JSON-ready form; round-trips through config_from_dict.

    Every field of the experiment is emitted except those at None or False,
    which for a parsed config are an unset oracle_seed and a false
    allow_any_q.
    """
    out: dict = {"experiment": cfg.experiment}
    for f in SCHEMA[cfg.experiment]:
        value = getattr(cfg, f.attr)
        if value is not None and value is not False:
            out[f.key] = f.dump(value)
    return out
