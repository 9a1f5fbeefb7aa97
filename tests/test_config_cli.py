import json
import os
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import hspsim
from hspsim import cli
from hspsim.cli import build_parser, main
from hspsim import config, groups
from hspsim.config import (
    SCHEMA,
    SEEDS_CAP,
    TRIALS_CAP,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    parse_config,
)
from hspsim.errors import ConfigError, ResourceCapError
from hspsim.experiments import run_experiment
from hspsim.reporting import read_distribution_csv
from hspsim.transversals import (PeriodicInstance, offset_transversal, peak_mass, shor_pipeline,
                                 shor_transversal)

from test_acceptance import PEAK_MASS_N21_A2_Q512


def test_parse_shor_config_example():
    cfg = parse_config(
        '{"experiment":"shor","N":15,"a":7,"Q":16,"transversal":{"kind":"shor"},"seed":1}'
    )
    assert cfg.modulus == 15 and cfg.base == 7 and cfg.big_q == 16
    assert cfg.transversal.kind == "shor"
    assert cfg.seed == 1


def test_parse_rejects_non_coprime_base():
    with pytest.raises(ConfigError, match="'a'"):
        parse_config('{"experiment":"shor","N":15,"a":5,"Q":16}')


def test_parse_simon_config_with_coordinate_generators():
    cfg = parse_config(
        '{"experiment":"simon","group":"Z2^3","hidden_generators":[[1,0,1]]}'
    )
    assert cfg.group == "Z2^3"
    assert cfg.hidden_generators == ((1, 0, 1),)


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown field 'surprise'"):
        parse_config('{"experiment":"irreps","group":"Z4","surprise":1}')
    with pytest.raises(ConfigError, match="transversal.verbose"):
        parse_config(
            '{"experiment":"shor","N":15,"a":7,"Q":16,'
            '"transversal":{"kind":"shor","verbose":true}}'
        )


def test_parse_rejects_missing_and_malformed_fields():
    with pytest.raises(ConfigError, match="missing field 'Q'"):
        parse_config('{"experiment":"shor","N":15,"a":7}')
    with pytest.raises(ConfigError, match="experiment"):
        parse_config('{"experiment":"warp"}')
    with pytest.raises(ConfigError, match="JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="'group'"):
        parse_config('{"experiment":"irreps","group":"K9"}')
    with pytest.raises(ConfigError, match="power of two"):
        parse_config('{"experiment":"shor","N":15,"a":7,"Q":12}')
    with pytest.raises(ConfigError, match="Z2"):
        parse_config('{"experiment":"simon","group":"Z6","hidden_generators":[3]}')
    with pytest.raises(ConfigError, match="'seed'"):
        parse_config('{"experiment":"simon","group":"Z2^3","hidden_generators":[5],"seed":-1}')
    with pytest.raises(ConfigError, match="'oracle_seed'"):
        parse_config(
            '{"experiment":"simon","group":"Z2^3","hidden_generators":[5],"oracle_seed":-2}'
        )
    with pytest.raises(ConfigError, match="'seed'"):
        parse_config(
            '{"experiment":"sweep-transversal","N":21,"a":2,"Q":512,"bound":21,"seeds":3,'
            '"seed":-1}'
        )


def test_parse_rejects_base_at_or_above_modulus():
    with pytest.raises(ConfigError, match="'a'"):
        parse_config('{"experiment":"shor","N":15,"a":16,"Q":16}')
    with pytest.raises(ConfigError, match="'a'"):
        parse_config(
            '{"experiment":"sweep-transversal","N":21,"a":23,"Q":512,"bound":21,"seeds":3}'
        )


def test_parse_refuses_offset_bound_past_int64():
    # offset representatives reach Q*bound - 1, so Q*bound must stay <= 2^63
    sweep = '{"experiment":"sweep-transversal","N":21,"a":2,"Q":512,"bound":%d,"seeds":3}'
    shor = '{"experiment":"shor","N":21,"a":2,"Q":512,"transversal":{"kind":"%s","bound":%d}}'
    assert parse_config(sweep % (1 << 54)).bound == 1 << 54
    assert parse_config(shor % ("offset", 1 << 54)).transversal.bound == 1 << 54
    assert parse_config(shor % ("shor", 10**20)).transversal.bound == 10**20
    for bound in ((1 << 54) + 1, 10**20):
        with pytest.raises(ConfigError, match="'bound'"):
            parse_config(sweep % bound)
        with pytest.raises(ConfigError, match="'transversal.bound'"):
            parse_config(shor % ("offset", bound))


def test_parse_enforces_resource_caps():
    with pytest.raises(ResourceCapError):
        parse_config('{"experiment":"shor","N":4097,"a":3,"Q":2048}')
    with pytest.raises(ResourceCapError):
        parse_config(
            '{"experiment":"simulate","group":"Z512","hidden_generators":[]}'
        )


def test_parse_caps_trials_and_seeds(monkeypatch, capsys):
    """trials and seeds are refused past their caps by arithmetic on the parsed
    values, before a group is resolved or anything is allocated."""
    assert TRIALS_CAP == SEEDS_CAP == 65536
    trial_configs = [
        {"experiment": "simulate", "group": "D4", "hidden_generators": [2]},
        {"experiment": "simon", "group": "Z2^3", "hidden_generators": []},
        {"experiment": "shor", "N": 21, "a": 2, "Q": 512},
    ]
    sweep = {"experiment": "sweep-transversal", "N": 21, "a": 2, "Q": 512, "bound": 21}
    for raw in trial_configs:
        assert config_from_dict({**raw, "trials": TRIALS_CAP}).trials == TRIALS_CAP
    assert config_from_dict({**sweep, "seeds": SEEDS_CAP}).seeds == SEEDS_CAP

    def refuse(cfg):
        raise AssertionError("a group was resolved before the caps were checked")

    monkeypatch.setattr(config, "resolve_group", refuse)
    for raw in trial_configs:
        with pytest.raises(ResourceCapError, match="'trials' is capped at 65536, got 65537"):
            config_from_dict({**raw, "trials": 65537})
    with pytest.raises(ResourceCapError, match="'seeds' is capped at 65536, got 65537"):
        config_from_dict({**sweep, "seeds": 65537})
    assert main(["shor", "--N", "21", "--a", "2", "--Q", "512", "--trials", "65537"]) == 3
    assert "'trials'" in capsys.readouterr().err


def test_parse_caps_group_order_of_dense_array_experiments():
    with pytest.raises(ResourceCapError, match="capped at order 4096"):
        parse_config('{"experiment":"fourier-check","group":"Z8192"}')
    # irreps writes every character as nested JSON, twice: capped below the dense table
    for spec in ("Z8192", "Z2^12"):
        with pytest.raises(ResourceCapError, match="capped at order 1024"):
            parse_config('{"experiment":"irreps","group":"%s"}' % spec)
    # simulate and simon build no |G| x |G| array: only the state cap bounds them
    for text in (
        '{"experiment":"simulate","group":"Z65536","hidden_generators":[2]}',
        '{"experiment":"simon","group":"Z2^13","hidden_generators":[]}',
    ):
        with pytest.raises(ResourceCapError, match="state size"):
            parse_config(text)
    with pytest.raises(ResourceCapError, match="capped at order 65536"):
        parse_config('{"experiment":"simulate","group":"Z65537","hidden_generators":[1]}')
    parse_config('{"experiment":"simulate","group":"D2048","hidden_generators":[2,2048]}')
    parse_config('{"experiment":"simulate","group":"D2560","hidden_generators":[2,2560]}')
    parse_config('{"experiment":"simulate","group":"D32768","hidden_generators":[1,32768]}')
    parse_config('{"experiment":"simulate","group":"Z65536","hidden_generators":[1]}')
    for n, dim in ((12, 8), (13, 10)):
        unit_vectors = [[int(i == j) for j in range(n)] for i in range(dim)]
        config_from_dict(
            {"experiment": "simon", "group": f"Z2^{n}", "hidden_generators": unit_vectors}
        )
    parse_config('{"experiment":"fourier-check","group":"D2048"}')
    parse_config('{"experiment":"irreps","group":"Z2^10"}')


@pytest.mark.parametrize(
    "text",
    [
        '{"experiment":"shor","N":15,"a":7,"Q":16,"transversal":{"kind":"offset","bound":4},"seed":9}',
        '{"experiment":"shor","N":15,"a":7,"Q":16}',
        '{"experiment":"simon","group":"Z2^4","hidden_generators":[[1,0,1,0],[0,1,0,1]],"trials":12}',
        '{"experiment":"simulate","group":"D4","hidden_generators":[2],"oracle_seed":7,"trials":3}',
        '{"experiment":"irreps","group":"Z12"}',
        '{"experiment":"fourier-check","group":"D6"}',
        '{"experiment":"sweep-transversal","N":21,"a":2,"Q":512,"bound":21,"seeds":10}',
        '{"experiment":"recover","group":"D4","dist":"distribution.csv"}',
    ],
)
def test_config_round_trips(text):
    cfg = parse_config(text)
    again = parse_config(json.dumps(config_to_dict(cfg)))
    assert again == cfg
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_run_simon_experiment_matches_brute_force(tmp_path):
    cfg = parse_config(
        '{"experiment":"simon","group":"Z2^3","hidden_generators":[[1,0,1]],'
        '"trials":20,"seed":4}'
    )
    report = run_experiment(cfg, tmp_path)
    assert report["matches_brute_force"]
    assert report["recovered_generators"] == [[1, 0, 1]]
    assert report["trials_used"] == 20
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "distribution.csv").exists()
    assert (tmp_path / "samples.csv").exists()


def test_run_shor_exact_experiment(tmp_path):
    cfg = parse_config(
        '{"experiment":"shor","N":15,"a":7,"Q":16,"transversal":{"kind":"shor"},'
        '"seed":1,"trials":8}'
    )
    report = run_experiment(cfg, tmp_path)
    assert report["peak_mass"] == 1.0
    assert report["r_true"] == 4
    assert report["period_estimate"]["period"] == 4
    assert report["period_estimate"]["confirmed"]


def test_rerun_is_byte_identical(tmp_path):
    text = (
        '{"experiment":"simulate","group":"D4","hidden_generators":[2],'
        '"oracle_seed":7,"trials":25,"seed":13}'
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(parse_config(text), out_a)
    run_experiment(parse_config(text), out_b)
    for name in ("report.json", "distribution.csv", "samples.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_reports_echo_config_for_replay(tmp_path):
    text = '{"experiment":"shor","N":15,"a":7,"Q":16,"transversal":{"kind":"shor"},"seed":1}'
    report = run_experiment(parse_config(text), tmp_path)
    echoed = config_from_dict(report["config"])
    assert echoed == parse_config(text)
    assert report["config"] == {
        "experiment": "shor", "seed": 1, "N": 15, "a": 7, "Q": 16,
        "transversal": {"kind": "shor", "bound": 1}, "trials": 0,
    }


def test_cli_simulate_and_exit_codes(tmp_path, capsys):
    instance = tmp_path / "instance.json"
    instance.write_text('{"group": "D4", "hidden_generators": [2], "seed": 7}')
    out = tmp_path / "run"
    code = main(
        ["simulate", "--instance", str(instance), "--trials", "4",
         "--seed", "2", "--out-dir", str(out)]
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["hidden_elements"] == ["e", "r2"]
    table_lines = (out / "f_table.csv").read_text().splitlines()
    assert table_lines[0] == "g_index,f_index"
    assert len(table_lines) == 9
    capsys.readouterr()

    assert main(["shor", "--N", "15", "--a", "5", "--Q", "16"]) == 2
    assert "field 'a'" in capsys.readouterr().err
    assert main(["shor", "--N", "15", "--a", "16", "--Q", "16"]) == 2
    assert "field 'a'" in capsys.readouterr().err
    assert main(["simon", "--n", "3", "--hidden", "101", "--seed", "-1"]) == 2
    assert "field 'seed'" in capsys.readouterr().err
    instance.write_text('{"group": "D4", "hidden_generators": [2], "seed": -1}')
    assert main(["simulate", "--instance", str(instance), "--out-dir", str(out)]) == 2
    assert "field 'oracle_seed'" in capsys.readouterr().err
    assert main(["shor", "--N", "4097", "--a", "3", "--Q", "2048"]) == 3
    capsys.readouterr()


def test_cli_refuses_offset_bound_past_int64(tmp_path, capsys):
    huge = "100000000000000000000"
    out = str(tmp_path / "run")
    assert main(["shor", "--N", "21", "--a", "2", "--Q", "512", "--transversal", "offset",
                 "--bound", huge, "--out-dir", out]) == 2
    assert "field 'transversal.bound'" in capsys.readouterr().err
    assert main(["sweep-transversal", "--N", "21", "--a", "2", "--Q", "512", "--bound", huge,
                 "--seeds", "2", "--out-dir", out]) == 2
    assert "field 'bound'" in capsys.readouterr().err


_PAST_INT64 = str((1 << 54) + 1)  # times Q = 512 is 2^63 + 512


@pytest.mark.parametrize("argv,instance,code,line", [
    pytest.param(["shor", "--N", "15", "--a", "16", "--Q", "16"], None, 2,
                 "configuration error: field 'a': base 16 must be below N = 15", id="a>=N"),
    pytest.param(["shor", "--N", "15", "--a", "5", "--Q", "16"], None, 2,
                 "configuration error: field 'a': gcd(5, 15) != 1, base must be coprime",
                 id="gcd"),
    pytest.param(["shor", "--N", "15", "--a", "7", "--Q", "12"], None, 2,
                 "configuration error: field 'Q': 12 is not a power of two "
                 "(set allow_any_q to override)", id="Q-not-power-of-two"),
    pytest.param(["shor", "--N", "4097", "--a", "3", "--Q", "3000"], None, 2,
                 "configuration error: field 'Q': 3000 is not a power of two "
                 "(set allow_any_q to override)", id="Q-rule-before-cap"),
    pytest.param(["shor", "--N", "4097", "--a", "3", "--Q", "2048"], None, 3,
                 "resource cap exceeded: state size 2048*4097 exceeds 4194304", id="QN-cap"),
    pytest.param(["sweep-transversal", "--N", "4097", "--a", "3", "--Q", "2048",
                  "--bound", _PAST_INT64, "--seeds", "2"], None, 3,
                 "resource cap exceeded: state size 2048*4097 exceeds 4194304",
                 id="cap-before-bound"),
    pytest.param(["sweep-transversal", "--N", "21", "--a", "2", "--Q", "512",
                  "--bound", _PAST_INT64, "--seeds", "3"], None, 2,
                 "configuration error: field 'bound': Q*bound = 512*18014398509481985 "
                 "exceeds 2^63, the int64 range of the representatives", id="sweep-bound"),
    pytest.param(["shor", "--N", "21", "--a", "2", "--Q", "512", "--transversal", "offset",
                  "--bound", _PAST_INT64], None, 2,
                 "configuration error: field 'transversal.bound': Q*bound = "
                 "512*18014398509481985 exceeds 2^63, the int64 range of the representatives",
                 id="shor-bound"),
    pytest.param(["simulate"], {"group": "Z512", "hidden_generators": []}, 3,
                 "resource cap exceeded: state size 512*512 exceeds 65536", id="state-cap"),
    pytest.param(["simulate"], {"group": "Z70000", "hidden_generators": []}, 3,
                 "resource cap exceeded: simulate is capped at order 65536, "
                 "got 'Z70000' of order 70000", id="order-cap"),
    pytest.param(["simulate"], {"group": "D4", "hidden_generators": [9]}, 2,
                 "configuration error: field 'hidden_generators': element index 9 "
                 "out of range for D4 (order 8)", id="hidden-out-of-range"),
    pytest.param(["simulate"], {"group": "D4", "hidden_generators": [[1, 0]]}, 2,
                 "configuration error: field 'hidden_generators': coordinate entry [1, 0] "
                 "needs a product group, got D4", id="hidden-coordinates"),
    # the simon subcommand always builds Z2^n, so this config reaches main as a dict
    pytest.param(None, {"experiment": "simon", "group": "Z6", "hidden_generators": [3]}, 2,
                 "configuration error: field 'group': simon needs a Z2^n group, got 'Z6'",
                 id="simon-on-Z6"),
    pytest.param(None, {"experiment": "simulate", "group": "D4", "hidden_generators": 2}, 2,
                 "configuration error: field 'hidden_generators' must be a list",
                 id="hidden-not-a-list"),
    pytest.param(None, {"experiment": "simulate", "group": "D4", "hidden_generators": [True]},
                 2, "configuration error: field 'hidden_generators' has invalid entry True",
                 id="hidden-bool-entry"),
    pytest.param(None, {"experiment": "simulate", "group": "D4", "hidden_generators": [1.5]},
                 2, "configuration error: field 'hidden_generators' has invalid entry 1.5",
                 id="hidden-float-entry"),
    pytest.param(None, {"experiment": "simon", "group": "Z2^3",
                        "hidden_generators": [[1, "0", 1]]}, 2,
                 "configuration error: field 'hidden_generators' has invalid entry [1, '0', 1]",
                 id="hidden-text-coordinate"),
    pytest.param(None, {"experiment": "shor", "N": 15, "a": 7, "Q": 16, "transversal": "shor"},
                 2, "configuration error: field 'transversal' must be an object",
                 id="transversal-not-an-object"),
    pytest.param(None, {"experiment": "shor", "N": 15, "a": 7, "Q": 16,
                        "transversal": {"kind": "least"}}, 2,
                 "configuration error: field 'transversal.kind' must be one of "
                 "['shor', 'offset']", id="transversal-kind"),
    pytest.param(None, {"experiment": "shor", "N": 15, "a": 7, "Q": 16,
                        "transversal": {"kind": "offset", "bound": 0}}, 2,
                 "configuration error: field 'transversal.bound' must be a positive integer",
                 id="transversal-bound-zero"),
    pytest.param(None, {"experiment": "shor", "N": 15, "a": 7, "Q": 16,
                        "transversal": {"kind": "offset", "bound": True}}, 2,
                 "configuration error: field 'transversal.bound' must be a positive integer",
                 id="transversal-bound-bool"),
    pytest.param(None, {"experiment": "shor", "N": "15", "a": 7, "Q": 16}, 2,
                 "configuration error: field 'N' must be an integer, got '15'",
                 id="integer-given-text"),
    pytest.param(None, {"experiment": "irreps", "group": 4}, 2,
                 "configuration error: field 'group' must be a string, got 4",
                 id="string-given-integer"),
    pytest.param(None, {"experiment": "shor", "N": 15, "a": 7, "Q": 12, "allow_any_q": 1}, 2,
                 "configuration error: field 'allow_any_q' must be a boolean, got 1",
                 id="boolean-given-integer"),
    pytest.param(None, {"experiment": "shor", "N": 15, "a": 7, "Q": 16, "trials": True}, 2,
                 "configuration error: field 'trials' must be an integer, got True",
                 id="integer-given-boolean"),
    pytest.param(None, {"experiment": "simulate", "group": "D4", "hidden_generators": [2],
                        "measure_granularity": "irrep"}, 2,
                 "configuration error: field 'measure_granularity' must be one of "
                 "['full_triple', 'irrep_label_only']", id="outside-choices"),
    pytest.param(None, ["experiment", "irreps"], 2,
                 "configuration error: configuration must be a JSON object",
                 id="config-not-an-object"),
    # F has one row order, and shor's law is the same under either transform
    pytest.param(None, {"experiment": "simulate", "group": "D4", "hidden_generators": [2],
                        "ordering": "label"}, 2,
                 "configuration error: unknown field 'ordering' for experiment 'simulate'",
                 id="simulate-ordering-removed"),
    pytest.param(None, {"experiment": "fourier-check", "group": "D4", "ordering": "label"}, 2,
                 "configuration error: unknown field 'ordering' for experiment 'fourier-check'",
                 id="fourier-ordering-removed"),
    pytest.param(None, {"experiment": "shor", "N": 15, "a": 7, "Q": 16,
                        "second_transform": "inverse"}, 2,
                 "configuration error: unknown field 'second_transform' for experiment 'shor'",
                 id="shor-second-transform-removed"),
    pytest.param(["simulate", "--instance", "missing.json"], None, 2,
                 "configuration error: cannot read instance file: [Errno 2] "
                 "No such file or directory: 'missing.json'", id="instance-unreadable"),
    pytest.param(["simulate"], "{not json", 2,
                 "configuration error: instance file is not valid JSON: Expecting property "
                 "name enclosed in double quotes: line 1 column 2 (char 1)",
                 id="instance-not-json"),
    pytest.param(["simulate"], [1], 2,
                 "configuration error: instance file must hold a JSON object",
                 id="instance-not-an-object"),
    pytest.param(["simulate"], {"group": "D4", "hidden_generators": [2], "oracle_seed": 3}, 2,
                 "configuration error: unknown field 'oracle_seed' in instance file",
                 id="instance-unknown-key"),
])
def test_cli_error_lines_are_pinned(tmp_path, monkeypatch, capsys, argv, instance, code, line):
    """Each refusal's exact stderr line and exit code, whichever object states the
    rule.  With no argv the config reaches main as it stands; an instance that
    is text is written to the instance file as it stands, anything else as JSON."""
    monkeypatch.chdir(tmp_path)
    if argv is None:
        monkeypatch.setattr(cli, "_config_dict", lambda args: instance)
        argv = ["irreps", "Z1"]
    elif instance is not None:
        path = tmp_path / "instance.json"
        text = instance if isinstance(instance, str) else json.dumps(instance)
        path.write_text(text, encoding="utf-8")
        argv = argv + ["--instance", str(path)]
    assert main(argv + ["--out-dir", str(tmp_path / "run")]) == code
    captured = capsys.readouterr()
    assert captured.err == line + "\n" and captured.out == ""
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--instance", "instance.json", "--ordering", "label"],
    ["fourier", "D4", "--ordering", "label"],
    ["shor", "--N", "15", "--a", "7", "--Q", "16", "--second-transform", "inverse"],
], ids=["simulate-ordering", "fourier-ordering", "shor-second-transform"])
def test_cli_refuses_removed_flags(capsys, argv):
    """The flags of removed fields are gone with them: argparse exits 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def _count_resolutions(monkeypatch) -> Counter:
    """Count calls of group_from_spec (under every hspsim name bound to it),
    Subgroup.from_generators and PeriodicInstance construction."""
    counts = Counter()
    spec = groups.group_from_spec

    def counted_spec(text):
        counts["group_from_spec"] += 1
        return spec(text)

    for name, module in list(sys.modules.items()):
        if name == "hspsim" or name.startswith("hspsim."):
            for key, value in list(vars(module).items()):
                if value is spec:
                    monkeypatch.setattr(module, key, counted_spec)
    from_generators = groups.Subgroup.from_generators.__func__

    def counted_generators(cls, group, generators):
        counts["from_generators"] += 1
        return from_generators(cls, group, generators)

    monkeypatch.setattr(groups.Subgroup, "from_generators", classmethod(counted_generators))
    post_init = PeriodicInstance.__post_init__

    def counted_instance(self):
        counts["PeriodicInstance"] += 1
        post_init(self)

    monkeypatch.setattr(PeriodicInstance, "__post_init__", counted_instance)
    return counts


@pytest.mark.parametrize("raw,expected", [
    pytest.param({"experiment": "simulate", "group": "D8", "hidden_generators": [2, 9],
                  "trials": 4}, (1, 1, 0), id="simulate"),
    pytest.param({"experiment": "simon", "group": "Z2^4", "hidden_generators": [[1, 0, 1, 1]],
                  "trials": 6}, (1, 1, 0), id="simon"),
    pytest.param({"experiment": "recover", "group": "D4"}, (1, 0, 0), id="recover"),
    pytest.param({"experiment": "irreps", "group": "D4"}, (1, 0, 0), id="irreps"),
    pytest.param({"experiment": "fourier-check", "group": "Z2xZ4"}, (1, 0, 0), id="fourier"),
    pytest.param({"experiment": "shor", "N": 21, "a": 2, "Q": 512, "trials": 5}, (0, 0, 1),
                 id="shor"),
    pytest.param({"experiment": "shor", "N": 21, "a": 2, "Q": 512, "trials": 5,
                  "transversal": {"kind": "offset", "bound": 21}}, (0, 0, 1), id="shor-offset"),
    pytest.param({"experiment": "sweep-transversal", "N": 21, "a": 2, "Q": 512, "bound": 21,
                  "seeds": 3}, (0, 0, 1), id="sweep"),
])
def test_each_run_resolves_its_config_once(tmp_path, monkeypatch, raw, expected):
    """Parsing builds the group, closes the hidden subgroup and constructs the
    period instance, each at most once, and the run reads what parsing built."""
    if raw["experiment"] == "recover":
        simulate = {"experiment": "simulate", "group": "D4", "hidden_generators": [2]}
        run_experiment(config_from_dict(simulate), tmp_path / "sim")
        raw = {**raw, "dist": str(tmp_path / "sim" / "distribution.csv")}
    counts = _count_resolutions(monkeypatch)
    cfg = config_from_dict(raw)
    # parsing takes on no run work: the run builds the power table
    assert cfg.resolved.instance is None or "powers" not in vars(cfg.resolved.instance)
    run_experiment(cfg, tmp_path / "run")
    assert (counts["group_from_spec"], counts["from_generators"],
            counts["PeriodicInstance"]) == expected


def test_resolved_objects_are_derived_not_a_knob():
    cfg = config_from_dict({"experiment": "simulate", "group": "D4", "hidden_generators": [2]})
    assert cfg.resolved.group.name == "D4" and cfg.resolved.hidden.elements == (0, 2)
    assert cfg.resolved.instance is None
    assert all(f.attr != "resolved" for fields in SCHEMA.values() for f in fields)
    assert "resolved" not in repr(cfg) and "resolved" not in config_to_dict(cfg)
    assert cfg == ExperimentConfig("simulate", group="D4", hidden_generators=(2,))


def test_cli_maps_integrity_errors_to_exit_4(monkeypatch, capsys):
    from hspsim import cli
    from hspsim.errors import IntegrityError

    def boom(cfg, out_dir):
        raise IntegrityError("norm drifted")

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["irreps", "Z4"]) == 4
    assert "invariant" in capsys.readouterr().err


def test_cli_simon_flags(tmp_path, capsys):
    out = tmp_path / "simon"
    code = main(
        ["simon", "--n", "4", "--hidden", "1010,0110", "--trials", "16",
         "--seed", "5", "--out-dir", str(out)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matches_brute_force"]
    assert main(["simon", "--n", "3", "--hidden", "10"]) == 2
    capsys.readouterr()
    assert main(["simon", "--n", "3", "--hidden", "abc"]) == 2
    capsys.readouterr()


def test_cli_fourier_check_prints_residuals(tmp_path, capsys):
    code = main(["fourier", "D4", "--out-dir", str(tmp_path), "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    fields = dict(line.split(",", 1) for line in lines)
    assert float(fields["completeness_defect"]) < 1e-12
    assert float(fields["max_schur_residual"]) < 1e-12
    assert float(fields["max_unitarity_residual"]) < 1e-12


@pytest.mark.parametrize("group,flags", [
    ("D4", []),  # irrep:row:column triples
    ("Z2xZ4", []),  # plain character indices
    ("D4", ["--measure-granularity", "irrep_label_only"]),
])
def test_cli_simulate_stdout_is_the_artifact_bytes(tmp_path, capsys, group, flags):
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({"group": group, "hidden_generators": [2], "seed": 3}))
    for fmt, name in (("csv", "distribution.csv"), ("json", "report.json")):
        out = tmp_path / fmt
        assert main(["simulate", "--instance", str(instance), "--out-dir", str(out),
                     "--format", fmt, *flags]) == 0
        assert capsys.readouterr().out == (out / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["recover", "--dist", "z2.csv", "--group", "Z2^3"],
    ["sweep-transversal", "--N", "21", "--a", "2", "--Q", "512", "--bound", "21", "--seeds", "3"],
    ["shor", "--N", "21", "--a", "2", "--Q", "512", "--trials", "8"],
    ["simon", "--n", "4", "--hidden", "1011", "--trials", "12"],
    ["irreps", "D4"],
    ["fourier", "D4"],
], ids=["recover", "sweep-transversal", "shor", "simon", "irreps", "fourier"])
def test_cli_json_stdout_is_the_report_bytes(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z2.csv").write_text("outcome_label,probability\n0,0.5\n5,0.5\n")
    assert main([*argv, "--out-dir", "out", "--format", "json"]) == 0
    assert capsys.readouterr().out == (tmp_path / "out" / "report.json").read_text(encoding="utf-8")


def test_reports_stay_on_the_c_encoder(tmp_path, monkeypatch):
    """json's pure-Python encoder, which `indent` selects, took half of a D2048
    simulate step; every report is written by its C encoder, one sorted
    top-level key per line."""
    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    (tmp_path / "z2.csv").write_text("outcome_label,probability\n0,0.5\n5,0.5\n")
    runs = [
        ({"experiment": "simulate", "group": "D8", "hidden_generators": [2], "trials": 8},
         ["report.json"]),
        ({"experiment": "recover", "group": "Z2^3", "dist": str(tmp_path / "z2.csv")},
         ["report.json"]),
        ({"experiment": "irreps", "group": "D4"}, ["report.json", "irreps.json"]),
    ]
    for i, (raw, names) in enumerate(runs):
        out = tmp_path / str(i)
        report = run_experiment(config_from_dict(raw), out)
        for name in names:
            text = (out / name).read_text(encoding="utf-8")
            payload = json.loads(text)
            assert payload == {key: report[key] for key in payload}
            assert name == "irreps.json" or payload == report
            assert text.endswith("}\n")
            lines = text[:-1].split("\n")
            assert lines[0] == "{" and lines[-1] == "}"
            entries = [json.loads("{%s}" % line.removesuffix(",")) for line in lines[1:-1]]
            assert [key for entry in entries for key in entry] == sorted(payload)
            assert all(len(entry) == 1 for entry in entries)


@pytest.mark.parametrize("kind,seed", [("shor", 0), ("offset", 0), ("offset", 1), ("offset", 2)])
def test_shor_report_names_the_transversal_it_ran(tmp_path, kind, seed):
    cfg = config_from_dict({"experiment": "shor", "N": 21, "a": 2, "Q": 64, "seed": seed,
                            "transversal": {"kind": kind, "bound": 7}})
    report = run_experiment(cfg, tmp_path)
    tau = shor_transversal(64) if kind == "shor" else offset_transversal(64, 7, seed)
    expected = "shor" if kind == "shor" else f"offset(seed={seed}, bound=7)"
    assert report["transversal"] == expected
    assert report["peak_mass"] == peak_mass(shor_pipeline(PeriodicInstance(21, 2, 64), tau), 6, 64)


def test_cli_recover_round_trip(tmp_path, capsys):
    instance = tmp_path / "instance.json"
    instance.write_text('{"group": "D4", "hidden_generators": [2], "seed": 0}')
    for name, flags in (("full", []), ("label", ["--measure-granularity", "irrep_label_only"])):
        run_dir = tmp_path / name
        code = main(["simulate", "--instance", str(instance), "--out-dir", str(run_dir), *flags])
        assert code == 0
        capsys.readouterr()
        code = main(
            ["recover", "--dist", str(run_dir / "distribution.csv"), "--group", "D4",
             "--out-dir", str(run_dir / "rec"), *flags]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["candidates"][0]["elements"] == ["e", "r2"]
        assert report["candidates"][0]["total_variation"] < 1e-10


def test_cli_recover_csv_table_is_pinned(tmp_path, monkeypatch, capsys):
    """`recover --format csv` prints the ranking as a table: rank, the elements
    joined by |, and the total variation with 17 significant digits."""
    monkeypatch.chdir(tmp_path)
    Path("z4.csv").write_text("outcome_label,probability\n0,0.5\n2,0.5\n")
    assert main(["recover", "--group", "Z4", "--dist", "z4.csv", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "rank,elements,total_variation\n0,0|2,0\n1,0,0.5\n2,0|1|2|3,0.5\n")


def test_cli_refuses_group_orders_beyond_int64(tmp_path, capsys):
    dist = tmp_path / "x.csv"
    dist.write_text("outcome_label,probability\n0,1\n")
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({"group": "Z99999999999999999999", "hidden_generators": []}))
    for argv, name in [
        (["irreps", "Z2^70"], "Z2^70"),
        (["recover", "--group", "Z2^64", "--dist", str(dist)], "Z2^64"),
        (["simulate", "--instance", str(instance)], "Z99999999999999999999"),
    ]:
        assert main(argv + ["--out-dir", str(tmp_path)]) == 3
        assert name in capsys.readouterr().err


def test_cli_refuses_oversized_power_specs_at_once(tmp_path, capsys):
    """The factor count is summed before any list is built: no 28 s product, no overflow."""
    for spec in ("Z2^1000000", "Z2^99999999999999999999"):
        start = time.perf_counter()
        code = main(["irreps", spec, "--out-dir", str(tmp_path)])
        elapsed = time.perf_counter() - start
        assert code == 3
        assert spec in capsys.readouterr().err
        assert elapsed < 0.1


def test_cli_recover_bad_dist_exits_2(tmp_path, capsys):
    assert main(["recover", "--dist", str(tmp_path / "nope.csv"), "--group", "Z4"]) == 2
    assert "'dist'" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    bad.write_text("wrong,header\n1,2\n")
    assert main(["recover", "--dist", str(bad), "--group", "Z4"]) == 2
    capsys.readouterr()
    for rows in ("0,nan\n1,1", "0,2\n1,-1", "0,0.5\n0,0.5", "0,2\n1,1.5", "0,0.5\n1,0.4",
                 "0,0.5\n5,0.5", "0:1:2,1"):
        bad.write_text("outcome_label,probability\n" + rows + "\n")
        assert main(["recover", "--dist", str(bad), "--group", "Z2"]) == 2
        assert "'dist'" in capsys.readouterr().err


def test_distribution_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "dist.csv"
    path.write_text("outcome_label,probability\n0:0:0,0.5\n\n1:0:0,0.5\n\n")
    dist = read_distribution_csv(path)
    assert list(dist.labels) == [(0, 0, 0), (1, 0, 0)] and dist.probs.tolist() == [0.5, 0.5]


def test_cli_sweep_transversal(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        ["sweep-transversal", "--N", "21", "--a", "2", "--Q", "512",
         "--bound", "21", "--seeds", "3", "--out-dir", str(out)]
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "seed,peak_mass_shor,peak_mass_offset"
    assert len(lines) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["wins_shor"] == 3


@pytest.mark.parametrize("seeds", [1, 3, 4])
def test_sweep_median_matches_statistics_median(tmp_path, seeds):
    import statistics

    cfg = config_from_dict({"experiment": "sweep-transversal", "N": 21, "a": 2, "Q": 512,
                            "bound": 21, "seeds": seeds, "seed": 5})
    report = run_experiment(cfg, tmp_path)
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    offsets = [float(row.split(",")[2]) for row in rows]
    assert report["median_peak_mass_offset"] == statistics.median(offsets)


def test_cli_import_loads_no_statistics_modules():
    """numpy loads none of statistics, fractions and decimal; the CLI should not either."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(hspsim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    code = ("import sys\nimport hspsim.cli\n"
            "print(sorted({'statistics', 'fractions', 'decimal'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


_LOADS_MA = "import sys\n{run}\nprint('numpy.ma' in sys.modules)"
_RUN_CLI = """import contextlib, io
from hspsim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0"""


@pytest.mark.parametrize("argv", [
    ["simulate", "--instance", "instance.json", "--trials", "8", "--out-dir", "sim"],
    ["recover", "--dist", "distribution.csv", "--group", "D4", "--out-dir", "rec"],
    ["recover", "--dist", "z2.csv", "--group", "Z2^3", "--out-dir", "rec"],
    ["sweep-transversal", "--N", "21", "--a", "2", "--Q", "512", "--bound", "21",
     "--seeds", "4", "--out-dir", "sweep"],
    ["simon", "--n", "4", "--hidden", "1011", "--trials", "12", "--out-dir", "simon"],
    ["shor", "--N", "21", "--a", "2", "--Q", "512", "--trials", "8", "--out-dir", "shor"],
], ids=["simulate", "recover-D4", "recover-Z2^3", "sweep-transversal", "simon", "shor"])
def test_cli_runs_never_import_numpy_ma(tmp_path, argv):
    """numpy.ma costs 12-15 ms to import in a fresh process; no run needs it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(hspsim.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}

    def loads_ma(run: str, *args) -> bool:
        done = subprocess.run([sys.executable, "-c", _LOADS_MA.format(run=run), *args],
                              cwd=tmp_path, env=env, capture_output=True, text=True, check=True)
        return done.stdout.strip() == "True"

    if loads_ma("import numpy"):
        pytest.skip("this numpy loads numpy.ma on import")
    (tmp_path / "instance.json").write_text('{"group": "D4", "hidden_generators": [2], "seed": 7}')
    (tmp_path / "z2.csv").write_text("outcome_label,probability\n0,0.5\n5,0.5\n")
    assert main(["simulate", "--instance", str(tmp_path / "instance.json"),
                 "--out-dir", str(tmp_path)]) == 0
    assert not loads_ma(_RUN_CLI, *argv)


# Per experiment: a JSON config and the command line that sets the same
# required and adapter-supplied fields, each to a value other than its default.
SCHEMA_BASES = {
    "simulate": (
        {"group": "D4", "hidden_generators": [2], "oracle_seed": 7},
        ["simulate", "--instance", "instance.json"],
    ),
    "simon": (
        {"group": "Z2^3", "hidden_generators": [[1, 0, 1]]},
        ["simon", "--n", "3", "--hidden", "101"],
    ),
    "shor": (
        {"N": 15, "a": 7, "Q": 16, "transversal": {"kind": "offset", "bound": 4}},
        ["shor", "--N", "15", "--a", "7", "--Q", "16", "--transversal", "offset", "--bound", "4"],
    ),
    "sweep-transversal": (
        {"N": 21, "a": 2, "Q": 512, "bound": 21, "seeds": 3},
        ["sweep-transversal", "--N", "21", "--a", "2", "--Q", "512", "--bound", "21",
         "--seeds", "3"],
    ),
    "irreps": ({"group": "D4"}, ["irreps", "D4"]),
    "fourier-check": ({"group": "D4"}, ["fourier", "D4"]),
    "recover": (
        {"group": "D4", "dist": "distribution.csv"},
        ["recover", "--group", "D4", "--dist", "distribution.csv"],
    ),
}
# A value other than the default for every field set by a generated flag alone.
FLAG_VALUES = {
    "seed": 5,
    "oracle_seed": 3,
    "trials": 7,
    "allow_any_q": True,
    "second_transform": "inverse",
    "measure_granularity": "irrep_label_only",
}


@pytest.mark.parametrize(
    "experiment,field",
    [pytest.param(e, f, id=f"{e}-{f.key}") for e, fields in SCHEMA.items() for f in fields],
)
def test_cli_sets_every_schema_field_like_json(tmp_path, monkeypatch, experiment, field):
    monkeypatch.chdir(tmp_path)
    Path("instance.json").write_text('{"group": "D4", "hidden_generators": [2], "seed": 7}')
    raw, argv = SCHEMA_BASES[experiment]
    if field.key not in raw:
        value = FLAG_VALUES[field.key]
        flag = "--" + field.key.replace("_", "-")
        raw = {**raw, field.key: value}
        argv = argv + ([flag] if value is True else [flag, str(value)])
    from_json = config_from_dict({"experiment": experiment, **raw})
    from_cli = config_from_dict(cli._config_dict(build_parser().parse_args(argv)))
    assert from_cli == from_json
    assert getattr(from_json, field.attr) != getattr(ExperimentConfig(experiment), field.attr)


# Per experiment: one small config that can show the effect of each of its
# fields, and the values each field without `choices` is changed to; a
# `choices` field is changed to each of its other choices.  Q = 48 needs
# allow_any_q, so switching it off changes the exit status.
OUTCOME_BASES = {
    "simulate": (
        {"group": "D4", "hidden_generators": [2], "trials": 4},
        {"seed": [5], "group": ["D5"], "hidden_generators": [[4]], "oracle_seed": [3],
         "trials": [7]},
    ),
    "simon": (
        {"group": "Z2^3", "hidden_generators": [5], "trials": 6},
        {"seed": [5], "group": ["Z2^4"], "hidden_generators": [[3]], "oracle_seed": [3],
         "trials": [9]},
    ),
    "shor": (
        {"N": 21, "a": 2, "Q": 48, "allow_any_q": True, "trials": 4,
         "transversal": {"kind": "offset", "bound": 7}},
        {"seed": [5], "N": [15], "a": [5], "Q": [64], "trials": [6], "allow_any_q": [False],
         "transversal": [{"kind": "shor"}, {"kind": "offset", "bound": 9}]},
    ),
    "sweep-transversal": (
        {"N": 21, "a": 2, "Q": 48, "allow_any_q": True, "bound": 7, "seeds": 2},
        {"seed": [5], "N": [15], "a": [5], "Q": [64], "bound": [9], "seeds": [3],
         "allow_any_q": [False]},
    ),
    "irreps": ({"group": "D4"}, {"seed": [5], "group": ["Z8"]}),
    "fourier-check": ({"group": "D4"}, {"seed": [5], "group": ["D6"]}),
    "recover": (
        {"group": "D4", "dist": "k2.csv"},
        {"seed": [5], "group": ["Z8"], "dist": ["k4.csv"], "oracle_seed": [3]},
    ),
}
# The fields that change no outcome, each with its reason.
NO_OUTCOME = {
    ("irreps", "seed"): "an irreps run has no randomness",
    ("fourier-check", "seed"): "a fourier-check run has no randomness",
    ("recover", "seed"): "a recover run has no randomness",
    # both are kept because the benchmark passes --oracle-seed
    ("simon", "oracle_seed"): "f only relabels the cosets, and no simon output shows f",
    ("recover", "oracle_seed"): "a subgroup's law does not depend on f, and recover builds no f",
}


def _outcome(raw: dict, out: Path, monkeypatch, capsys):
    """The exit status, every artifact's bytes and the report without its
    `config` and `seed` keys of one run of `raw` through main."""
    monkeypatch.setattr(cli, "_config_dict", lambda args: raw)
    code = main(["irreps", "Z1", "--out-dir", str(out)])
    capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out.glob("*")) if p.name != "report.json"}
    report = json.loads((out / "report.json").read_text()) if code == 0 else None
    if report is not None:
        del report["config"], report["seed"]
    return code, files, report


@pytest.mark.parametrize("experiment", list(SCHEMA))
def test_every_config_field_changes_an_outcome(tmp_path, monkeypatch, capsys, experiment):
    """Each field of each experiment, changed from the base config, changes the
    exit status, an artifact's bytes or the report beyond its config echo, unless
    NO_OUTCOME names it; those must change none."""
    monkeypatch.chdir(tmp_path)
    for name, generator in (("k2", 2), ("k4", 4)):
        simulate = {"experiment": "simulate", "group": "D4", "hidden_generators": [generator]}
        run_experiment(config_from_dict(simulate), tmp_path / name)
        Path(f"{name}.csv").write_bytes((tmp_path / name / "distribution.csv").read_bytes())
    base, values = OUTCOME_BASES[experiment]
    base = {"experiment": experiment, **base}
    expected = _outcome(base, tmp_path / "base", monkeypatch, capsys)
    assert expected[0] == 0
    defaults = ExperimentConfig(experiment)
    wrong = []
    for field in SCHEMA[experiment]:
        current = base.get(field.key, getattr(defaults, field.attr))
        variants = [c for c in field.choices if c != current] or values.get(field.key)
        assert variants, f"no value to change {experiment}.{field.key} to"
        for value in variants:
            out = tmp_path / f"{field.key}-{value}"
            changed = _outcome({**base, field.key: value}, out, monkeypatch, capsys) != expected
            if changed == ((experiment, field.key) in NO_OUTCOME):
                wrong.append((field.key, value, "changed" if changed else "unchanged"))
    assert not wrong, f"{experiment}: outcomes that disagree with NO_OUTCOME: {wrong}"


def _readme_command_lines():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("hspsim ")]


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_lines_parse(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    if args.command != "simulate":  # simulate reads its instance file
        config_from_dict(cli._config_dict(args))


def test_readme_command_lines_run_in_order(tmp_path, monkeypatch, capsys):
    """The `## Command line` block end to end, beside the README's instance.json."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    instance = readme.split("reads an instance file like", 1)[1].split("```json\n", 1)[1]
    monkeypatch.chdir(tmp_path)
    Path("instance.json").write_text(instance.split("```", 1)[0], encoding="utf-8")
    for line in _readme_command_lines():
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()
    assert Path("run", "distribution.csv").is_file() and Path("report.json").is_file()


def test_readme_library_code_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(block, namespace)
    capsys.readouterr()
    best, tv = namespace["ranking"].entries[0]
    assert best.group.labels(best.elements) == ["e", "r2"] and tv < 1e-10
    h, inst = namespace["h"], namespace["inst"]
    pm = h.peak_mass(namespace["dist"], inst.period, 512)
    assert abs(pm - PEAK_MASS_N21_A2_Q512) < 1e-10
    assert namespace["est"].period == 6 and namespace["est"].confirmed

