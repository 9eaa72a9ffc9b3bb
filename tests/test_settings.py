"""A fuzz test generated from the settings tables: every ScenarioConfig
field (harness.SETTINGS, plus the five fields its rules check), every
DATASET_KINDS key and every METHODS parameter.

Out-of-range draws must fail with a ConfigError that names the setting.
In-range draws run a toy scenario, small enough that no draw allocates
much memory, and must succeed or exit 2 under the CLI's `_guard` rule,
never exit 3.
"""
import math
import types
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedthresh import cli, harness
from fedthresh.errors import ConfigError, StageError
from fedthresh.harness import DATASET_KINDS, METHODS, SETTINGS, ScenarioConfig
from fedthresh.util import Range

FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
RULE_FIELDS = ("dataset", "hidden_dims", "corrupt_client_ids",
               "method_params", "scenario_id")
# a valid toy config that every out-of-range draw changes in one place
BASE = {"dataset": {"kind": "synth", "num_normal": 40, "num_anomaly": 10,
                    "dim": 3, "separation": 4.0},
        "scheme": "noniid_kmeans", "num_clients": 3, "rounds": 1,
        "n_candidates": 10, "methods": ["largest_mse"]}
# not numbers, or not numbers a float holds as a finite value
SPECIALS = (math.nan, math.inf, -math.inf, 10**400, -10**400, True, False,
            "x", "1", [], {})
# the toy scale of in-range draws, at most 80 rows: each unbounded count,
# learning_rate and the unbounded method parameters are capped here
CAPS = {"num_clients": 6, "rounds": 2, "local_epochs": 2, "batch_size": 80,
        "n_candidates": 20, "noniid_k": 6, "learning_rate": 1.0,
        "num_normal": 60, "num_anomaly": 20, "anomaly_blob_sizes": 10,
        "dim": 4, "z_cut": 10.0, "bandwidth": 10.0}
# half the draws of these settings are typical, so that more runs reach
# training and the thresholds than with split fractions near 0 or 1
TYPICAL = {"train_frac": st.floats(0.3, 0.7), "val_frac": st.floats(0.1, 0.3)}
EXAMPLES_OUTSIDE = 400
EXAMPLES_INSIDE = 150


def nullable(annotation) -> bool:
    return isinstance(annotation, types.UnionType) and \
        type(None) in annotation.__args__


def entry_type(annotation):
    """(int, float or str, whether the value is a tuple of them)."""
    if isinstance(annotation, types.UnionType):
        annotation = annotation.__args__[0]
    if isinstance(annotation, types.GenericAlias):
        return annotation.__args__[0], True
    return annotation, False


def outside(domain, annotation):
    """Values outside `domain` for a value of type `annotation`: just past
    each finite bound, the specials, and None where neither the type nor
    the domain allows it; for a tuple, also one such entry after a good
    one."""
    kind, many = entry_type(annotation)
    # an empty tuple has no entry outside; methods' rule rejects it
    bad = [v for v in SPECIALS if not (many and v == [])]
    if not nullable(annotation) and not getattr(domain, "nullable", False):
        bad.append(None)
    options = [st.sampled_from(bad)]
    if isinstance(domain, tuple):
        options.append(st.text(max_size=8).filter(lambda s: s not in domain))
    elif kind is int:
        edge = int(domain.low) - (1 if domain.low_closed else 0)
        options.append(st.integers(max_value=edge))
    elif domain.low > -math.inf:
        options.append(st.floats(max_value=domain.low, allow_nan=False,
                                 exclude_max=domain.low_closed))
    if isinstance(domain, Range) and domain.high < math.inf:
        options.append(st.floats(min_value=domain.high, allow_nan=False))
    values = st.one_of(options)
    if many:
        good = domain[0] if isinstance(domain, tuple) else 1
        values = st.one_of(values, values.map(lambda v: [good, v]))
    return values


def rule_outside():
    """Out-of-range values of the five fields ScenarioConfig's rules
    check, against BASE."""
    # a numeric string is read by float(), so "1" may lie inside
    params = [st.tuples(st.just(tag), st.just(key), outside(
        domain, float).filter(lambda v: v != "1"))
              for tag, method in METHODS.items()
              for key, domain in method.params.items()]
    return {
        "dataset": st.sampled_from([{"num_normal": 5}, [], "synth", None]),
        "hidden_dims": st.one_of(
            st.just([]), st.lists(st.integers(max_value=0), min_size=1),
            st.lists(st.sampled_from([True, 1.5, "2", None]), min_size=1),
            st.sampled_from([4, "4", True])),
        "corrupt_client_ids": st.one_of(
            st.lists(st.integers(min_value=BASE["num_clients"]),
                     min_size=1),
            st.lists(st.integers(max_value=-1), min_size=1),
            st.sampled_from([[True], ["0"], [0.5], 0, None])),
        "method_params": st.one_of(
            st.one_of(params).map(lambda p: {p[0]: {p[1]: p[2]}}),
            st.sampled_from([{"oracle": {}}, {"kqe": {"h": 1}},
                             {"kqe": [0.5]}, [], None])),
        "scenario_id": st.one_of(
            st.tuples(st.text(max_size=4), st.sampled_from(',"\r\n'),
                      st.text(max_size=4)).map("".join),
            st.sampled_from([None, 7, True, ["a"]])),
    }


def field_and_bad_value():
    per_field = {name: outside(domain, FIELD_TYPES[name])
                 for name, domain in SETTINGS.items()}
    per_field.update(rule_outside())
    return st.one_of([st.tuples(st.just(name), values)
                      for name, values in per_field.items()])


def test_the_table_covers_every_field():
    assert sorted([*SETTINGS, *RULE_FIELDS]) == sorted(FIELD_TYPES)
    ScenarioConfig.from_dict(BASE)


def test_every_special_fails_for_every_setting():
    """The specials, and None where not allowed, for each table field, so
    that none is left to the draws' luck."""
    for name, domain in SETTINGS.items():
        many = entry_type(FIELD_TYPES[name])[1]
        nulls = [] if nullable(FIELD_TYPES[name]) else [None]
        for value in [v for v in SPECIALS if not (many and v == [])] + nulls:
            with pytest.raises(ConfigError, match=f"^(unknown )?{name} "):
                ScenarioConfig.from_dict({**BASE, name: value})


@settings(max_examples=EXAMPLES_OUTSIDE, deadline=None, derandomize=True,
          database=None)
@given(field_and_bad_value())
def test_out_of_range_values_fail_at_from_dict_naming_the_field(draw):
    name, value = draw
    with pytest.raises(ConfigError) as caught:
        ScenarioConfig.from_dict({**BASE, name: value})
    assert name in str(caught.value)


def dataset_key_and_bad_value():
    options = []
    for kind, (_, key_types, domains) in DATASET_KINDS.items():
        for key, annotation in key_types.items():
            values = outside(domains[key], annotation) if key in domains \
                else st.sampled_from([v for v in SPECIALS
                                      if not isinstance(v, str)] + [None])
            options.append(st.tuples(st.just(kind), st.just(key), values))
    return st.one_of(options)


TOY_SPECS = {
    "synth": {"num_normal": 40, "num_anomaly": 10, "dim": 3,
              "separation": 4.0},
    "blobs": {"num_normal": 40, "anomaly_blob_sizes": [5, 5], "dim": 3,
              "separations": [4.0, 8.0]},
    # no such file: a check that read the data first would say so
    "csv": {"path": "no/such/file.csv", "label_column": "label",
            "positive_label": "1"},
}


@settings(max_examples=EXAMPLES_OUTSIDE // 2, deadline=None,
          derandomize=True, database=None)
@given(dataset_key_and_bad_value())
def test_out_of_range_dataset_keys_fail_at_load_naming_the_key(draw):
    """Dataset keys are checked in the load stage, before any data is
    built or read."""
    kind, key, value = draw
    cfg = ScenarioConfig.from_dict({**BASE, "dataset": {
        "kind": kind, **TOY_SPECS[kind], key: value}})
    with pytest.raises(StageError) as caught:
        harness.run_scenario(cfg)
    assert caught.value.stage == "load"
    assert isinstance(caught.value.cause, ConfigError)
    assert f"dataset.{key}" in str(caught.value.cause)


def inside(name, domain, annotation):
    """Values of one setting inside its domain, at toy scale."""
    kind, many = entry_type(annotation)
    if isinstance(domain, tuple):
        if many:
            return st.lists(st.sampled_from(domain), min_size=1, max_size=3,
                            unique=True)
        return st.sampled_from(domain)
    high = min(domain.high, CAPS.get(name, math.inf))
    if kind is int:
        low = int(domain.low) + (0 if domain.low_closed else 1)
        return st.integers(low, int(high) if high < math.inf else 2**64)
    low = domain.low if domain.low > -math.inf else None
    values = st.floats(low, high if high < math.inf else None,
                       exclude_min=low is not None and not domain.low_closed,
                       exclude_max=high == domain.high < math.inf,
                       allow_infinity=False, allow_nan=False)
    return st.one_of(TYPICAL[name], values) if name in TYPICAL else values


@st.composite
def toy_configs(draw, csv_path):
    raw = {name: draw(inside(name, domain, FIELD_TYPES[name]))
           for name, domain in SETTINGS.items()}
    if raw["scheme"] != "noniid_kmeans" or draw(st.booleans()):
        raw["noniid_k"] = None
    kind = draw(st.sampled_from(sorted(DATASET_KINDS)))
    spec = {"path": str(csv_path), "label_column": "label",
            "positive_label": "1"}
    if kind != "csv":  # every key has a domain; tuples hold one per blob
        _, key_types, domains = DATASET_KINDS[kind]
        blobs = draw(st.integers(1, 2))
        spec = {}
        for key, annotation in key_types.items():
            entry, many = entry_type(annotation)
            values = inside(key, domains[key], entry)
            spec[key] = draw(st.lists(values, min_size=blobs,
                                      max_size=blobs) if many else values)
    raw["dataset"] = {"kind": kind, **spec}
    raw["hidden_dims"] = draw(st.none() | st.lists(st.integers(1, 4),
                                                   min_size=1, max_size=3))
    raw["corrupt_client_ids"] = draw(st.lists(
        st.integers(0, raw["num_clients"] - 1), max_size=3, unique=True))
    params = {}
    for tag in draw(st.lists(st.sampled_from(sorted(METHODS)), max_size=3,
                             unique=True)):
        ranges = METHODS[tag].params
        keys = draw(st.lists(st.sampled_from(sorted(ranges)), unique=True)) \
            if ranges else []
        params[tag] = {key: draw(st.none() if ranges[key].nullable
                                 and draw(st.booleans()) else inside(
                                     key, ranges[key], float))
                       for key in keys}
    raw["method_params"] = params
    raw["scenario_id"] = draw(st.text(
        st.characters(blacklist_characters=',"\r\n'), max_size=6))
    return raw


@pytest.fixture(scope="module")
def toy_csv(tmp_path_factory):
    rng = np.random.default_rng(0)
    path = tmp_path_factory.mktemp("toy") / "toy.csv"
    rows = np.column_stack([rng.normal(size=(70, 3)),
                            np.r_[np.zeros(60), np.ones(10)]])
    np.savetxt(path, rows, fmt=["%.6f"] * 3 + ["%d"], delimiter=",",
               header="a,b,c,label", comments="")
    return path


def run_toy(raw):
    return harness.run_scenario(ScenarioConfig.from_dict(raw))


def test_in_range_draws_succeed_or_exit_2(toy_csv):
    @settings(max_examples=EXAMPLES_INSIDE, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(toy_configs(toy_csv))
    def check(raw):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                cli._guard(run_toy)(raw)
            except SystemExit as exc:
                assert exc.code == 2, raw
    check()
