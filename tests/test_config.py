from pathlib import Path

import pytest

from tramfl import ConfigError, PolicySpec, format_config, parse_config, parse_config_text

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parents[1] / "configs"

FULL_TEXT = """
[dataset]
kind = synthetic
classes = 4
dims = 4
per_class = 40
test_per_class = 20
separation = 3.0
seed = 1

[partition]
scheme = random_k
nodes = 3
k_min = 1
k_max = 2
seed = 2

[learner]
layers = 4,16,4
eta = 0.05
batch = 8

[run]
iterations = 300
interval = 2
eval_every = 1
target_accuracy = 0.9
trials = 2
seed = 11

[policies]
dynamic = dynamic
random = random
ring = static:0,1,2
gossip = gossip
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(DATA / "valid_minimal.cfg")
    assert cfg.run.eval_every == 1
    assert cfg.trials == 1
    assert cfg.run.interval == 1
    assert cfg.run.seed == 0
    assert cfg.run.target_accuracy is None
    assert cfg.dataset.test_per_class == cfg.dataset.per_class
    assert cfg.policies == (("dynamic", PolicySpec("dynamic")),)


def test_every_repo_config_parses():
    paths = sorted(CONFIGS.glob("*.cfg"))
    assert paths, "no example configs found"
    for path in paths:
        cfg = parse_config(path)
        assert cfg.policies


def test_full_config_parses():
    cfg = parse_config_text(FULL_TEXT)
    assert cfg.partition.scheme == "random_k"
    assert cfg.run.arch.layer_sizes == (4, 16, 4)
    assert dict(cfg.policies)["ring"] == PolicySpec("static", (0, 1, 2))


@pytest.mark.parametrize(
    "fixture,needle",
    [
        ("invalid_not_permutation.cfg", "not a permutation"),
        ("invalid_unknown_key.cfg", "partition.flavor"),
        ("invalid_missing_key.cfg", "learner.eta"),
        ("invalid_bad_type.cfg", "run.iterations"),
        ("invalid_layer_mismatch.cfg", "learner.layers"),
    ],
)
def test_invalid_fixture_names_field(fixture, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(DATA / fixture)


def test_round_trip_repo_configs():
    for path in sorted(CONFIGS.glob("*.cfg")):
        cfg = parse_config(path)
        assert parse_config_text(format_config(cfg)) == cfg


def test_round_trip_full_config():
    cfg = parse_config_text(FULL_TEXT)
    assert parse_config_text(format_config(cfg)) == cfg


def _patched(needle, replacement):
    assert needle in FULL_TEXT
    return FULL_TEXT.replace(needle, replacement)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[extras\]"):
        parse_config_text(FULL_TEXT + "\n[extras]\nx = 1\n")


def test_missing_section_rejected():
    text = "\n".join(
        line for line in FULL_TEXT.splitlines() if line not in ("[learner]", "layers = 4,16,4", "eta = 0.05", "batch = 8")
    )
    with pytest.raises(ConfigError, match=r"\[learner\]"):
        parse_config_text(text)


def test_unknown_policy_kind():
    with pytest.raises(ConfigError, match="policies.dynamic"):
        parse_config_text(_patched("dynamic = dynamic", "dynamic = clairvoyant"))


def test_route_must_match_node_count():
    with pytest.raises(ConfigError, match="not a permutation"):
        parse_config_text(_patched("ring = static:0,1,2", "ring = static:0,1,2,3"))


def test_nodes_lower_bound():
    with pytest.raises(ConfigError, match="partition.nodes"):
        parse_config_text(_patched("nodes = 3", "nodes = 1"))


def test_random_k_range_checked():
    with pytest.raises(ConfigError, match="partition.k_min"):
        parse_config_text(_patched("k_min = 1", "k_min = 3"))


def test_random_k_coverage_checked():
    bad = _patched("k_min = 1\nk_max = 2", "k_min = 1\nk_max = 1")
    with pytest.raises(ConfigError, match="coverage"):
        parse_config_text(bad)


def test_target_accuracy_range():
    with pytest.raises(ConfigError, match="run.target_accuracy"):
        parse_config_text(_patched("target_accuracy = 0.9", "target_accuracy = 1.5"))


EXPONENTIAL_TEXT = (
    FULL_TEXT.replace("classes = 4", "classes = 2")
    .replace("scheme = random_k\nnodes = 3\nk_min = 1\nk_max = 2", "scheme = exponential\nnodes = 3\nrate = 1.0")
    .replace("layers = 4,16,4", "layers = 4,16,2")
)


@pytest.mark.parametrize("key, largest", [
    ("dataset.separation", "1e308"),
    ("partition.rate", "1e308"),
    ("learner.eta", "1e308"),
    ("run.target_accuracy", "1"),
])
def test_non_finite_float_rejected(key, largest):
    text = EXPONENTIAL_TEXT if key == "partition.rate" else FULL_TEXT
    name = key.split(".")[1]
    line = next(line for line in text.splitlines() if line.startswith(f"{name} = "))
    parse_config_text(text.replace(line, f"{name} = {largest}"))
    for raw in ("inf", "-inf", "nan", "Infinity"):
        with pytest.raises(ConfigError, match=f"{key}: expected a finite number"):
            parse_config_text(text.replace(line, f"{name} = {raw}"))


def test_scheme_key_crosstalk_rejected():
    with pytest.raises(ConfigError, match="partition.k_min"):
        parse_config_text(_patched("scheme = random_k", "scheme = contiguous"))


def test_exponential_needs_two_classes():
    text = _patched("scheme = random_k\nnodes = 3\nk_min = 1\nk_max = 2",
                    "scheme = exponential\nnodes = 3\nrate = 1.0")
    with pytest.raises(ConfigError, match="2-class"):
        parse_config_text(text)


def test_table_scheme_parses_counts():
    text = """
[dataset]
kind = csv
train = train.csv
test = test.csv

[partition]
scheme = table
nodes = 3
counts = 10125,2625; 2000,4750; 375,5125

[learner]
layers = 4,2
eta = 0.1
batch = 8

[run]
iterations = 10

[policies]
dynamic = dynamic
"""
    cfg = parse_config_text(text)
    assert cfg.partition.counts == ((10125, 2625), (2000, 4750), (375, 5125))
    assert parse_config_text(format_config(cfg)) == cfg


def test_static_all_expands_lexicographically():
    text = _patched("ring = static:0,1,2", "sweep = static:all")
    cfg = parse_config_text(text)
    sweep = [(label, spec) for label, spec in cfg.policies if label.startswith("sweep")]
    assert len(sweep) == 2  # (3-1)! routes
    assert sweep[0] == ("sweep_01", PolicySpec("static", (0, 1, 2)))
    assert sweep[1] == ("sweep_02", PolicySpec("static", (0, 2, 1)))


def test_duplicate_policy_labels_rejected():
    text = _patched("random = random", "ring_01 = random")
    text = text.replace("ring = static:0,1,2", "ring = static:all")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(text)


def test_bool_parsing():
    text = """
[dataset]
kind = csv
train = a.csv
test = b.csv
header = true

[partition]
scheme = contiguous
nodes = 2

[learner]
layers = 3,2
eta = 0.1
batch = 4

[run]
iterations = 5

[policies]
dynamic = dynamic
"""
    assert parse_config_text(text).dataset.header is True
    with pytest.raises(ConfigError, match="dataset.header"):
        parse_config_text(text.replace("header = true", "header = maybe"))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(tmp_path / "nope.cfg")
