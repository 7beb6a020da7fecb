import hashlib
from dataclasses import fields
from pathlib import Path

import pytest

from tramfl import ConfigError, PolicySpec, RunConfig, format_config, parse_config, parse_config_text

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


def test_round_trip_count_exchanges_once():
    cfg = parse_config_text(FULL_TEXT.replace("seed = 11\n", "seed = 11\ncount_exchanges_once = true\n"))
    assert cfg.run.count_exchanges_once is True
    assert parse_config_text(format_config(cfg)) == cfg


def test_every_run_field_has_a_config_key():
    """format_config writes every RunConfig field but the policy, which
    [policies] sets per run."""
    from tramfl.config import _RUN_FIELDS

    assert sorted(_RUN_FIELDS.values()) == sorted(f.name for f in fields(RunConfig) if f.name != "policy")


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


TABLE_TEXT = """
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


def test_table_scheme_parses_counts():
    cfg = parse_config_text(TABLE_TEXT)
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


# Pins of the config module's observable behaviour: the canonical text
# format_config writes, and the exact message of each single-fault config.

CSV_TEXT = """
[dataset]
kind = csv
train = train.csv
test = test.csv
header = true
seed = 5

[partition]
scheme = contiguous
nodes = 2
seed = 3

[learner]
layers = 3,2
eta = 0.1
batch = 4

[run]
iterations = 5
target_accuracy = 0.5

[policies]
dynamic = dynamic
ring = static:1,0
"""

CONTIGUOUS_TEXT = FULL_TEXT.replace(
    "scheme = random_k\nnodes = 3\nk_min = 1\nk_max = 2\nseed = 2", "scheme = contiguous\nnodes = 3"
)

FORMAT_SHA256 = {
    "gossip_vs_tram.cfg": "0bf04a5aeef6627466367a3be519fd391f9d3564a1e41c09cd183f8e88640774",
    "quickstart.cfg": "bba918b7b31938ff574c23f250efe25ccc3607a1597641fc741733f9f0f91793",
    "route_sweep.cfg": "102bb6e262580a26ef4bbb8605ab81d4c7cd7436ace0c4a2616b21ddb96cb3e7",
    "FULL_TEXT": "0d5f4c56db7f129374dd2ab1268fd33b1b9ed424b352091ceabec747fdb644a6",
    "EXPONENTIAL_TEXT": "4cb0842b91f23b850671969f73f0980e094b616244220c8a5c7740b5187c57cc",
    "TABLE_TEXT": "500ae9a673c88dafbd658a928300ef6d4f770f3b7019429d8b1cc72b53500128",
    "CSV_TEXT": "09427713d72c7a9d9cf7085b75bffc8169d4084f8d1ef0ad9a1d19db5bf47835",
}


@pytest.mark.parametrize("name", sorted(FORMAT_SHA256))
def test_format_config_bytes_pinned(name):
    if name.endswith(".cfg"):
        text = (CONFIGS / name).read_text()
    else:
        text = globals()[name]
    formatted = format_config(parse_config_text(text))
    assert hashlib.sha256(formatted.encode()).hexdigest() == FORMAT_SHA256[name]


# (id, base text, old, new, exact message); old must occur in the base text.
SINGLE_FAULTS = [
    # unknown key or section
    ("unknown_key", FULL_TEXT, "nodes = 3\n", "nodes = 3\nflavor = spicy\n",
     "partition.flavor: unknown key"),
    ("unknown_dataset_key", FULL_TEXT, "dims = 4\n", "dims = 4\ncolour = red\n",
     "dataset.colour: unknown key"),
    ("unknown_run_key", FULL_TEXT, "trials = 2\n", "trials = 2\nbudget = 9\n",
     "run.budget: unknown key"),
    ("unknown_section", FULL_TEXT, "[policies]", "[extras]\nx = 1\n\n[policies]",
     "unknown section [extras]"),
    ("missing_section", FULL_TEXT, "[learner]\nlayers = 4,16,4\neta = 0.05\nbatch = 8\n", "",
     "missing section [learner]"),
    ("missing_policies", FULL_TEXT, "[policies]\ndynamic = dynamic\nrandom = random\n"
     "ring = static:0,1,2\ngossip = gossip\n", "", "missing section [policies]"),
    ("empty_policies", FULL_TEXT, "dynamic = dynamic\nrandom = random\n"
     "ring = static:0,1,2\ngossip = gossip\n", "", "policies: at least one policy is required"),
    # missing required key
    ("missing_kind", FULL_TEXT, "kind = synthetic\n", "", "dataset.kind: missing required key"),
    ("missing_scheme", FULL_TEXT, "scheme = random_k\n", "",
     "partition.scheme: missing required key"),
    ("missing_nodes", FULL_TEXT, "nodes = 3\n", "", "partition.nodes: missing required key"),
    ("missing_layers", FULL_TEXT, "layers = 4,16,4\n", "", "learner.layers: missing required key"),
    ("missing_eta", FULL_TEXT, "eta = 0.05\n", "", "learner.eta: missing required key"),
    ("missing_batch", FULL_TEXT, "batch = 8\n", "", "learner.batch: missing required key"),
    ("missing_iterations", FULL_TEXT, "iterations = 300\n", "",
     "run.iterations: missing required key"),
    ("missing_classes", FULL_TEXT, "classes = 4\n", "", "dataset.classes: missing required key"),
    ("missing_dims", FULL_TEXT, "dims = 4\n", "", "dataset.dims: missing required key"),
    ("missing_per_class", FULL_TEXT, "per_class = 40\n", "",
     "dataset.per_class: missing required key"),
    ("missing_separation", FULL_TEXT, "separation = 3.0\n", "",
     "dataset.separation: missing required key"),
    ("missing_k_min", FULL_TEXT, "k_min = 1\n", "", "partition.k_min: missing required key"),
    ("missing_k_max", FULL_TEXT, "k_max = 2\n", "", "partition.k_max: missing required key"),
    ("missing_rate", EXPONENTIAL_TEXT, "rate = 1.0\n", "", "partition.rate: missing required key"),
    ("missing_counts", TABLE_TEXT, "counts = 10125,2625; 2000,4750; 375,5125\n", "",
     "partition.counts: missing required key"),
    ("missing_train", CSV_TEXT, "train = train.csv\n", "", "dataset.train: missing required key"),
    ("missing_test", CSV_TEXT, "test = test.csv\n", "", "dataset.test: missing required key"),
    # key not valid for this kind or scheme
    ("train_for_synthetic", FULL_TEXT, "dims = 4\n", "dims = 4\ntrain = a.csv\n",
     "dataset.train: not valid for kind=synthetic"),
    ("test_for_synthetic", FULL_TEXT, "dims = 4\n", "dims = 4\ntest = a.csv\n",
     "dataset.test: not valid for kind=synthetic"),
    ("header_for_synthetic", FULL_TEXT, "dims = 4\n", "dims = 4\nheader = false\n",
     "dataset.header: not valid for kind=synthetic"),
    ("classes_for_csv", CSV_TEXT, "header = true\n", "header = true\nclasses = 2\n",
     "dataset.classes: not valid for kind=csv"),
    ("test_per_class_for_csv", CSV_TEXT, "header = true\n", "header = true\ntest_per_class = 2\n",
     "dataset.test_per_class: not valid for kind=csv"),
    ("separation_for_csv", CSV_TEXT, "header = true\n", "header = true\nseparation = 2.0\n",
     "dataset.separation: not valid for kind=csv"),
    ("rate_for_random_k", FULL_TEXT, "k_max = 2\n", "k_max = 2\nrate = 1.0\n",
     "partition.rate: not valid for scheme=random_k"),
    ("k_max_for_contiguous", CONTIGUOUS_TEXT, "nodes = 3\n", "nodes = 3\nk_max = 2\n",
     "partition.k_max: not valid for scheme=contiguous"),
    ("counts_for_exponential", EXPONENTIAL_TEXT, "rate = 1.0\n", "rate = 1.0\ncounts = 1,2\n",
     "partition.counts: not valid for scheme=exponential"),
    ("k_min_for_table", TABLE_TEXT, "nodes = 3\n", "nodes = 3\nk_min = 1\n",
     "partition.k_min: not valid for scheme=table"),
    # bad type
    ("int_type", FULL_TEXT, "iterations = 300", "iterations = soon",
     "run.iterations: expected an integer, got 'soon'"),
    ("seed_type", FULL_TEXT, "seed = 11", "seed = one", "run.seed: expected an integer, got 'one'"),
    ("float_type", FULL_TEXT, "eta = 0.05", "eta = fast", "learner.eta: expected a number, got 'fast'"),
    ("float_finite", FULL_TEXT, "eta = 0.05", "eta = nan",
     "learner.eta: expected a finite number, got 'nan'"),
    ("bool_type", CSV_TEXT, "header = true", "header = maybe",
     "dataset.header: expected true or false, got 'maybe'"),
    ("int_list_type", FULL_TEXT, "layers = 4,16,4", "layers = 4,x,4",
     "learner.layers: expected comma-separated integers, got '4,x,4'"),
    ("count_table_type", TABLE_TEXT, "375,5125", "375,x",
     "partition.counts: expected comma-separated integers, got '375,x'"),
    ("empty_str", CSV_TEXT, "train = train.csv", "train =", "dataset.train: value must not be empty"),
    # range checks
    ("kind_value", CSV_TEXT, "kind = csv", "kind = image",
     "dataset.kind: expected one of ('synthetic', 'csv'), got 'image'"),
    ("classes_range", FULL_TEXT.replace("k_max = 2", "k_max = 1").replace("4,16,4", "4,16,1"),
     "classes = 4", "classes = 1", "dataset.classes: must be >= 2, got 1"),
    ("dims_range", FULL_TEXT, "dims = 4", "dims = 0", "dataset.dims: must be >= 1, got 0"),
    ("per_class_range", FULL_TEXT, "per_class = 40", "per_class = 0",
     "dataset.per_class/test_per_class: must be >= 1"),
    ("test_per_class_range", FULL_TEXT, "test_per_class = 20", "test_per_class = 0",
     "dataset.per_class/test_per_class: must be >= 1"),
    ("separation_range", FULL_TEXT, "separation = 3.0", "separation = -1.5",
     "dataset.separation: must be > 0, got -1.5"),
    ("scheme_value", CONTIGUOUS_TEXT, "scheme = contiguous", "scheme = zigzag",
     "partition.scheme: expected one of ('contiguous', 'random_k', 'exponential', 'table'), "
     "got 'zigzag'"),
    ("nodes_range", CONTIGUOUS_TEXT, "nodes = 3", "nodes = 1", "partition.nodes: must be >= 2, got 1"),
    ("k_min_range", FULL_TEXT, "k_min = 1", "k_min = 0",
     "partition.k_min: need 1 <= k_min <= k_max, got [0, 2]"),
    ("k_min_above_k_max", FULL_TEXT, "k_min = 1", "k_min = 3",
     "partition.k_min: need 1 <= k_min <= k_max, got [3, 2]"),
    ("rate_range", EXPONENTIAL_TEXT, "rate = 1.0", "rate = 0",
     "partition.rate: must be > 0, got 0.0"),
    ("counts_rows", TABLE_TEXT, "; 375,5125", "", "partition.counts: 2 rows for 3 nodes"),
    ("counts_row_width", TABLE_TEXT, "375,5125", "375,5125,1",
     "partition.counts: each row must be two nonnegative ints, got (375, 5125, 1)"),
    ("counts_negative", TABLE_TEXT, "375,5125", "-375,5125",
     "partition.counts: each row must be two nonnegative ints, got (-375, 5125)"),
    ("contiguous_nodes_fit", CONTIGUOUS_TEXT, "nodes = 3", "nodes = 5",
     "partition.nodes: 5 exceeds 4 labels"),
    ("k_max_fit", FULL_TEXT, "k_max = 2", "k_max = 5", "partition.k_max: exceeds 4 classes"),
    ("k_max_coverage", FULL_TEXT, "k_max = 2", "k_max = 1",
     "partition.k_max: coverage unattainable, 3 x 1 < 4"),
    ("two_class_scheme", FULL_TEXT, "scheme = random_k\nnodes = 3\nk_min = 1\nk_max = 2",
     "scheme = exponential\nnodes = 3\nrate = 1.0",
     "partition.scheme: exponential needs a 2-class dataset, got 4"),
    ("table_counts_fit", EXPONENTIAL_TEXT, "scheme = exponential\nnodes = 3\nrate = 1.0",
     "scheme = table\nnodes = 3\ncounts = 50,0; 0,5; 0,5",
     "partition.counts: the nodes ask for 50 samples of class 0, the training set holds 40"),
    ("layers_short", FULL_TEXT.replace("classes = 4", "classes = 2"), "layers = 4,16,4", "layers = 4",
     "learner.layers: need >= 2 positive sizes, got (4,)"),
    ("layers_zero", FULL_TEXT, "layers = 4,16,4", "layers = 4,0,4",
     "learner.layers: need >= 2 positive sizes, got (4, 0, 4)"),
    ("layers_first", FULL_TEXT, "layers = 4,16,4", "layers = 5,16,4",
     "learner.layers: first size 5 != dataset.dims 4"),
    ("layers_last", FULL_TEXT, "layers = 4,16,4", "layers = 4,16,5",
     "learner.layers: last size 5 != dataset.classes 4"),
    ("eta_range", FULL_TEXT, "eta = 0.05", "eta = -0.05", "learner.eta: must be > 0, got -0.05"),
    ("batch_range", FULL_TEXT, "batch = 8", "batch = 0", "learner.batch: must be >= 1, got 0"),
    ("iterations_range", FULL_TEXT, "iterations = 300", "iterations = 0",
     "run.iterations/interval/eval_every/trials: must be >= 1"),
    ("interval_range", FULL_TEXT, "interval = 2", "interval = 0",
     "run.iterations/interval/eval_every/trials: must be >= 1"),
    ("eval_every_range", FULL_TEXT, "eval_every = 1", "eval_every = 0",
     "run.iterations/interval/eval_every/trials: must be >= 1"),
    ("trials_range", FULL_TEXT, "trials = 2", "trials = 0",
     "run.iterations/interval/eval_every/trials: must be >= 1"),
    ("target_range", FULL_TEXT, "target_accuracy = 0.9", "target_accuracy = 0",
     "run.target_accuracy: must be in (0, 1], got 0.0"),
    ("count_exchanges_once_type", FULL_TEXT, "seed = 11\n", "seed = 11\ncount_exchanges_once = maybe\n",
     "run.count_exchanges_once: expected true or false, got 'maybe'"),
    ("iterations_below_interval", FULL_TEXT, "iterations = 300", "iterations = 1",
     "run.iterations: 1 is less than run.interval 2, so policies.dynamic (dynamic) would never "
     "send the model"),
    ("iterations_below_interval_static",
     FULL_TEXT.replace("dynamic = dynamic\nrandom = random\n", ""), "iterations = 300", "iterations = 1",
     "run.iterations: 1 is less than run.interval 2, so policies.ring (static) would never "
     "send the model"),
    ("policy_label", FULL_TEXT, "random = random", "ran.dom = random",
     "policies.ran.dom: label must match [A-Za-z0-9_-]+"),
    ("policy_kind", FULL_TEXT, "random = random", "random = clairvoyant",
     "policies.random: expected dynamic, random, gossip, static:<route>, or static:all, "
     "got 'clairvoyant'"),
    ("route_type", FULL_TEXT, "static:0,1,2", "static:0,1,x",
     "policies.ring: expected comma-separated node indices, got '0,1,x'"),
    ("route_empty", FULL_TEXT, "static:0,1,2", "static:",
     "policies.ring: expected comma-separated node indices, got ''"),
    ("route_permutation", FULL_TEXT, "static:0,1,2", "static:0,1,1",
     "policies.ring: route '0,1,1' is not a permutation of 0..2"),
    ("duplicate_label", FULL_TEXT, "random = random", "ring = random",
     "malformed config: While reading from '<string>' [line 34]: option 'ring' in section "
     "'policies' already exists"),
    ("duplicate_expanded_label", FULL_TEXT.replace("static:0,1,2", "static:all"),
     "random = random", "ring_02 = random", "policies.ring_02: duplicate policy label"),
]


@pytest.mark.parametrize("base, old, new, message",
                         [case[1:] for case in SINGLE_FAULTS], ids=[case[0] for case in SINGLE_FAULTS])
def test_single_fault_message_pinned(base, old, new, message):
    assert old in base
    with pytest.raises(ConfigError) as info:
        parse_config_text(base.replace(old, new, 1))
    assert str(info.value) == message


# (id, base text, old, new, the parsed value, expected): every range rule at
# its legal boundary. The pins above cover the reject side of each comparison.
RANGE_BOUNDARIES = [
    ("classes", FULL_TEXT.replace("4,16,4", "4,16,2"), "classes = 4", "classes = 2",
     lambda c: c.dataset.classes, 2),
    ("dims", FULL_TEXT.replace("4,16,4", "1,16,4"), "dims = 4", "dims = 1",
     lambda c: c.dataset.dims, 1),
    ("per_class", FULL_TEXT, "per_class = 40\ntest_per_class = 20",
     "per_class = 1\ntest_per_class = 1",
     lambda c: (c.dataset.per_class, c.dataset.test_per_class), (1, 1)),
    ("separation", FULL_TEXT, "separation = 3.0", "separation = 5e-324",
     lambda c: c.dataset.separation, 5e-324),
    ("dataset_seed", FULL_TEXT, "seed = 1\n", "seed = 0\n", lambda c: c.dataset.seed, 0),
    ("nodes", FULL_TEXT.replace("static:0,1,2", "static:1,0"), "nodes = 3", "nodes = 2",
     lambda c: c.partition.nodes, 2),
    ("rate", EXPONENTIAL_TEXT, "rate = 1.0", "rate = 5e-324", lambda c: c.partition.rate, 5e-324),
    ("partition_seed", FULL_TEXT, "seed = 2\n", "seed = 0\n", lambda c: c.partition.seed, 0),
    ("eta", FULL_TEXT, "eta = 0.05", "eta = 5e-324", lambda c: c.run.learning_rate, 5e-324),
    ("batch", FULL_TEXT, "batch = 8", "batch = 1", lambda c: c.run.batch_size, 1),
    ("iterations", FULL_TEXT.replace("interval = 2", "interval = 1"), "iterations = 300",
     "iterations = 1", lambda c: c.run.max_iterations, 1),
    ("iterations_at_interval", FULL_TEXT, "iterations = 300", "iterations = 2",
     lambda c: c.run.max_iterations, 2),
    ("iterations_below_interval_gossip_only",
     FULL_TEXT.replace("dynamic = dynamic\nrandom = random\nring = static:0,1,2\n", ""),
     "iterations = 300", "iterations = 1", lambda c: c.run.max_iterations, 1),
    ("interval", FULL_TEXT, "interval = 2", "interval = 1", lambda c: c.run.interval, 1),
    ("eval_every", FULL_TEXT.replace("eval_every = 1", "eval_every = 3"), "eval_every = 3",
     "eval_every = 1", lambda c: c.run.eval_every, 1),
    ("trials", FULL_TEXT, "trials = 2", "trials = 1", lambda c: c.trials, 1),
    ("target_accuracy", FULL_TEXT, "target_accuracy = 0.9", "target_accuracy = 1.0",
     lambda c: c.run.target_accuracy, 1.0),
    ("run_seed", FULL_TEXT, "seed = 11", "seed = 0", lambda c: c.run.seed, 0),
]


@pytest.mark.parametrize("base, old, new, value, expected",
                         [case[1:] for case in RANGE_BOUNDARIES],
                         ids=[case[0] for case in RANGE_BOUNDARIES])
def test_range_boundaries_accepted(base, old, new, value, expected):
    assert old in base
    cfg = parse_config_text(base.replace(old, new, 1))
    assert value(cfg) == expected
    assert parse_config_text(format_config(cfg)) == cfg
