"""Dataset generation, CSV ingestion, split, and scaler tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simmering import data
from simmering.data import (
    Dataset,
    ScalerParams,
    TableSchema,
    gen_noisy_sine,
    load_builtin,
    load_csv,
    load_schema,
    minmax_fit,
    scale_features,
    scale_targets,
    schema_from_dict,
    split,
    unscale_targets,
)


# ------------------------------------------------------------ noisy sine


def test_noiseless_sine_is_exact():
    ds = gen_noisy_sine(n_points=101, noise_amp=0.0, seed=3)
    assert np.array_equal(ds.targets, np.sin(2.0 * np.pi * ds.features))
    assert ds.task == "regression"


def test_sine_grid_spacing_and_endpoints():
    ds = gen_noisy_sine(n_points=101, noise_amp=0.1, seed=0)
    x = ds.features[:, 0]
    assert x[0] == -1.0 and x[-1] == 1.0
    assert np.allclose(np.diff(x), 0.02, rtol=0, atol=1e-15)
    assert ds.features.shape == (101, 1) and ds.targets.shape == (101, 1)


def test_sine_noise_variance_monte_carlo():
    ds = gen_noisy_sine(n_points=100_000, noise_amp=0.1, seed=11)
    residual = ds.targets - np.sin(2.0 * np.pi * ds.features)
    assert abs(residual.var() - 0.01) < 0.0005  # 5% of 0.01


def test_sine_seed_determinism_and_independence():
    a = gen_noisy_sine(101, 0.1, seed=5)
    b = gen_noisy_sine(101, 0.1, seed=5)
    c = gen_noisy_sine(101, 0.1, seed=6)
    assert np.array_equal(a.targets, b.targets)
    assert not np.array_equal(a.targets, c.targets)
    assert np.array_equal(a.features, c.features)  # noiseless part shared


def test_sine_rejects_single_point():
    with pytest.raises(ValueError):
        gen_noisy_sine(n_points=1, noise_amp=0.1, seed=0)


# ------------------------------------------------------------ dataset type


def test_dataset_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(np.array([[np.nan]]), np.array([[1.0]]), ("a",), ("b",), "regression")


def test_dataset_rejects_sloppy_one_hot():
    feats = np.zeros((2, 1))
    with pytest.raises(ValueError, match="one-hot"):
        Dataset(feats, np.array([[0.5, 0.5], [1.0, 0.0]]), ("a",), ("p", "q"), "classification")
    with pytest.raises(ValueError, match="one-hot"):
        Dataset(feats, np.array([[1.0, 1.0], [1.0, 0.0]]), ("a",), ("p", "q"), "classification")


def test_dataset_rejects_mismatched_names():
    with pytest.raises(ValueError, match="feature_names"):
        Dataset(np.zeros((2, 2)), np.zeros((2, 1)), ("a",), ("y",), "regression")


# ------------------------------------------------------------ schemas


def test_schema_round_trip_and_defaults():
    schema = schema_from_dict({"task": "regression", "features": ["a", "b"], "target": "y"})
    assert schema.features == ("a", "b")
    assert schema.missing_markers == ("?", "")


@pytest.mark.parametrize(
    "raw, fragment",
    [
        ({"task": "clustering", "features": ["a"], "target": "y"}, "task"),
        ({"task": "regression", "features": [], "target": "y"}, "at least one"),
        ({"task": "regression", "features": ["a", "a"], "target": "y"}, "unique"),
        ({"task": "regression", "features": ["y"], "target": "y"}, "also listed"),
        ({"task": "regression", "features": ["a"], "target": "y", "bogus": 1}, "unknown schema keys"),
        ({"features": ["a"], "target": "y"}, "missing required"),
    ],
)
def test_schema_validation_errors(raw, fragment):
    with pytest.raises(ValueError, match=fragment):
        schema_from_dict(raw)


def test_load_schema_reports_bad_json(tmp_path):
    bad = tmp_path / "s.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_schema(bad)


# ------------------------------------------------------------ CSV loading


def _write(tmp_path, text):
    p = tmp_path / "t.csv"
    p.write_text(text)
    return p


def test_load_csv_regression_round_trip(tmp_path):
    p = _write(tmp_path, "x,y\n1.5,2.0\n-0.25,4.0\n")
    ds = load_csv(p, TableSchema("regression", ("x",), "y"))
    assert np.array_equal(ds.features, [[1.5], [-0.25]])
    assert np.array_equal(ds.targets, [[2.0], [4.0]])
    assert ds.feature_names == ("x",) and ds.target_names == ("y",)


def test_load_csv_drops_missing_marker_rows(tmp_path):
    p = _write(tmp_path, "x,y\n1,2\n?,3\n4, ? \n5,6\n")
    ds = load_csv(p, TableSchema("regression", ("x",), "y"))
    assert ds.n_samples == 2  # markers dropped even with stray spaces
    assert np.array_equal(ds.features[:, 0], [1.0, 5.0])


def test_load_csv_ignores_markers_in_unused_columns(tmp_path):
    p = _write(tmp_path, "x,junk,y\n1,?,2\n3,?,4\n")
    ds = load_csv(p, TableSchema("regression", ("x",), "y"))
    assert ds.n_samples == 2


def test_load_csv_unparsable_cell_names_row_and_column(tmp_path):
    p = _write(tmp_path, "x,y\n1,2\nabc,3\n")
    with pytest.raises(ValueError, match=r"row 3.*'abc'.*'x'"):
        load_csv(p, TableSchema("regression", ("x",), "y"))


def test_load_csv_unknown_column(tmp_path):
    p = _write(tmp_path, "x,y\n1,2\n")
    with pytest.raises(ValueError, match="not in header"):
        load_csv(p, TableSchema("regression", ("z",), "y"))


def test_load_csv_short_row(tmp_path):
    p = _write(tmp_path, "x,y\n1,2\n3\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(p, TableSchema("regression", ("x",), "y"))


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv", TableSchema("regression", ("x",), "y"))


def test_load_csv_all_rows_dropped(tmp_path):
    p = _write(tmp_path, "x,y\n?,1\n?,2\n")
    with pytest.raises(ValueError, match="no usable rows"):
        load_csv(p, TableSchema("regression", ("x",), "y"))


def test_classification_one_hot_by_sorted_label(tmp_path):
    p = _write(tmp_path, "x,label\n1,zebra\n2,ant\n3,zebra\n")
    ds = load_csv(p, TableSchema("classification", ("x",), "label"))
    assert ds.target_names == ("ant", "zebra")
    assert np.array_equal(ds.targets, [[0, 1], [1, 0], [0, 1]])


# ------------------------------------------------------------ builtins


def test_builtin_iris_shape():
    ds = load_builtin("iris")
    assert ds.n_samples == 150
    assert ds.task == "classification"
    assert ds.feature_names == ("sepal_width", "petal_width")
    assert ds.target_names == ("setosa", "versicolor", "virginica")
    assert np.array_equal(ds.targets.sum(axis=0), [50, 50, 50])
    # spot-check the first measurement row of the classic table
    assert np.array_equal(ds.features[0], [3.5, 0.2])


def test_builtin_auto_mpg_variants():
    single = load_builtin("auto_mpg_s")
    multi = load_builtin("auto_mpg_m")
    # 398 raw rows, 6 with a missing-horsepower marker
    assert single.n_samples == 392 and multi.n_samples == 392
    assert single.feature_names == ("horsepower",)
    assert multi.feature_names == (
        "cylinders", "displacement", "horsepower", "weight", "acceleration", "model_year",
    )
    assert single.task == "regression" and multi.task == "regression"
    mpg = single.targets[:, 0]
    assert 9.0 <= mpg.min() and mpg.max() <= 47.0
    hp = single.features[:, 0]
    assert 40.0 <= hp.min() and hp.max() <= 235.0


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="unknown builtin"):
        load_builtin("mnist")


# ------------------------------------------------------------ splitting


def test_split_iris_counts():
    ds = load_builtin("iris")
    sp = split(ds, n_train=112, seed=4)
    assert sp.train_indices.size == 112 and sp.test_indices.size == 38


@given(st.integers(min_value=3, max_value=40), st.integers(min_value=0, max_value=50))
@settings(max_examples=30, deadline=None)
def test_split_disjoint_and_covering(n, seed):
    ds = gen_noisy_sine(n_points=n, noise_amp=0.0, seed=0)
    n_train = max(1, n // 2)
    sp = split(ds, n_train=n_train, seed=seed)
    merged = np.sort(np.concatenate([sp.train_indices, sp.test_indices]))
    assert np.array_equal(merged, np.arange(n))


def test_split_single_test_row():
    ds = gen_noisy_sine(10, 0.0, 0)
    sp = split(ds, n_train=9, seed=1)
    assert sp.test_indices.size == 1


def test_split_seed_determinism():
    ds = gen_noisy_sine(30, 0.1, 0)
    a = split(ds, 20, seed=9)
    b = split(ds, 20, seed=9)
    c = split(ds, 20, seed=10)
    assert np.array_equal(a.train_indices, b.train_indices)
    assert not np.array_equal(a.train_indices, c.train_indices)


def test_split_bounds_checked():
    ds = gen_noisy_sine(10, 0.0, 0)
    for bad in (0, 10, 11, -1):
        with pytest.raises(ValueError):
            split(ds, n_train=bad, seed=0)


def test_split_type_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        data.Split(np.array([0, 1]), np.array([1, 2]))


def test_overlap_error_names_the_first_five_shared_indices_sorted():
    train = np.array([9, 3, 7, 0, 5, 8, 1, 3])
    test = np.array([8, 2, 9, 7, 7, 5, 3, 1, 0])
    with pytest.raises(ValueError) as err:
        data.Split(train, test)
    assert str(err.value) == "train and test indices overlap: [0 1 3 5 7]"


ROOT = Path(__file__).resolve().parents[1]


def test_preparing_any_dataset_leaves_out_numpy_ma():
    # np.intersect1d (and np.unique) import numpy.ma, which costs a stage
    # about 13 ms and 1 MiB at start-up; the split needs neither
    code = (
        "import sys, numpy\n"
        "if 'numpy.ma' in sys.modules:\n"
        "    print('numpy loads numpy.ma'); raise SystemExit\n"
        "from simmering import config, runner\n"
        "for path in sys.argv[1:]:\n"
        "    runner.prepare_data(config.load_config(path))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    configs = sorted(str(p) for p in (ROOT / "configs").glob("*.json"))
    kinds = " ".join(Path(p).read_text() for p in configs)
    for dataset in ("noisy_sine", "builtin:iris", "builtin:auto_mpg_s", "builtin:auto_mpg_m"):
        assert dataset in kinds
    result = subprocess.run(
        [sys.executable, "-c", code, *configs],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    )
    if result.stdout.strip() == "numpy loads numpy.ma":
        pytest.skip("importing numpy alone loads numpy.ma here")
    assert result.stdout.strip() == "[]"


# ------------------------------------------------------------ scaling


def _toy_regression():
    feats = np.array([[0.0, 5.0], [10.0, 7.0], [4.0, 6.0], [2.0, 5.5]])
    targs = np.array([[1.0], [3.0], [2.0], [1.5]])
    ds = Dataset(feats, targs, ("a", "b"), ("y",), "regression")
    sp = data.Split(np.array([0, 1]), np.array([2, 3]))
    return ds, sp


def test_minmax_train_bounds_map_to_unit_interval():
    ds, sp = _toy_regression()
    scaler = minmax_fit(ds, sp)
    scaled = scale_features(scaler, ds.features[sp.train_indices])
    assert scaled.min() == -1.0 and scaled.max() == 1.0
    # feature a: train range [0, 10], midpoint 5 -> 0
    assert scale_features(scaler, np.array([[5.0, 5.0]]))[0, 0] == 0.0


def test_minmax_no_clamping_outside_train_range():
    ds, sp = _toy_regression()
    scaler = minmax_fit(ds, sp)
    out = scale_features(scaler, np.array([[20.0, 9.0]]))
    assert out[0, 0] > 1.0 and out[0, 1] > 1.0


def test_minmax_fit_uses_train_rows_only():
    ds, sp = _toy_regression()
    scaler = minmax_fit(ds, sp)
    assert np.array_equal(scaler.feature_min, [0.0, 5.0])
    assert np.array_equal(scaler.feature_max, [10.0, 7.0])
    assert np.array_equal(scaler.target_min, [1.0])
    assert np.array_equal(scaler.target_max, [3.0])


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_minmax_invert_is_inverse(value):
    scaler = ScalerParams(np.array([-3.0]), np.array([17.0]), np.array([0.5]), np.array([9.5]))
    x = np.array([[value]])
    assert np.allclose(unscale_targets(scaler, scale_targets(scaler, x)), x, rtol=1e-12, atol=1e-9)


def test_constant_feature_is_an_error_naming_it():
    feats = np.array([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]])
    ds = Dataset(feats, np.array([[1.0], [2.0], [3.0]]), ("flat", "ok"), ("y",), "regression")
    sp = data.Split(np.array([0, 1]), np.array([2]))
    with pytest.raises(ValueError, match="flat"):
        minmax_fit(ds, sp)


def test_classification_targets_pass_through_scaling():
    ds = load_builtin("iris")
    sp = split(ds, 112, seed=0)
    scaler = minmax_fit(ds, sp)
    assert not scaler.scales_targets
    assert np.array_equal(scale_targets(scaler, ds.targets), ds.targets)
    assert np.array_equal(unscale_targets(scaler, ds.targets), ds.targets)
    train_rows = scale_features(scaler, ds.features[sp.train_indices])
    assert train_rows.min() == -1.0 and train_rows.max() == 1.0


def test_minmax_apply_scales_regression_targets():
    ds, sp = _toy_regression()
    scaler = minmax_fit(ds, sp)
    # train rows 0 and 1 hold the target bounds 1.0 and 3.0
    targets = scale_targets(scaler, ds.targets)
    assert targets[0, 0] == -1.0 and targets[1, 0] == 1.0


def test_scaler_width_mismatch():
    scaler = ScalerParams(np.array([0.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="width"):
        scale_features(scaler, np.zeros((2, 3)))
