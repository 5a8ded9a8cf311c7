import numpy as np
import pytest

from skyshare.datasets import DatasetSpec, dataset_bound, generate, load_csv, parse_config, save_csv
from skyshare.plaintext import brute_force_skyline


def test_generation_is_deterministic():
    for kind in ("inde", "corr", "anti"):
        spec = DatasetSpec(kind=kind, n=200, m=4, seed=9, bound=500)
        a, b = generate(spec), generate(spec)
        assert a.tobytes() == b.tobytes()


def test_values_respect_bounds():
    for kind in ("inde", "corr", "anti"):
        data = generate(DatasetSpec(kind=kind, n=500, m=5, seed=2, bound=77))
        assert data.min() >= 0 and data.max() <= 77


def test_anti_rows_trade_off():
    data = generate(DatasetSpec(kind="anti", n=2000, m=3, seed=3, bound=600))
    sums = data.sum(axis=1)
    # attribute sums concentrate near the target (clipping drags the mean a
    # little below it), attributes anticorrelate
    assert 750 < float(sums.mean()) < 950
    assert float(sums.std()) < 120
    corr = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
    assert corr < -0.2


def test_corr_rows_move_together():
    data = generate(DatasetSpec(kind="corr", n=2000, m=3, seed=4, bound=600))
    corr = np.corrcoef(data[:, 0], data[:, 1])[0, 1]
    assert corr > 0.9


def test_correlated_sets_have_smaller_skylines_than_anticorrelated():
    """Averaged over seeds and queries at m=2: anticorrelated data keeps the
    most undominated rows, correlated data the fewest of the two."""
    means = {}
    for kind in ("corr", "anti", "inde"):
        counts = []
        for seed in range(3):
            data = generate(DatasetSpec(kind=kind, n=400, m=2, seed=seed, bound=500))
            rng = np.random.default_rng(100 + seed)
            for _ in range(8):
                q = rng.integers(0, 501, size=2)
                counts.append(len(brute_force_skyline(data, q)))
        means[kind] = float(np.mean(counts))
    assert means["corr"] < means["anti"]
    assert means["inde"] < means["anti"]


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        DatasetSpec(kind="weird", n=10, m=2)
    with pytest.raises(ValueError):
        DatasetSpec(kind="inde", n=0, m=2)
    with pytest.raises(ValueError):
        generate(DatasetSpec(kind="csv", n=1, m=1))  # csv without a path


def test_csv_round_trip(tmp_path):
    data = generate(DatasetSpec(kind="inde", n=50, m=3, seed=5, bound=99))
    path = str(tmp_path / "data.csv")
    save_csv(path, data)
    back, names = load_csv(path)
    assert names == ["a1", "a2", "a3"]
    assert (back == data).all()
    assert dataset_bound(back) == data.max()


def test_csv_table_walkthrough(tmp_path, table_example):
    database, _, _, _ = table_example
    path = str(tmp_path / "records.csv")
    with open(path, "w") as f:
        f.write("R,H\n15,102\n14,97\n20,99\n19,101\n")
    back, names = load_csv(path)
    assert names == ["R", "H"]
    assert (back == database).all()


def test_csv_column_subset_and_scale(tmp_path):
    path = str(tmp_path / "mix.csv")
    with open(path, "w") as f:
        f.write("name_is_first,minutes,points\n0,36.1,30.2\n0,30.0,12.8\n")
    back, names = load_csv(path, columns=["minutes", "points"], scale=10)
    assert names == ["minutes", "points"]
    assert back.tolist() == [[361, 302], [300, 128]]


def test_csv_errors_are_located(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_csv(str(empty))

    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("a,b\n1,2\n3,oops\n")
    with pytest.raises(ValueError, match=r"bad.csv:3.*'b'.*'oops'"):
        load_csv(str(bad_cell))

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1,2,3\n")
    with pytest.raises(ValueError, match="expected 2 cells"):
        load_csv(str(ragged))

    negative = tmp_path / "neg.csv"
    negative.write_text("a,b\n1,-4\n")
    with pytest.raises(ValueError, match="non-negative"):
        load_csv(str(negative))

    missing = tmp_path / "missing.csv"
    missing.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="missing columns"):
        load_csv(str(missing), columns=["a", "zz"])


def test_config_parsing(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text("# dataset\nkind = corr\nn = 40\nm=2\n\nbound = 9\n")
    assert parse_config(str(cfg)) == {"kind": "corr", "n": "40", "m": "2", "bound": "9"}
    broken = tmp_path / "broken.cfg"
    broken.write_text("kind corr\n")
    with pytest.raises(ValueError):
        parse_config(str(broken))
