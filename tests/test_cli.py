"""CLI tests (in-process main() invocation)."""

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import write_ply


def test_datasets_list(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "KITTI-12M" in out and "Buddha-4.6M" in out


def test_datasets_generate(tmp_path, capsys):
    out = tmp_path / "bunny.ply"
    assert main(["datasets", "--generate", "Bunny-360K", "--scale", "0.02",
                 "--out", str(out)]) == 0
    from repro.datasets import read_ply

    pts = read_ply(out)
    assert len(pts) >= 16


def test_datasets_generate_requires_out():
    with pytest.raises(SystemExit):
        main(["datasets", "--generate", "Bunny-360K"])


def test_search_registry(capsys):
    assert main(["search", "--dataset", "Bunny-360K", "--scale", "0.05",
                 "--mode", "range", "-k", "8"]) == 0
    out = capsys.readouterr().out
    assert "modeled GPU time" in out
    assert "range search" in out


def test_search_from_file_with_output(tmp_path, capsys):
    pts = np.random.default_rng(0).random((300, 3))
    f = tmp_path / "c.ply"
    write_ply(f, pts)
    res = tmp_path / "res.npz"
    assert main(["search", "--points", str(f), "--mode", "knn", "-k", "3",
                 "-r", "0.2", "--out", str(res), "--device", "RTX 2080 Ti",
                 "--no-partition"]) == 0
    data = np.load(res)
    assert data["indices"].shape == (300, 3)
    assert "RTX 2080 Ti" in capsys.readouterr().out


def test_search_repeat_reports_cache(capsys):
    assert main(["search", "--dataset", "Bunny-360K", "--scale", "0.05",
                 "--mode", "knn", "-k", "4", "--repeat", "3"]) == 0
    out = capsys.readouterr().out
    assert "batches: 3" in out
    assert "gas cache:" in out
    assert "misses" in out


def test_search_rejects_unknown_extension(tmp_path):
    f = tmp_path / "c.csv"
    f.write_text("1,2,3\n")
    with pytest.raises(SystemExit):
        main(["search", "--points", str(f)])


def test_experiments_unknown_section():
    with pytest.raises(SystemExit):
        main(["experiments", "--only", "fig99"])


def test_search_missing_points_file_exits_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["search", "--points", "/nonexistent/cloud.ply"])
    assert ei.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:")
    assert "--points" in err and "/nonexistent/cloud.ply" in err
    assert err.count("\n") == 1  # exactly one line


def test_search_missing_queries_file_exits_2(tmp_path, capsys):
    pts = np.random.default_rng(0).random((50, 3))
    f = tmp_path / "c.ply"
    write_ply(f, pts)
    with pytest.raises(SystemExit) as ei:
        main(["search", "--points", str(f), "--queries", str(tmp_path / "q.ply")])
    assert ei.value.code == 2
    assert "--queries" in capsys.readouterr().err


def test_search_invalid_scalars_exit_2(tmp_path, capsys):
    pts = np.random.default_rng(0).random((50, 3))
    f = tmp_path / "c.ply"
    write_ply(f, pts)
    for argv, needle in [
        (["search", "--points", str(f), "-k", "0"], "-k"),
        (["search", "--points", str(f), "-r", "-0.5"], "--radius"),
        (["search", "--points", str(f), "--repeat", "0"], "--repeat"),
    ]:
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
        assert needle in capsys.readouterr().err


def test_search_and_serve_share_one_validation_contract(tmp_path, capsys):
    # Satellite of the true-knn PR: k=0, radius=0.0 and negative radius
    # must exit 2 with one line on stderr naming the flag, identically
    # for `repro search` and `repro serve` (repro.api and the engine
    # raise the matching ValueError — see test_true_knn.py).
    pts = np.random.default_rng(0).random((50, 3))
    f = tmp_path / "c.ply"
    write_ply(f, pts)
    cases = [
        (["-k", "0"], "-k"),
        (["-r", "0.0"], "--radius"),
        (["-r", "-0.5"], "--radius"),
    ]
    for command in ("search", "serve"):
        for extra, needle in cases:
            with pytest.raises(SystemExit) as ei:
                main([command, "--points", str(f), *extra])
            assert ei.value.code == 2, (command, extra)
            err = capsys.readouterr().err
            assert err.startswith("repro: error:"), (command, extra)
            assert needle in err, (command, extra)
            assert err.count("\n") == 1, (command, extra)


def test_search_true_knn_mode(tmp_path, capsys):
    pts = np.random.default_rng(3).random((250, 3))
    f = tmp_path / "c.ply"
    write_ply(f, pts)
    out_npz = tmp_path / "res.npz"
    assert main(["search", "--points", str(f), "--mode", "true-knn",
                 "-k", "5", "--out", str(out_npz)]) == 0
    out = capsys.readouterr().out
    assert "true-knn search" in out
    assert "r0=" in out and "(seeded)" in out
    assert "expansion:" in out and "converged" in out
    data = np.load(out_npz)
    # Unbounded exact kNN over n > k points: every row is full.
    assert (np.sort(data["counts"]) == 5).all()
    assert (data["indices"] >= 0).all()


def test_serve_rejects_nonpositive_load(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["serve", "--dataset", "Bunny-360K", "--scale", "0.03",
              "--rps", "0"])
    assert ei.value.code == 2
    assert "rps" in capsys.readouterr().err


def test_serve_smoke_under_synthetic_load(capsys):
    assert main(["serve", "--dataset", "Bunny-360K", "--scale", "0.03",
                 "--mode", "knn", "-k", "4", "--rps", "250", "--clients", "3",
                 "--duration", "0.6", "--window-ms", "20", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert ", 0 rejected, 0 expired," in out
    assert "occupancy" in out
    assert "latency: p50" in out
