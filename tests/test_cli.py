"""Command-line harness: file outputs, CSV schemas, determinism."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import trtc.cli
import trtc.solvers
from trtc.cli import main, synth_instance, run_sweep, run_bench
from trtc import read_tensor, reconstruct, write_tensor


def read_csv(path):
    with open(path) as f:
        lines = f.read().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    rows = list(csv.reader(l for l in lines if not l.startswith("#")))
    return comments, rows[0], rows[1:]


def test_synth_instance_deterministic_and_floor_count():
    t1, m1 = synth_instance((6, 6, 6), (2, 2, 2), 0.37, 5)
    t2, m2 = synth_instance((6, 6, 6), (2, 2, 2), 0.37, 5)
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(m1, m2)
    assert (~m1).sum() == int(np.floor(0.37 * 216))
    t3, _ = synth_instance((6, 6, 6), (2, 2, 2), 0.37, 6)
    assert not np.array_equal(t1, t3)


def test_synth_zero_missing_rate(tmp_path):
    main(["synth", "--shape", "5,5,5", "--rank", "2,2,2", "--missing-rate", "0",
          "--seed", "0", "--out", f"{tmp_path}/full"])
    obs, mask = read_tensor(f"{tmp_path}/full_observed.trtc")
    assert mask.all()
    assert not np.isnan(obs).any()


def test_synth_exact_missing_count(tmp_path):
    main(["synth", "--shape", "10,10,10,10", "--rank", "4,5,4,5",
          "--missing-rate", "0.9", "--seed", "0", "--out", f"{tmp_path}/s"])
    obs, mask = read_tensor(f"{tmp_path}/s_observed.trtc")
    assert int(np.isnan(obs).sum()) == 9000
    truth, tmask = read_tensor(f"{tmp_path}/s_truth.trtc", require_complete=True)
    assert tmask.all()
    np.testing.assert_array_equal(obs[mask], truth[mask])


def test_synth_same_seed_byte_identical(tmp_path):
    args = ["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--missing-rate", "0.5",
            "--seed", "7"]
    main(args + ["--out", f"{tmp_path}/a"])
    main(args + ["--out", f"{tmp_path}/b"])
    for suffix in ("_truth.trtc", "_observed.trtc"):
        a = (tmp_path / f"a{suffix}").read_bytes()
        b = (tmp_path / f"b{suffix}").read_bytes()
        assert a == b


def test_complete_recovers_order4_instance(tmp_path):
    main(["synth", "--shape", "10,10,10,10", "--rank", "4,5,4,5",
          "--missing-rate", "0.5", "--seed", "0", "--out", f"{tmp_path}/d"])
    main(["complete", "--in", f"{tmp_path}/d_observed.trtc",
          "--truth", f"{tmp_path}/d_truth.trtc", "--solver", "llrf",
          "--rank", "4,5,4,5", "--out", f"{tmp_path}/fit"])
    comments, header, rows = read_csv(f"{tmp_path}/fit.csv")
    assert comments == ["# trtc-complete v1"]
    assert header == ["solver", "shape", "ranks", "missing_rate", "lambda",
                      "iterations", "converged", "rse_all", "rse_missing", "wall_time_s"]
    row = dict(zip(header, rows[0]))
    assert row["solver"] == "llrf"
    assert row["converged"] == "True"
    assert float(row["rse_missing"]) < 1e-2

    # the written cores reproduce the completed tensor exactly off the mask
    done, _ = read_tensor(f"{tmp_path}/fit_completed.trtc")
    obs, mask = read_tensor(f"{tmp_path}/d_observed.trtc")
    cores = [read_tensor(f"{tmp_path}/fit_core{k}.trtc")[0] for k in range(1, 5)]
    z = reconstruct(cores)
    assert np.array_equal(z[~mask], done[~mask])
    assert np.array_equal(done[mask], obs[mask])


def test_complete_fully_observed_reports_zero_rse(tmp_path):
    main(["synth", "--shape", "6,6,6", "--rank", "2,2,2", "--missing-rate", "0",
          "--seed", "1", "--out", f"{tmp_path}/f"])
    main(["complete", "--in", f"{tmp_path}/f_observed.trtc",
          "--truth", f"{tmp_path}/f_truth.trtc", "--solver", "olrf",
          "--rank", "2,2,2", "--out", f"{tmp_path}/ffit"])
    _, header, rows = read_csv(f"{tmp_path}/ffit.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["rse_all"]) == 0.0
    assert row["iterations"] == "1"
    assert row["rse_missing"] == ""


def test_complete_reshape_path(tmp_path):
    main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--missing-rate", "0.3",
          "--seed", "2", "--out", f"{tmp_path}/r"])
    main(["complete", "--in", f"{tmp_path}/r_observed.trtc",
          "--truth", f"{tmp_path}/r_truth.trtc", "--solver", "llrf",
          "--rank", "2,2,2,2,2", "--reshape", "2,2,4,2,2", "--max-iters", "300",
          "--out", f"{tmp_path}/rfit"])
    done, _ = read_tensor(f"{tmp_path}/rfit_completed.trtc")
    assert done.shape == (2, 2, 4, 2, 2)
    _, header, rows = read_csv(f"{tmp_path}/rfit.csv")
    row = dict(zip(header, rows[0]))
    assert row["shape"] == "2x2x4x2x2"
    assert len([f for f in tmp_path.iterdir() if f.name.startswith("rfit_core")]) == 5


def test_complete_reshape_product_mismatch_fails(tmp_path):
    main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--missing-rate", "0.3",
          "--seed", "2", "--out", f"{tmp_path}/m"])
    with pytest.raises(SystemExit):
        main(["complete", "--in", f"{tmp_path}/m_observed.trtc", "--solver", "llrf",
              "--rank", "2,2", "--reshape", "5,13", "--out", f"{tmp_path}/mfit"])


@pytest.mark.parametrize("extents", [
    "7,7905747460161236416",  # int64 product wraps to 64, the file's size
    "-2,-32",  # product 64, but no extent may be below 1
])
def test_complete_reshape_rejects_bad_extents(tmp_path, extents):
    main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--missing-rate", "0.3",
          "--seed", "2", "--out", f"{tmp_path}/m"])
    with pytest.raises(SystemExit, match="reshape"):
        main(["complete", "--in", f"{tmp_path}/m_observed.trtc", "--solver", "llrf",
              "--rank", "2,2", f"--reshape={extents}", "--out", f"{tmp_path}/mfit"])


@pytest.mark.parametrize("argv,message", [
    (["--shape", "4,4,4", "--rank", "2,2"], "rank vector of length 2"),
    (["--shape=-2,3", "--rank", "2,2"], "extent below 1"),
    (["--shape", "4,4,4", "--rank", "2,0,2"], "ranks must be positive"),
    (["--shape", "4,4,4", "--rank", "2,2,2", "--missing-rate", "1.0"], r"missing rate must be in \[0, 1\)"),
    (["--shape", "4,4,4", "--rank", "2,2,2", "--missing-rate=-0.1"], r"missing rate must be in \[0, 1\)"),
])
def test_synth_bad_shape_or_rank_exits_with_message(tmp_path, argv, message):
    with pytest.raises(SystemExit, match=message):
        main(["synth", *argv, "--out", f"{tmp_path}/bad"])
    assert list(tmp_path.iterdir()) == []


def test_synth_checks_its_seed_as_the_solvers_do(tmp_path):
    for seed in (-1, 1.0):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer$"):
            synth_instance((4, 4, 4), (2, 2, 2), 0.3, seed)
    with pytest.raises(SystemExit, match="^seed must be a nonnegative integer$"):
        main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--seed", "-1",
              "--out", f"{tmp_path}/bad"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("std", ["nan", "inf", "0"])
def test_synth_bad_std_exits_with_message(tmp_path, std):
    with pytest.raises(SystemExit, match="std must be positive and finite"):
        main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--std", std,
              "--out", f"{tmp_path}/bad"])
    assert list(tmp_path.iterdir()) == []


def test_synth_overflowing_truth_exits_with_message(tmp_path):
    # 1e200 is finite, but products of core entries overflow; under
    # errstate(raise) an overflow warning escaping synth would fail the test
    with np.errstate(all="raise"):
        with pytest.raises(SystemExit, match="non-finite entries"):
            main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--std", "1e200",
                  "--out", f"{tmp_path}/bad"])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["--rank", "2,2"], "rank vector of length 2"),
    (["--rank", "0,2,2"], "ranks must be positive"),
    (["--rank", "2,2,2", "--lambda", "0"], "lam must be positive"),
    (["--rank", "2,2,2", "--truth", "junk.trtc"], "bad magic"),
    (["--rank", "2,2,2", "--truth", "absent.trtc"], "No such file"),
    (["--rank", "2,2,2", "--lambda", "nan"], "lam must be positive and finite"),
    (["--rank", "2,2,2", "--lambda", "inf"], "lam must be positive and finite"),
    (["--rank", "2,2,2", "--tol", "nan"], "tol must be positive"),
    (["--rank", "2,2,2", "--tol", "inf"], "tol must be positive and finite"),
])
def test_complete_input_errors_exit_with_message(tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--missing-rate", "0.3",
          "--seed", "2", "--out", "m"])
    (tmp_path / "junk.trtc").write_text("not a tensor file\n")
    with pytest.raises(SystemExit, match=message):
        main(["complete", "--in", "m_observed.trtc", *argv, "--out", "mfit"])


def test_complete_divergence_exits_with_message(tmp_path, monkeypatch):
    def diverging(*args):
        raise trtc.solvers.DivergenceError("olrf iterate became non-finite at iteration 1")

    main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--seed", "2", "--out", f"{tmp_path}/m"])
    monkeypatch.setitem(trtc.cli.SOLVERS, "olrf", diverging)
    with pytest.raises(SystemExit, match="non-finite at iteration 1"):
        main(["complete", "--in", f"{tmp_path}/m_observed.trtc", "--rank", "2,2,2",
              "--out", f"{tmp_path}/mfit"])


# a floating-point warning on the way is raised here, and fails the test
@pytest.mark.filterwarnings("error")
def test_complete_huge_lambda_exits_with_the_message_alone(tmp_path, capsys):
    main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--missing-rate", "0.3",
          "--seed", "2", "--out", f"{tmp_path}/m"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        main(["complete", "--in", f"{tmp_path}/m_observed.trtc", "--rank", "2,2,2",
              "--lambda", "1e308", "--out", f"{tmp_path}/mfit"])
    # a string code: the interpreter prints it, alone, to stderr and exits with status 1
    assert isinstance(e.value.code, str) and "non-finite at iteration" in e.value.code
    assert "\n" not in e.value.code
    assert capsys.readouterr() == ("", "")
    assert not os.path.exists(f"{tmp_path}/mfit_completed.trtc")


def test_complete_scores_only_the_final_tensor(tmp_path, monkeypatch):
    calls = []
    real_rse = trtc.solvers.rse

    def counted_rse(*args, **kwargs):
        calls.append(args)
        return real_rse(*args, **kwargs)

    main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--missing-rate", "0.3",
          "--seed", "2", "--out", f"{tmp_path}/r"])
    monkeypatch.setattr(trtc.solvers, "rse", counted_rse)
    main(["complete", "--in", f"{tmp_path}/r_observed.trtc",
          "--truth", f"{tmp_path}/r_truth.trtc", "--solver", "llrf",
          "--rank", "2,2,2", "--max-iters", "20", "--out", f"{tmp_path}/rfit"])
    assert len(calls) == 0
    _, header, rows = read_csv(f"{tmp_path}/rfit.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["rse_all"]) > 0.0
    assert float(row["rse_missing"]) > 0.0


def test_complete_truth_zero_on_missing_fails_before_writing(tmp_path):
    # rse_missing cannot be scored: the run stops before the solve, with no
    # completed tensor, cores or CSV left behind
    main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--missing-rate", "0.3",
          "--seed", "2", "--out", f"{tmp_path}/z"])
    truth, _ = read_tensor(f"{tmp_path}/z_truth.trtc", require_complete=True)
    _, mask = read_tensor(f"{tmp_path}/z_observed.trtc")
    write_tensor(np.where(mask, truth, 0.0), f"{tmp_path}/z_zero.trtc")
    with pytest.raises(SystemExit, match="truth has zero norm on the scored entries"):
        main(["complete", "--in", f"{tmp_path}/z_observed.trtc",
              "--truth", f"{tmp_path}/z_zero.trtc", "--solver", "olrf",
              "--rank", "2,2,2", "--max-iters", "20", "--out", f"{tmp_path}/zfit"])
    assert not [f.name for f in tmp_path.iterdir() if f.name.startswith("zfit")]


@pytest.mark.parametrize("where", ["missing", "observed"])
def test_complete_nonfinite_truth_fails_before_writing(tmp_path, where):
    # an inf entry in the truth would score the completion as nan; the run
    # stops before the solve, with no completed tensor, cores or CSV
    main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--missing-rate", "0.3",
          "--seed", "2", "--out", f"{tmp_path}/z"])
    truth, _ = read_tensor(f"{tmp_path}/z_truth.trtc", require_complete=True)
    _, mask = read_tensor(f"{tmp_path}/z_observed.trtc")
    truth[tuple(np.argwhere(mask == (where == "observed"))[0])] = np.inf
    write_tensor(truth, f"{tmp_path}/z_inf.trtc")
    with pytest.raises(SystemExit, match="truth entries must be finite"):
        main(["complete", "--in", f"{tmp_path}/z_observed.trtc",
              "--truth", f"{tmp_path}/z_inf.trtc", "--solver", "olrf",
              "--rank", "2,2,2", "--max-iters", "20", "--out", f"{tmp_path}/zfit"])
    assert not [f.name for f in tmp_path.iterdir() if f.name.startswith("zfit")]


def test_sweep_csv_schema_and_determinism(tmp_path):
    args = ["sweep", "--axis", "missing-rate", "--grid", "0.3,0.6",
            "--shape", "6,6,6", "--rank", "2,2,2", "--repeats", "2",
            "--max-iters", "40", "--seed", "0"]
    main(args + ["--out", f"{tmp_path}/s1.csv"])
    main(args + ["--out", f"{tmp_path}/s2.csv"])
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
    comments, header, rows = read_csv(f"{tmp_path}/s1.csv")
    assert comments == ["# trtc-sweep v1"]
    assert header == ["axis", "value", "solver", "shape", "gen_rank", "solve_rank",
                      "missing_rate", "lambda", "repeats", "rse_mean", "rse_std",
                      "iterations_mean", "converged_runs"]
    assert len(rows) == 4  # 2 grid points x 2 solvers
    assert {r[2] for r in rows} == {"olrf", "llrf"}
    for r in rows:
        assert int(r[8]) == 2
        assert float(r[9]) >= 0.0


@pytest.mark.parametrize("argv,message", [
    (["--axis", "rank", "--grid", "2.5"], "rank grid value 2.5 is not an integer"),
    (["--axis", "rank", "--grid", "3,2.5"], "rank grid value 2.5 is not an integer"),
    (["--axis", "rank", "--grid", "nan"], "rank grid value nan is not an integer"),
    (["--axis", "missing-rate", "--grid", "0.3", "--repeats", "0"], "repeats must be >= 1"),
    (["--axis", "lambda", "--grid", "10", "--repeats=-2"], "repeats must be >= 1"),
])
def test_sweep_bad_grid_or_repeats_exits_with_message(tmp_path, argv, message):
    with pytest.raises(SystemExit, match=message):
        main(["sweep", *argv, "--shape", "4,4,4", "--rank", "2,2,2", "--max-iters", "5",
              "--out", f"{tmp_path}/s.csv"])
    assert list(tmp_path.iterdir()) == []


def test_sweep_lambda_axis_solves_and_reports_each_lambda(monkeypatch):
    seen = []
    olrf = trtc.cli.SOLVERS["olrf"]

    def spy(observed, mask, cfg):
        seen.append(cfg.lam)
        return olrf(observed, mask, cfg)

    monkeypatch.setitem(trtc.cli.SOLVERS, "olrf", spy)
    rows = run_sweep("lambda", [1.0, 100.0], (4, 4, 4), (2, 2, 2), 0.3, 10.0, ["olrf"],
                     repeats=2, seed=0, max_iters=5)
    assert seen == [1.0, 1.0, 100.0, 100.0]
    assert [(r[0], r[1], r[2], r[7]) for r in rows] == [
        ("lambda", 1.0, "olrf", 1.0), ("lambda", 100.0, "olrf", 100.0)]


def no_solve(*args):
    raise AssertionError("a sweep or bench with a bad argument ran a solve")


@pytest.mark.parametrize("axis,grid,solvers,message", [
    pytest.param("foo", [], ["olrf"],
                 "unknown sweep axis 'foo', expected one of missing-rate, rank, lambda", id="axis"),
    pytest.param("missing-rate", [0.3], ["olrf", "xx"],
                 "unknown solver 'xx', expected one of olrf, llrf", id="solver"),
])
def test_sweep_unknown_axis_or_solver_fails_before_the_first_solve(monkeypatch, axis, grid,
                                                                   solvers, message):
    monkeypatch.setitem(trtc.cli.SOLVERS, "olrf", no_solve)
    with pytest.raises(ValueError, match=f"^{message}"):
        run_sweep(axis, grid, (4, 4, 4), (2, 2, 2), 0.3, 10.0, solvers, repeats=1, seed=0)


@pytest.mark.parametrize("axis,grid,message", [
    pytest.param("missing-rate", [0.3, 1.0], r"missing rate must be in \[0, 1\)", id="rate"),
    pytest.param("missing-rate", [0.3, float("nan")], r"missing rate must be in \[0, 1\)",
                 id="rate-nan"),
    pytest.param("lambda", [1.0, -1.0], "lam must be positive and finite", id="lambda"),
    pytest.param("lambda", [1.0, float("nan")], "lam must be positive and finite", id="lambda-nan"),
    pytest.param("rank", [2, 0], "ranks must be positive", id="rank"),
])
def test_sweep_checks_every_point_before_the_first_solve(monkeypatch, axis, grid, message):
    monkeypatch.setitem(trtc.cli.SOLVERS, "olrf", no_solve)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_sweep(axis, grid, (4, 4, 4), (2, 2, 2), 0.3, 10.0, ["olrf"], repeats=2, seed=0)


@pytest.mark.parametrize("orders,rank_grid,message", [
    pytest.param((3, 1), (2,), "TR-rank needs at least two entries", id="order"),
    pytest.param((3,), (2, 0), "ranks must be positive", id="rank"),
    pytest.param((3,), (2.5,), "rank 2.5 is not an integer", id="float-rank"),
])
def test_bench_checks_every_point_before_the_first_solve(monkeypatch, orders, rank_grid, message):
    monkeypatch.setitem(trtc.cli.SOLVERS, "olrf", no_solve)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_bench(orders=orders, extent=4, rank=2, rank_grid=rank_grid,
                  rank_axis_order=3, solver="olrf", iters=1, seed=0)


def test_bench_unknown_solver_fails_before_any_work(monkeypatch):
    monkeypatch.setattr(trtc.cli, "synth_instance", no_solve)
    with pytest.raises(ValueError, match="^unknown solver 'xx', expected one of olrf, llrf$"):
        run_bench(orders=(3,), extent=4, rank=2, rank_grid=(2,),
                  rank_axis_order=3, solver="xx", iters=1, seed=0)


@pytest.mark.parametrize("command", [
    pytest.param(["sweep", "--axis", "rank", "--grid", "2,3", "--shape", "4,4,4",
                  "--rank", "2,2,2", "--solver", "olrf", "--repeats", "3"], id="sweep"),
    pytest.param(["complete", "--rank", "2,2,2"], id="complete"),
    pytest.param(["bench", "--orders", "3", "--extent", "4", "--rank-grid", "2"], id="bench"),
])
def test_missing_output_directory_fails_before_any_work(tmp_path, monkeypatch, command):
    main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--out", f"{tmp_path}/m"])
    if command[0] == "complete":
        command = command + ["--in", f"{tmp_path}/m_observed.trtc"]
    written = sorted(tmp_path.iterdir())
    monkeypatch.setitem(trtc.cli.SOLVERS, "olrf", no_solve)
    out = tmp_path / "missing" / "out.csv"
    with pytest.raises(SystemExit, match=f"^the directory of --out {re.escape(str(out))} does not exist$"):
        main([*command, "--out", str(out)])
    assert sorted(tmp_path.iterdir()) == written


@pytest.mark.parametrize("iters", ["0", "-3"])
def test_bench_bad_iters_exits_with_message(tmp_path, iters):
    # a bench with no timed iteration is refused before the first solve
    with pytest.raises(SystemExit, match=f"iters must be >= 1, got {iters}"):
        main(["bench", "--orders", "3", "--extent", "4", "--rank-grid", "2",
              "--iters", iters, "--out", f"{tmp_path}/b.csv"])
    assert list(tmp_path.iterdir()) == []


def test_sweep_rank_axis_argmin_near_generating_rank():
    # uniform-rank grid crossing the generating rank-sum; argmin should
    # land on one of the two bracketing grid points for both solvers
    rows = run_sweep("rank", [2, 3, 4, 5, 6], (10, 10, 10, 10), (4, 5, 4, 5),
                     0.5, 10.0, ["olrf", "llrf"], repeats=2, seed=0)
    for solver in ("olrf", "llrf"):
        vals = [(int(r[1]), float(r[9])) for r in rows if r[2] == solver]
        best = min(vals, key=lambda p: p[1])[0]
        assert best in (4, 5), f"{solver}: argmin at uniform rank {best}"


def test_bench_rows_and_positive_timings(tmp_path):
    main(["bench", "--orders", "3,4", "--extent", "4", "--rank-fixed", "2",
          "--rank-grid", "2,3", "--order-fixed", "3", "--iters", "2",
          "--seed", "0", "--out", f"{tmp_path}/b.csv"])
    comments, header, rows = read_csv(f"{tmp_path}/b.csv")
    assert comments == ["# trtc-bench v1"]
    assert header == ["axis", "order", "extent", "rank", "solver", "timed_iters",
                      "sec_per_iter_median", "sec_per_iter_mean"]
    assert len(rows) == 4  # 2 orders + 2 ranks
    axes = [r[0] for r in rows]
    assert axes.count("order") == 2 and axes.count("rank") == 2
    for r in rows:
        assert float(r[6]) > 0.0
        assert float(r[7]) > 0.0


def test_bench_api_one_row_per_point():
    rows = run_bench(orders=(3,), extent=4, rank=2, rank_grid=(2,),
                     rank_axis_order=3, solver="olrf", iters=1, seed=0)
    assert len(rows) == 2


@pytest.mark.parametrize("argv", [
    pytest.param(["synth", "--shape", "100000,100000,100000", "--rank", "2,2,2"], id="synth"),
    pytest.param(["complete", "--in", "m_observed.trtc", "--rank", "100000,100000,2"], id="complete"),
])
def test_size_that_does_not_fit_exits_with_one_line(tmp_path, argv):
    # run in a child whose address space is capped at 3 GiB, so the
    # allocation fails at once instead of filling the machine's memory
    resource = pytest.importorskip("resource")
    main(["synth", "--shape", "4,4,4", "--rank", "2,2,2", "--seed", "2", "--out", f"{tmp_path}/m"])
    src = str(Path(trtc.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    done = subprocess.run(
        [sys.executable, "-c", "import sys; from trtc.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv, "--out", "fit"],
        cwd=tmp_path, env=env, preexec_fn=cap, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert len(done.stderr.splitlines()) == 1 and "Unable to allocate" in done.stderr


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
