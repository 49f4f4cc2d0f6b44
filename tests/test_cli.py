import csv
import logging
import os
import re
import shutil

import numpy as np
import pytest

from locus.cli import (_command_options, _solver_config, build_parser, main,
                       write_pgm)
from locus.solver import SolverConfig, read_meta


def run(argv):
    return main([str(a) for a in argv])


def tree_bytes(root, skip=("manifest",)):
    """Map of relative path -> file bytes, excluding the manifest (its
    timestamp line is the documented determinism exception)."""
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            if name in skip:
                continue
            full = os.path.join(base, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run(["simulate", "--scenario", "I", "--V", 16, "--q", 3,
                "--N", 24, "--sigma", 0.5, "--seed", 7, "--out", out])
    assert code == 0
    return out


class TestSimulate:
    def test_paper_scale_dataset_shape(self, tmp_path):
        out = tmp_path / "d"
        assert run(["simulate", "--scenario", "I", "--V", 50, "--q", 3,
                    "--N", 100, "--sigma", 1, "--seed", 7, "--out", out]) == 0
        with open(out / "dataset.csv") as fh:
            header = fh.readline().strip().split(",")
            rows = fh.read().strip().splitlines()
        assert len(header) == 1225
        assert len(rows) == 100

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--scenario", "I"])
        assert exc.value.code == 2

    def test_same_args_twice_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--scenario", "II", "--V", 14, "--q", 3,
                "--N", 10, "--sigma", 2.0, "--seed", 3]
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        ta, tb = tree_bytes(a), tree_bytes(b)
        assert ta.keys() == tb.keys()
        assert all(ta[k] == tb[k] for k in ta)

    def test_truth_directory_contents(self, sim_dir):
        for name in ("S_1.csv", "S_2.csv", "S_3.csv", "loadings.csv", "spec"):
            assert (sim_dir / "truth" / name).exists()
        spec = read_meta(sim_dir / "truth" / "spec")
        assert spec["V"] == "16"
        assert spec["scenario"] == "blocks_cross"

    def test_manifest_written(self, sim_dir):
        manifest = read_meta(sim_dir / "manifest")
        assert manifest["command"] == "simulate"
        assert manifest["seed"] == "7"
        assert "timestamp" in manifest

    def test_config_file_sets_options(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("V=12\nN=10\n")
        out = tmp_path / "d"
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
        spec = read_meta(out / "truth" / "spec")
        assert (spec["V"], spec["N"]) == ("12", "10")


class TestDecompose:
    def test_locus_fit_directory_layout(self, sim_dir, tmp_path):
        out = tmp_path / "fit"
        code = run(["decompose", sim_dir / "dataset.csv", "--method", "locus",
                    "--q", 3, "--phi", 0.01, "--rho", 0.9, "--seed", 0,
                    "--max-iter", 80, "--out", out])
        assert code == 0
        for name in ("A.csv", "A_tilde.csv", "S_1.csv", "S_2.csv", "S_3.csv",
                     "X_1.csv", "d_1.csv", "S_1.pgm", "meta", "manifest"):
            assert (out / name).exists()
        meta = read_meta(out / "meta")
        assert meta["q"] == "3"
        assert "ranks" in meta
        a = np.loadtxt(out / "A.csv", delimiter=",", ndmin=2)
        assert a.shape == (24, 3)

    def test_fastica_same_layout_without_ranks(self, sim_dir, tmp_path):
        out = tmp_path / "fit_ica"
        code = run(["decompose", sim_dir / "dataset.csv", "--method", "fastica",
                    "--q", 3, "--seed", 0, "--out", out])
        assert code == 0
        meta = read_meta(out / "meta")
        assert meta["method"] == "fastica"
        assert "ranks" not in meta
        assert (out / "S_3.pgm").exists()
        assert not (out / "X_1.csv").exists()

    def test_regularizer_recorded_in_meta(self, sim_dir, tmp_path):
        out = tmp_path / "fit_nuc"
        code = run(["decompose", sim_dir / "dataset.csv", "--method", "locus",
                    "--q", 3, "--phi", 0.05, "--regularizer", "nuclear",
                    "--max-iter", 60, "--out", out])
        assert code == 0
        assert read_meta(out / "meta")["regularizer"] == "nuclear"

    def test_missing_data_file_exit_3(self, tmp_path):
        assert run(["decompose", tmp_path / "nope.csv", "--q", 3,
                    "--out", tmp_path / "x"]) == 3

    def test_q_too_large_exit_3(self, sim_dir, tmp_path):
        assert run(["decompose", sim_dir / "dataset.csv", "--q", 99,
                    "--out", tmp_path / "x"]) == 3

    def test_log_level_debug_shows_rank_checks_and_sweeps(self, sim_dir,
                                                          tmp_path, caplog):
        argv = ["decompose", sim_dir / "dataset.csv", "--q", 3,
                "--max-iter", 3]
        assert run([*argv, "--out", tmp_path / "quiet"]) == 0
        assert not any("rank checks" in r.getMessage() for r in caplog.records)
        try:
            assert run(["--log-level", "DEBUG", *argv,
                        "--out", tmp_path / "debug"]) == 0
        finally:
            logging.getLogger("locus").setLevel(logging.NOTSET)
        messages = [r.getMessage() for r in caplog.records]
        checks = [m for m in messages if re.fullmatch(
            r"rank checks: \d+ warm, \d+ exact, \d+ changed", m)]
        assert len(checks) == 3
        assert sum(m.startswith("node sweep: ") for m in messages) == 3
        assert (tree_bytes(tmp_path / "quiet")
                == tree_bytes(tmp_path / "debug"))

    def test_log_level_before_subcommand_keeps_config_file(self, sim_dir,
                                                           tmp_path):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("regularizer=nuclear\nmax_iter=5\n")
        out = tmp_path / "fit"
        try:
            assert run(["--log-level", "ERROR", "decompose",
                        sim_dir / "dataset.csv", "--q", 3, "--config", cfg,
                        "--out", out]) == 0
        finally:
            logging.getLogger("locus").setLevel(logging.NOTSET)
        meta = read_meta(out / "meta")
        assert meta["regularizer"] == "nuclear" and meta["iterations"] == "5"

    def test_config_file_defaults_and_flag_priority(self, sim_dir, tmp_path):
        cfg = tmp_path / "solver.cfg"
        cfg.write_text("phi=0.02\nmax_iter=40\nseed=9\n")
        out1 = tmp_path / "c1"
        assert run(["decompose", sim_dir / "dataset.csv", "--q", 3,
                    "--config", cfg, "--out", out1]) == 0
        meta1 = read_meta(out1 / "manifest")
        assert meta1["phi"] == "0.02"
        assert meta1["seed"] == "9"
        out2 = tmp_path / "c2"
        assert run(["decompose", sim_dir / "dataset.csv", "--q", 3,
                    "--config", cfg, "--phi", 0.07, "--out", out2]) == 0
        assert read_meta(out2 / "manifest")["phi"] == "0.07"

    @pytest.mark.parametrize("flags", [["--reg", "nuclear", "--ph", 0.05],
                                       ["--regularizer=nuclear", "--phi=0.05"]])
    def test_abbreviated_or_joined_flag_beats_config(self, sim_dir, tmp_path,
                                                     flags):
        # argparse accepts unique prefixes and --flag=value; either spelling
        # is explicit and wins over the config file
        cfg = tmp_path / "c.cfg"
        cfg.write_text("regularizer=vector\nphi=0.01\nmax_iter=5\n")
        out = tmp_path / "x"
        assert run(["decompose", sim_dir / "dataset.csv", "--q", 3,
                    *flags, "--config", cfg, "--out", out]) == 0
        meta = read_meta(out / "meta")
        assert meta["regularizer"] == "nuclear"
        assert meta["phi"] == "0.05"
        assert read_meta(out / "manifest")["max_iter"] == "5"

    @pytest.mark.parametrize("line", ["regularizer=uniform_l1", "method=pca"])
    def test_config_value_outside_choices_exit_3(self, sim_dir, tmp_path,
                                                 capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "x"
        assert run(["decompose", sim_dir / "dataset.csv", "--q", 3,
                    "--config", cfg, "--out", out]) == 3
        assert "bad_config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["func=x", "command=tune",
                                      "config=missing.cfg", "data=missing.csv"])
    def test_config_skips_keys_that_are_not_options(self, sim_dir, tmp_path,
                                                    line):
        # parser internals and the positional data argument are not options
        # of decompose, so a config file cannot replace them
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\nmax_iter=5\n")
        out = tmp_path / "x"
        assert run(["decompose", sim_dir / "dataset.csv", "--q", 3,
                    "--config", cfg, "--out", out]) == 0
        manifest = read_meta(out / "manifest")
        assert manifest["command"] == "decompose"
        assert manifest["max_iter"] == "5"

    def test_config_bad_value_rejected_under_overriding_flag(self, sim_dir,
                                                             tmp_path, capsys):
        # every file line that names an option is checked, even when a
        # command-line flag overrides it
        cfg = tmp_path / "c.cfg"
        cfg.write_text("phi=abc\n")
        out = tmp_path / "x"
        assert run(["decompose", sim_dir / "dataset.csv", "--q", 3,
                    "--phi", 0.1, "--config", cfg, "--out", out]) == 3
        assert "bad_config" in capsys.readouterr().err
        assert not out.exists()

    def test_config_spacing_comments_and_hyphens_read_alike(self, sim_dir,
                                                            tmp_path):
        plain, spaced = tmp_path / "plain.cfg", tmp_path / "spaced.cfg"
        plain.write_text("phi=0.02\nmax_iter=5\nseed=9\n")
        spaced.write_text("# solver settings\nphi = 0.02\n  max-iter=5 \n"
                          "seed =9\n")
        manifests, trees = [], []
        for cfg in (plain, spaced):
            out = tmp_path / cfg.stem
            assert run(["decompose", sim_dir / "dataset.csv", "--q", 3,
                        "--config", cfg, "--out", out]) == 0
            manifest = read_meta(out / "manifest")
            for key in ("timestamp", "out"):
                del manifest[key]
            manifests.append(manifest)
            trees.append(tree_bytes(out))
        assert manifests[0] == manifests[1]
        assert manifests[0]["max_iter"] == "5"
        assert trees[0] == trees[1]

    def test_bad_config_message_names_the_flag(self, sim_dir, tmp_path,
                                               capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("regularizer=uniform_l1\n")
        assert run(["decompose", sim_dir / "dataset.csv", "--q", 3,
                    "--config", cfg, "--out", tmp_path / "x"]) == 3
        err = capsys.readouterr().err
        assert "bad_config" in err and str(cfg) in err
        assert "argument --regularizer: invalid choice: 'uniform_l1'" in err
        assert "usage:" not in err

    def test_config_option_under_two_spellings_exit_3(self, sim_dir, tmp_path,
                                                      capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_iter=5\nmax-iter=7\nmax_iter=9\n")
        out = tmp_path / "x"
        assert run(["decompose", sim_dir / "dataset.csv", "--q", 3,
                    "--config", cfg, "--out", out]) == 3
        err = capsys.readouterr().err
        assert "bad_config" in err and "'max_iter'" in err and "'max-iter'" in err
        assert not out.exists()

    def test_config_repeated_spelling_keeps_last_line(self, sim_dir, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("max_iter=5\nphi=0.02\nmax_iter=3\n")
        out = tmp_path / "x"
        assert run(["decompose", sim_dir / "dataset.csv", "--q", 3,
                    "--config", cfg, "--out", out]) == 0
        assert read_meta(out / "manifest")["max_iter"] == "3"

    @pytest.mark.parametrize("square", [False, True])
    def test_unparsable_data_file_exit_3(self, tmp_path, capsys, square):
        if square:
            data = tmp_path / "sq"
            data.mkdir()
            np.savetxt(data / "a.csv", np.eye(3), delimiter=",")
            bad = data / "b.csv"
            bad.write_text("0,1,2\n1,0,x\n2,3,0\n")
        else:
            data = bad = tmp_path / "edges.csv"
            bad.write_text("1_2,1_3,2_3\n0.1,0.2,0.3\n0.4,abc,0.6\n")
        assert run(["decompose", data, "--q", 1, "--out", tmp_path / "x"]) == 3
        err = capsys.readouterr().err
        assert "bad_csv" in err and str(bad) in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--seed", -1],
        ["decompose", "DATA", "--q", 3, "--seed", -1],
        ["decompose", "DATA", "--q", 3, "--method", "fastica", "--seed", -1],
        ["decompose", "DATA", "--q", 3, "--phi", "nan"],
        ["decompose", "DATA", "--q", 3, "--eps2", "nan"],
        ["tune", "DATA", "--q", 3, "--phi-grid", "0,nan", "--rho-grid", 0.9]])
    def test_negative_seed_or_nan_setting_exit_3(self, sim_dir, tmp_path,
                                                 capsys, argv):
        argv = [sim_dir / "dataset.csv" if a == "DATA" else a for a in argv]
        assert run([*argv, "--out", tmp_path / "x"]) == 3
        assert "bad_config" in capsys.readouterr().err

    def test_numeric_error_exit_4(self, sim_dir, tmp_path, monkeypatch):
        import locus.cli as cli
        from locus.errors import NumericError

        def overflow(*args, **kwargs):
            raise NumericError("non_finite", "node update overflowed")

        monkeypatch.setattr(cli, "fit", overflow)
        assert run(["decompose", sim_dir / "dataset.csv", "--q", 3,
                    "--out", tmp_path / "x"]) == 4


class TestTune:
    def test_grid_csv_rows_and_best(self, sim_dir, tmp_path):
        out = tmp_path / "tune"
        code = run(["tune", sim_dir / "dataset.csv", "--q", 3,
                    "--phi-grid", "0,0.01,0.02", "--rho-grid", "0.8,0.9",
                    "--max-iter", 40, "--out", out])
        assert code == 0
        lines = (out / "grid.csv").read_text().strip().splitlines()
        assert lines[0] == "phi,rho,bic,iterations,converged,error"
        assert len(lines) == 1 + 6
        assert all(line.endswith(",") for line in lines[1:])
        best = read_meta(out / "best")
        assert float(best["phi"]) in (0.0, 0.01, 0.02)
        assert float(best["rho"]) in (0.8, 0.9)

    def test_manifest_lists_every_option(self, sim_dir, tmp_path):
        out = tmp_path / "tune"
        assert run(["tune", sim_dir / "dataset.csv", "--q", 3,
                    "--phi-grid", "0,0.01", "--rho-grid", "0.9",
                    "--max-iter", 7, "--r-max", 2, "--out", out]) == 0
        manifest = read_meta(out / "manifest")
        assert set(_command_options(build_parser(), "tune")) <= set(manifest)
        assert manifest["max_iter"] == "7"
        assert manifest["r_max"] == "2"
        assert manifest["phi_grid"] == "0.0,0.01"
        assert manifest["regularizer"] == "uniform"

    def test_failed_cell_reason_in_grid_csv(self, sim_dir, tmp_path,
                                            monkeypatch):
        import csv

        import locus.solver as solver
        from locus.errors import DegeneracyError
        real_weigh = solver._weigh

        def flaky_weigh(cell, *args):
            if cell.config.phi == 0.02:
                raise DegeneracyError("singular_sources",
                                      "sources 0, 2 are linearly dependent")
            return real_weigh(cell, *args)

        monkeypatch.setattr(solver, "_weigh", flaky_weigh)
        out = tmp_path / "tune"
        assert run(["tune", sim_dir / "dataset.csv", "--q", 3,
                    "--phi-grid", "0,0.02", "--rho-grid", "0.9",
                    "--max-iter", 40, "--out", out]) == 0
        with open(out / "grid.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        ok, failed = rows
        assert ok["bic"] and ok["error"] == ""
        assert failed["phi"] == "0.02" and failed["bic"] == ""
        assert failed["error"] == ("DegeneracyError: [singular_sources] "
                                   "sources 0, 2 are linearly dependent")


def write_self_fit(fitdir, truth_dir, meta="q=3\n"):
    """A fit directory whose sources and loadings are the truth itself."""
    os.makedirs(fitdir)
    for ell in (1, 2, 3):
        shutil.copy(truth_dir / f"S_{ell}.csv", fitdir / f"S_{ell}.csv")
    shutil.copy(truth_dir / "loadings.csv", fitdir / "A.csv")
    np.savetxt(fitdir / "A_tilde.csv", np.eye(3), delimiter=",", fmt="%.17g")
    (fitdir / "meta").write_text(meta)


def keep_block(rows, cols):
    """Damage a CSV file by keeping only its leading rows x cols block."""
    def damage(path):
        block = np.loadtxt(path, delimiter=",", ndmin=2)[:rows, :cols]
        np.savetxt(path, block, delimiter=",", fmt="%.17g")
    return damage


def edit_entry(row, col, delta):
    """Damage a CSV matrix by adding ``delta`` to one entry, which leaves
    it asymmetric."""
    def damage(path):
        m = np.loadtxt(path, delimiter=",", ndmin=2)
        m[row, col] += delta
        np.savetxt(path, m, delimiter=",", fmt="%.17g")
    return damage


# case: (file of a self fit, how it is damaged)
MALFORMED_FITS = {
    "meta_without_q": ("meta", lambda path: path.write_text("ranks=1,1,1\n")),
    "meta_q_abc": ("meta", lambda path: path.write_text("q=abc\n")),
    "meta_q_0": ("meta", lambda path: path.write_text("q=0\n")),
    "S_2_of_V_12": ("S_2.csv", keep_block(12, 12)),
    "A_with_2_columns": ("A.csv", keep_block(None, 2)),
    "A_tilde_3_by_2": ("A_tilde.csv", keep_block(None, 2)),
    "S_1_not_square": ("S_1.csv", keep_block(None, 15)),
    "S_2_one_entry_edited": ("S_2.csv", edit_entry(0, 5, 1.0)),
}


class TestEvaluate:
    def test_truth_against_itself_scores_one(self, sim_dir, tmp_path):
        fitdir = tmp_path / "selffit"
        truth_dir = sim_dir / "truth"
        write_self_fit(fitdir, truth_dir)

        out = tmp_path / "eval"
        code = run(["evaluate", fitdir, "--truth", truth_dir, "--out", out])
        assert code == 0
        lines = (out / "match.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[4]) == pytest.approx(1.0, abs=1e-9)
            assert float(fields[5]) == pytest.approx(1.0, abs=1e-9)

    def test_same_named_fit_directories_kept_apart(self, sim_dir, tmp_path):
        # fits that share a name are labelled, and their inputs recorded
        # by position, with the path as given
        truth_dir = sim_dir / "truth"
        fits = [tmp_path / "a" / "fit", tmp_path / "b" / "fit"]
        write_self_fit(fits[0], truth_dir)
        write_self_fit(fits[1], truth_dir, meta="q=3\nseed=1\n")
        out = tmp_path / "eval"
        assert run(["evaluate", *fits, "--truth", truth_dir, "--out", out]) == 0
        with open(out / "match.csv", newline="") as fh:
            labels = [row["fit"] for row in csv.DictReader(fh)]
        assert labels == [str(fits[0])] * 3 + [str(fits[1])] * 3
        manifest = read_meta(out / "manifest")
        assert [manifest[f"input_fit_{i}"] for i in (1, 2)] == list(map(str, fits))
        hashes = {manifest[f"input_fit_{i}_sha256"] for i in (1, 2)}
        assert len(hashes) == 2

    def test_identical_fits_hash_alike(self, sim_dir, tmp_path, monkeypatch):
        # the fits' own manifests differ in timestamp and out path, and are
        # left out of the directory hash
        fits = [tmp_path / "fit_a", tmp_path / "fit_b"]
        for stamp, fitdir in zip(("2001-01-01", "2002-02-02"), fits):
            monkeypatch.setattr("locus.cli.time.strftime",
                                lambda fmt, stamp=stamp: stamp)
            assert run(["decompose", sim_dir / "dataset.csv", "--q", 3,
                        "--max-iter", 5, "--out", fitdir]) == 0
        assert tree_bytes(fits[0]) == tree_bytes(fits[1])
        out = tmp_path / "eval"
        assert run(["evaluate", *fits, "--truth", sim_dir / "truth",
                    "--out", out]) == 0
        manifest = read_meta(out / "manifest")
        assert manifest["input_fit_1_sha256"] == manifest["input_fit_2_sha256"]

    def test_comma_in_fit_path_is_quoted(self, sim_dir, tmp_path):
        truth_dir = sim_dir / "truth"
        fitdir = tmp_path / "x,y"
        write_self_fit(fitdir, truth_dir)
        out = tmp_path / "eval"
        assert run(["evaluate", fitdir, "--truth", truth_dir, "--out", out]) == 0
        with open(out / "match.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["fit"] for row in rows] == ["x,y"] * 3
        assert [row["source"] for row in rows] == ["1", "2", "3"]
        assert all(float(row["source_corr"]) == pytest.approx(1.0)
                   for row in rows)

    def test_bootstrap_reliability_rows_per_method(self, sim_dir, tmp_path):
        out = tmp_path / "eval_boot"
        code = run(["evaluate", "--truth", sim_dir / "truth",
                    "--data", sim_dir / "dataset.csv",
                    "--bootstrap", 3, "--method", "locus", "--method", "fastica",
                    "--phi", 0.01, "--max-iter", 40, "--seed", 1, "--out", out])
        assert code == 0
        lines = (out / "reliability.csv").read_text().strip().splitlines()
        assert lines[0] == "method,source,ri_pearson,ri_jaccard,n_success,B"
        assert len(lines) == 1 + 6  # q rows per method
        assert sum(line.startswith("locus,") for line in lines[1:]) == 3
        assert sum(line.startswith("fastica,") for line in lines[1:]) == 3

    def test_bootstrap_failures_written(self, sim_dir, tmp_path, monkeypatch):
        # one replicate's refit fails: it is left out of reliability.csv and
        # named in failures.csv; with no failure that file is the header
        import locus.cli as cli
        from locus.errors import DegeneracyError
        real_fit = cli.fit
        seeds = []

        def flaky_fit(whitened, q, config, *args, **kwargs):
            seeds.append(config.seed)
            if config.seed == seeds[0]:
                raise DegeneracyError("singular_sources", "synthetic failure")
            return real_fit(whitened, q, config, *args, **kwargs)

        monkeypatch.setattr(cli, "fit", flaky_fit)
        out = tmp_path / "eval_boot"
        assert run(["evaluate", "--truth", sim_dir / "truth",
                    "--data", sim_dir / "dataset.csv", "--bootstrap", 3,
                    "--method", "locus", "--method", "fastica",
                    "--max-iter", 40, "--seed", 1, "--out", out]) == 0
        with open(out / "failures.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{"method": "locus", "replicate": "1",
                         "error": "DegeneracyError: [singular_sources] "
                                  "synthetic failure"}]
        with open(out / "reliability.csv", newline="") as fh:
            n_success = {row["method"]: row["n_success"]
                         for row in csv.DictReader(fh)}
        assert n_success == {"locus": "2", "fastica": "3"}
        monkeypatch.setattr(cli, "fit", real_fit)
        assert run(["evaluate", "--truth", sim_dir / "truth",
                    "--data", sim_dir / "dataset.csv", "--bootstrap", 3,
                    "--max-iter", 40, "--out", out]) == 0
        assert (out / "failures.csv").read_text() == "method,replicate,error\n"

    def test_failures_written_when_too_few_replicates_succeed(
            self, sim_dir, tmp_path, monkeypatch, capsys):
        # every refit fails: exit 4, and failures.csv and the manifest
        # still name what failed
        import locus.cli as cli
        from locus.errors import DegeneracyError

        def failing_fit(*args, **kwargs):
            raise DegeneracyError("singular_sources", "synthetic failure")

        monkeypatch.setattr(cli, "fit", failing_fit)
        out = tmp_path / "eval_boot"
        assert run(["evaluate", "--truth", sim_dir / "truth",
                    "--data", sim_dir / "dataset.csv", "--bootstrap", 3,
                    "--out", out]) == 4
        assert "bootstrap_failed" in capsys.readouterr().err
        with open(out / "failures.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["method"], row["replicate"]) for row in rows] == [
            ("locus", "1"), ("locus", "2"), ("locus", "3")]
        assert all(row["error"] == "DegeneracyError: [singular_sources] "
                                   "synthetic failure" for row in rows)
        manifest = read_meta(out / "manifest")
        assert manifest["input_data"] == str(sim_dir / "dataset.csv")
        assert not (out / "reliability.csv").exists()

    def test_bad_top_fraction_rejected_before_any_refit(
            self, sim_dir, tmp_path, monkeypatch, capsys):
        import locus.cli as cli
        calls = []
        monkeypatch.setattr(cli, "bootstrap_replicates",
                            lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "x"
        assert run(["evaluate", "--truth", sim_dir / "truth",
                    "--data", sim_dir / "dataset.csv", "--bootstrap", 20,
                    "--top-fraction", 0, "--out", out]) == 3
        assert "[bad_config] top_fraction must lie in (0, 1], got 0.0" in (
            capsys.readouterr().err)
        assert calls == []
        assert not out.exists()

    def test_bad_top_fraction_rejected_without_bootstrap(self, sim_dir,
                                                         tmp_path, capsys):
        truth_dir = sim_dir / "truth"
        fitdir = tmp_path / "self"
        write_self_fit(fitdir, truth_dir)
        out = tmp_path / "x"
        assert run(["evaluate", fitdir, "--truth", truth_dir,
                    "--top-fraction", 1.5, "--out", out]) == 3
        assert "[bad_config] top_fraction must lie in (0, 1], got 1.5" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_finished_methods_kept_when_a_later_one_fails(
            self, sim_dir, tmp_path, monkeypatch, capsys):
        # fastica finishes, then every locus refit fails: exit 4, and
        # reliability.csv still holds fastica's rows
        import locus.cli as cli
        from locus.errors import DegeneracyError

        def failing_fit(*args, **kwargs):
            raise DegeneracyError("singular_sources", "synthetic failure")

        monkeypatch.setattr(cli, "fit", failing_fit)
        out = tmp_path / "eval_boot"
        assert run(["evaluate", "--truth", sim_dir / "truth",
                    "--data", sim_dir / "dataset.csv", "--bootstrap", 3,
                    "--method", "fastica", "--method", "locus",
                    "--out", out]) == 4
        assert "[bootstrap_failed] locus: only 0" in capsys.readouterr().err
        with open(out / "reliability.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["method"], row["source"], row["n_success"])
                for row in rows] == [("fastica", "1", "3"),
                                     ("fastica", "2", "3"),
                                     ("fastica", "3", "3")]
        with open(out / "failures.csv", newline="") as fh:
            failures = list(csv.DictReader(fh))
        assert [(row["method"], row["replicate"]) for row in failures] == [
            ("locus", "1"), ("locus", "2"), ("locus", "3")]
        assert (out / "manifest").exists()

    def test_fit_with_surplus_components_scored(self, sim_dir, tmp_path):
        # a q=4 fit of 3 true sources: one match.csv row per true source,
        # each matched to a distinct estimate, the fourth left out
        fitdir = tmp_path / "fit4"
        assert run(["decompose", sim_dir / "dataset.csv", "--q", 4,
                    "--max-iter", 20, "--out", fitdir]) == 0
        out = tmp_path / "eval"
        assert run(["evaluate", fitdir, "--truth", sim_dir / "truth",
                    "--out", out]) == 0
        with open(out / "match.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["source"] for row in rows] == ["1", "2", "3"]
        matched = [int(row["matched"]) for row in rows]
        assert len(set(matched)) == 3 and set(matched) <= {1, 2, 3, 4}
        assert all(0.0 <= float(row["source_corr"]) <= 1.0 for row in rows)
        assert all(row["loading_corr"] != "" for row in rows)

    def test_config_method_is_a_list_of_choices(self, sim_dir, tmp_path,
                                                capsys):
        # --method is repeatable: its config value is a comma-separated list
        cfg = tmp_path / "c.cfg"
        cfg.write_text("method=fastica\ntop_fraction=0.05\n")
        out = tmp_path / "eval_cfg"
        assert run(["evaluate", "--truth", sim_dir / "truth",
                    "--data", sim_dir / "dataset.csv", "--bootstrap", 3,
                    "--max-iter", 40, "--config", cfg, "--out", out]) == 0
        lines = (out / "reliability.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["fastica"] * 3
        cfg.write_text("method=fastica,pca\n")
        assert run(["evaluate", "--truth", sim_dir / "truth",
                    "--data", sim_dir / "dataset.csv", "--bootstrap", 3,
                    "--config", cfg, "--out", tmp_path / "bad"]) == 3
        assert "bad_config" in capsys.readouterr().err

    def test_explicit_method_replaces_config_list(self, sim_dir, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("method=fastica\n")
        out = tmp_path / "eval_cfg"
        assert run(["evaluate", "--truth", sim_dir / "truth",
                    "--data", sim_dir / "dataset.csv", "--bootstrap", 3,
                    "--max-iter", 40, "--method", "locus", "--config", cfg,
                    "--out", out]) == 0
        lines = (out / "reliability.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["locus"] * 3
        assert read_meta(out / "manifest")["method"] == "locus"

    def test_config_bad_list_rejected_under_overriding_flag(self, sim_dir,
                                                            tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("method=fastica,pca\n")
        out = tmp_path / "x"
        assert run(["evaluate", "--truth", sim_dir / "truth",
                    "--method", "locus", "--config", cfg, "--out", out]) == 3
        assert "invalid choice: 'pca'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("word, fisher", [
        ("1", "True"), ("TRUE", "True"), ("yes", "True"),
        ("0", "False"), ("false", "False"), ("No", "False"),
        ("maybe", None), ("", None)])
    def test_config_switch_takes_true_or_false_words(self, sim_dir, tmp_path,
                                                     word, fisher):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"fisher={word}\n")
        out = tmp_path / "x"
        code = run(["evaluate", "--truth", sim_dir / "truth",
                    "--config", cfg, "--out", out])
        if fisher is None:
            assert code == 3 and not out.exists()
        else:
            assert code == 0
            assert read_meta(out / "manifest")["fisher"] == fisher

    def test_manifest_records_solver_and_bootstrap_options(self, sim_dir,
                                                           tmp_path):
        # the refits behind reliability.csv depend on these options
        out = tmp_path / "eval"
        assert run(["evaluate", "--truth", sim_dir / "truth", "--phi", 0.05,
                    "--method", "locus", "--method", "fastica",
                    "--out", out]) == 0
        manifest = read_meta(out / "manifest")
        assert set(_command_options(build_parser(), "evaluate")) <= set(manifest)
        assert manifest["phi"] == "0.05"
        assert manifest["method"] == "locus,fastica"
        assert manifest["top_fraction"] == "0.01"

    def test_ragged_fit_file_exit_3(self, sim_dir, tmp_path, capsys):
        fitdir = tmp_path / "ragged"
        write_self_fit(fitdir, sim_dir / "truth")
        (fitdir / "A.csv").write_text("1,2,3\n4,5\n")
        assert run(["evaluate", fitdir, "--truth", sim_dir / "truth",
                    "--out", tmp_path / "x"]) == 3
        err = capsys.readouterr().err
        assert "bad_csv" in err and str(fitdir / "A.csv") in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_FITS))
    def test_malformed_fit_directory_exit_3(self, sim_dir, tmp_path, capsys,
                                            case):
        name, damage = MALFORMED_FITS[case]
        fitdir = tmp_path / "fit"
        write_self_fit(fitdir, sim_dir / "truth")
        damage(fitdir / name)
        assert run(["evaluate", fitdir, "--truth", sim_dir / "truth",
                    "--out", tmp_path / "x"]) == 3
        assert str(fitdir / name) in capsys.readouterr().err

    def test_asymmetric_source_error_names_file_and_plain_values(
            self, sim_dir, tmp_path, capsys):
        fitdir = tmp_path / "fit"
        write_self_fit(fitdir, sim_dir / "truth")
        m = np.loadtxt(fitdir / "S_2.csv", delimiter=",")
        edit_entry(0, 5, 1.0)(fitdir / "S_2.csv")
        assert run(["evaluate", fitdir, "--truth", sim_dir / "truth",
                    "--out", tmp_path / "x"]) == 3
        err = capsys.readouterr().err
        assert (f"[asymmetric] {fitdir / 'S_2.csv'}: matrix asymmetric at "
                f"entry (1, 6): {m[0, 5] + 1.0:.17g} vs {m[5, 0]:.17g} "
                "(relative gap ") in err
        assert err.count("[asymmetric]") == 1
        assert "np.float64" not in err

    def test_truth_spec_q_not_an_integer_exit_3(self, sim_dir, tmp_path,
                                                 capsys):
        truth = tmp_path / "truth"
        shutil.copytree(sim_dir / "truth", truth)
        spec = (truth / "spec").read_text()
        assert "\nq=3\n" in spec
        (truth / "spec").write_text(spec.replace("\nq=3\n", "\nq=abc\n"))
        fitdir = tmp_path / "fit"
        write_self_fit(fitdir, sim_dir / "truth")
        assert run(["evaluate", fitdir, "--truth", truth,
                    "--out", tmp_path / "x"]) == 3
        err = capsys.readouterr().err
        assert "bad_meta" in err and str(truth / "spec") in err

    def test_truth_loadings_with_too_few_columns_exit_3(self, sim_dir,
                                                         tmp_path, capsys):
        truth = tmp_path / "truth"
        shutil.copytree(sim_dir / "truth", truth)
        keep_block(None, 2)(truth / "loadings.csv")
        fitdir = tmp_path / "fit"
        write_self_fit(fitdir, sim_dir / "truth")
        assert run(["evaluate", fitdir, "--truth", truth,
                    "--out", tmp_path / "x"]) == 3
        assert str(truth / "loadings.csv") in capsys.readouterr().err

    def test_bootstrap_without_data_exit_3(self, sim_dir, tmp_path):
        assert run(["evaluate", "--truth", sim_dir / "truth",
                    "--bootstrap", 3, "--out", tmp_path / "x"]) == 3


class TestDefaults:
    @pytest.mark.parametrize("command", ["decompose", "tune", "evaluate"])
    def test_solver_flags_default_to_solver_config(self, command):
        argv = {"decompose": ["decompose", "d.csv", "--q", "3", "--out", "o"],
                "tune": ["tune", "d.csv", "--q", "3", "--phi-grid", "0",
                         "--rho-grid", "0.9", "--out", "o"],
                "evaluate": ["evaluate", "--truth", "t", "--out", "o"]}
        args = build_parser().parse_args(argv[command])
        assert _solver_config(args) == SolverConfig()


class TestPgm:
    def test_header_and_midgray_zero(self, tmp_path):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        path = tmp_path / "m.pgm"
        write_pgm(m, str(path))
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n2 2\n255\n")
        pixels = blob[len(b"P5\n2 2\n255\n"):]
        assert list(pixels) == [128, 255, 1, 128]
