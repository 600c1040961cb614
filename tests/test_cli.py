import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from otgen import autodiff as ad
from otgen import cli, dataio, nn
from otgen.fixtures import curve_family, field_family, synth_fixture
from otgen.svgplot import plot_curves
from otgen.transport import TrainConfig


def run_cli(*argv):
    return cli.main(list(argv))


SMALL_TRAIN = dict(
    epochs=25, n_samples=48, n_samples_pde=12, n_collocation=5,
    dnn_hidden=[16, 16], dnn_fourier_m=3, fnn_hidden=[16],
    fnn_dropout=0.0, auto_rescale_weights=True)


def write_run_config(path, data, extra=None):
    doc = {
        "task": "curves", "data": str(data), "target_raw": 1.0,
        "grid_points": 12, "sigma_frac": 0.05,
        "train": SMALL_TRAIN, "gen_samples": 128,
        "out_dir": str(Path(path).parent / "out"), "seed": 0,
    }
    doc.update(extra or {})
    Path(path).write_text(json.dumps(doc))
    return str(path)


class TestFixtures:
    def test_curve_fixture_files(self, tmp_path):
        paths = synth_fixture("curves", tmp_path, seed=1)
        snaps = dataio.ingest_curves(paths["train"])
        assert len(snaps) == 5  # default five training conditions
        ref = dataio.ingest_curves(paths["target"])[0]
        np.testing.assert_allclose(ref.points, curve_family(1.0), atol=1e-12)

    def test_field_fixture_files(self, tmp_path):
        paths = synth_fixture("fields", tmp_path, seed=2, taus=[0.0, 0.5],
                              params={"D": 40})
        conds, rows = dataio.ingest_fields(paths["train"])
        assert rows.shape == (2, 40)
        np.testing.assert_allclose(rows[1], field_family(0.5, D=40, seed=2),
                                   atol=1e-12)

    def test_default_targets_are_the_family_defaults(self, tmp_path):
        # the fixture's default params are the families' keyword defaults,
        # so off-target references from the bare families match its data
        curves = synth_fixture("curves", tmp_path / "c", seed=4)
        ref = dataio.ingest_curves(curves["target"])[0]
        np.testing.assert_array_equal(ref.points, curve_family(1.0))
        fields = synth_fixture("fields", tmp_path / "f", seed=4)
        conds, rows = dataio.ingest_fields(fields["target"])
        np.testing.assert_array_equal(rows, field_family(1.0, seed=4)[None, :])

    def test_same_seed_identical_files(self, tmp_path):
        a = synth_fixture("curves", tmp_path / "a", seed=3)
        b = synth_fixture("curves", tmp_path / "b", seed=3)
        assert Path(a["train"]).read_text() == Path(b["train"]).read_text()

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            synth_fixture("images", tmp_path)


class TestSvg:
    def test_curves_polylines(self, tmp_path):
        path = tmp_path / "p.svg"
        data = plot_curves([("a", np.array([[0, 0], [1, 1]])),
                            ("b", np.array([[0, 1], [1, 0]]))], path)
        assert data.count("<polyline") == 2
        assert path.read_text() == data

    def test_deterministic_bytes(self, tmp_path):
        series = [("x", np.array([[0, 0], [0.5, 2], [1, 1]]))]
        d1 = plot_curves(series, tmp_path / "a.svg")
        d2 = plot_curves(series, tmp_path / "b.svg")
        assert d1 == d2
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            plot_curves([], tmp_path / "e.svg")


class TestOtDiscreteCommand:
    def test_reference_instance(self, tmp_path, capsys):
        src = tmp_path / "src.csv"
        dst = tmp_path / "dst.csv"
        src.write_text("1,0.3333333333333333\n2,0.3333333333333333\n"
                       "4,0.3333333333333333\n")
        dst.write_text("1,0.3333333333333333\n3,0.3333333333333333\n"
                       "5,0.3333333333333333\n")
        assert run_cli("ot-discrete", "--src", str(src), "--dst", str(dst),
                       "--time-dependent") == 0
        out = capsys.readouterr().out
        assert "0.666666666667" in out
        assert "[2.0] -> [3.0]" in out

    def test_bad_file_is_io_error(self, capsys):
        assert run_cli("ot-discrete", "--src", "/nonexistent.csv",
                       "--dst", "/nonexistent.csv") == cli.EXIT_IO

    @pytest.mark.parametrize("text,message", [
        ("0,0.5\n1,0.5\n2,abc\n", "src.csv:3: bad row"),   # not a header
        ("nan,0.5\n1,0.5\n", "must be finite"),
        ("0,nan\n1,0.5\n", "must be finite"),
        ("0,0.5\n1\n", "src.csv:2: expected 2 columns, got 1"),
        ("0.5\n0.5\n", "src.csv:1: a row needs at least one coordinate"),
    ], ids=["bad-row-after-first", "nan-point", "nan-mass", "ragged-row",
            "one-column"])
    def test_bad_input_is_validation_exit(self, tmp_path, capsys, text,
                                          message):
        src, dst = tmp_path / "src.csv", tmp_path / "dst.csv"
        src.write_text(text)
        dst.write_text("x,mass\n0,0.5\n3,0.5\n")
        assert run_cli("ot-discrete", "--src", str(src),
                       "--dst", str(dst)) == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err


class TestGeodesicCommand:
    def test_writes_trajectory(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run_cli("geodesic", "--metric", "lobachevsky", "--x0", "0,1",
                       "--v0", "1,0", "--t-end", "1.0", "--steps", "50",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,v1,v2"
        assert len(lines) == 52

    def test_dimension_mismatch_validation(self, capsys):
        assert run_cli("geodesic", "--metric", "lobachevsky", "--x0", "0,1,2",
                       "--v0", "1,0,0") == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("flag,value,message", [
        ("--t-end", "nan", "t_end must be a finite number; got nan"),
        ("--t-end", "inf", "t_end must be a finite number; got inf"),
        ("--x0", "1,abc", "--x0 must be comma-separated numbers: could not "
                          "convert string to float: 'abc'"),
        ("--v0", "0,", "--v0 must be comma-separated numbers: could not "
                       "convert string to float: ''"),
        ("--x0", "0,nan", "x0 must be a finite number; got nan"),
        ("--v0", "inf,0", "v0 must be a finite number; got inf"),
        ("--x0", "0,-1", "x0 [0.0, -1.0] lies outside the domain of the "
                         "lobachevsky metric"),
        ("--x0", "0,0", "x0 [0.0, 0.0] lies outside the domain of the "
                        "lobachevsky metric"),
    ], ids=["t-end-nan", "t-end-inf", "x0-not-a-number", "v0-empty-item",
            "x0-nan", "v0-inf", "x0-below-domain", "x0-on-boundary"])
    def test_bad_number_is_validation_exit(self, tmp_path, capsys, flag,
                                           value, message):
        out = tmp_path / "traj.csv"
        flags = {"--x0": "0,1", "--v0": "1,0", "--t-end": "1.0", flag: value}
        code = run_cli("geodesic", "--metric", "lobachevsky", "--steps", "50",
                       "--out", str(out), *sum(flags.items(), ()))
        assert code == cli.EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("metric,x0,v0,t_end,message", [
        ("euclidean", "1e308,0", "1e308,0", "10",
         "geodesic overflowed float64 in step 1 of 5 (t = 0 to 2): "
         "overflow encountered in add"),
        ("lobachevsky", "0,1", "1e200,0", "1",
         "geodesic overflowed float64 in step 1 of 5 (t = 0 to 0.2): "
         "overflow encountered in the acceleration"),
        ("lobachevsky", "0,1e200", "1,0", "1",
         "x0 [0.0, 1e+200] is a singular point of the lobachevsky metric"),
    ], ids=["euclidean-state-overflow", "acceleration-overflow",
            "singular-start"])
    def test_overflow_is_named_validation_exit(self, tmp_path, capsys,
                                               metric, x0, v0, t_end,
                                               message):
        # an overflow during integration is reported as one, and a start
        # where the metric is singular is rejected as --x0; numpy's own
        # warnings stay off stderr
        out = tmp_path / "traj.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("geodesic", "--metric", metric, "--x0", x0,
                           "--v0", v0, "--t-end", t_end, "--steps", "5",
                           "--out", str(out))
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION
        assert f"error: {message}" in err
        assert "Warning" not in err and caught == []
        assert not out.exists()

    def test_regular_start_beyond_the_cube_overflow_integrates(self, tmp_path,
                                                               capsys):
        # y^3 overflows float64 above about 5.6e102, yet the metric there is
        # invertible and its derivative -2/y^3 is tiny
        out = tmp_path / "traj.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("geodesic", "--metric", "lobachevsky", "--x0",
                           "0,1e150", "--v0", "1,0", "--steps", "5",
                           "--out", str(out))
        assert code == cli.EXIT_OK
        assert "Warning" not in capsys.readouterr().err and caught == []
        traj = np.loadtxt(out, delimiter=",", skiprows=1)
        assert traj.shape == (6, 5) and np.isfinite(traj).all()
        np.testing.assert_allclose(traj[:, 2], 1e150)

    def test_scaled_start_beyond_the_cube_overflow_keeps_its_curvature(
            self, tmp_path, capsys):
        # scaling is an isometry of the half-plane, so a geodesic from a
        # start scaled by 1e150 is the unit one scaled by 1e150; there
        # g^-1 (y^2) times the subnormal derivative -2/y^3 would lose the
        # Christoffel symbols (1/y), which come from their closed form
        ends = []
        for scale in ("1", "1e150"):
            out = tmp_path / f"traj{scale}.csv"
            assert run_cli("geodesic", "--metric", "lobachevsky", "--x0",
                           f"0,{scale}", "--v0", f"0,{scale}", "--steps", "5",
                           "--out", str(out)) == cli.EXIT_OK
            ends.append(np.loadtxt(out, delimiter=",", skiprows=1)[-1, 2])
        assert ends[0] == pytest.approx(2.71825113661, rel=1e-11)
        assert ends[1] == pytest.approx(1e150 * ends[0], rel=1e-12)


class TestBaselineCommand:
    def test_prediction_csv(self, tmp_path, capsys):
        paths = synth_fixture("curves", tmp_path, seed=4,
                              taus=[0.0, 0.25, 0.5, 0.75])
        out = tmp_path / "pred.csv"
        code = run_cli("baseline", "--data", paths["train"], "--target", "1.0",
                       "--out", str(out), "--grid-points", "10")
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "strain,mean,std"
        assert len(lines) == 11

    @pytest.mark.parametrize("points", ["0", "1"])
    def test_too_few_grid_points_is_validation_exit(self, tmp_path, capsys,
                                                     points):
        paths = synth_fixture("curves", tmp_path, seed=4,
                              taus=[0.0, 0.25, 0.5, 0.75])
        out = tmp_path / "pred.csv"
        code = run_cli("baseline", "--data", paths["train"], "--target", "1.0",
                       "--out", str(out), "--grid-points", points)
        assert code == cli.EXIT_VALIDATION
        assert f"at least 2 points, not {points}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
    def test_non_finite_target_is_validation_exit(self, tmp_path, capsys,
                                                  target):
        paths = synth_fixture("curves", tmp_path, seed=4,
                              taus=[0.0, 0.25, 0.5, 0.75])
        out = tmp_path / "pred.csv"
        code = run_cli("baseline", "--data", paths["train"],
                       f"--target={target}", "--out", str(out))
        assert code == cli.EXIT_VALIDATION
        assert "query condition must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestSamplePfodeCommand:
    def test_gaussian_score_samples(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run_cli("--seed", "3", "sample-pfode", "--score", "gaussian:1.0",
                       "--n", "200", "--steps", "60", "--out", str(out))
        assert code == 0
        rows = np.loadtxt(out, skiprows=1)
        assert rows.shape == (200,)
        assert 0.5 < rows.std() < 1.5

    @pytest.mark.parametrize("std", ["nan", "inf", "0", "-1", "wide"])
    def test_bad_gaussian_std_is_validation_exit(self, tmp_path, capsys, std):
        out = tmp_path / "s.csv"
        code = run_cli("sample-pfode", "--score", f"gaussian:{std}",
                       "--n", "10", "--steps", "5", "--out", str(out))
        assert code == cli.EXIT_VALIDATION
        assert f"--score gaussian:<std> needs a finite positive std, not " \
               f"'{std}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--sigma-min", "--sigma-max"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_sigma_is_validation_exit(self, tmp_path, capsys, flag,
                                                 value):
        # named before the schedule runs, so no numpy warning comes first
        out = tmp_path / "s.csv"
        code = run_cli("sample-pfode", "--score", "gaussian:1.0", "--n", "3",
                       "--steps", "5", flag, value, "--out", str(out))
        assert code == cli.EXIT_VALIDATION
        name = flag[2:].replace("-", "_")
        assert (f"error: {name} must be a finite number; got {value}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,name", [
        ("--n", "0", "n_chains"), ("--n", "-2", "n_chains"),
        ("--dim", "0", "dim"), ("--dim", "-1", "dim")])
    def test_empty_sample_is_validation_exit(self, tmp_path, capsys, flag,
                                             value, name):
        out = tmp_path / "s.csv"
        code = run_cli("sample-pfode", "--score", "gaussian:1.0", "--n", "3",
                       "--steps", "5", flag, value, "--out", str(out))
        assert code == cli.EXIT_VALIDATION
        assert f"error: {name} must be an integer >= 1; got {value}" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_weight_version_1_score_file(self, tmp_path, capsys):
        # a network weight document is not a score, whatever its weight
        # version: no command writes one, and --score refuses it by name
        # before anything is written
        net = nn.init_mlp([3, 16, 2], "softplus", seed=5, final_std=0.1)
        new, old = tmp_path / "score.json", tmp_path / "score_v1.json"
        dataio.write_json(new, dataio.mlp_to_dict(net))
        dataio.write_json(old, dict(dataio.mlp_to_dict(net), version=1))
        for path in (new, old):
            out = tmp_path / f"{path.stem}.csv"
            assert run_cli("sample-pfode", "--score", str(path), "--n", "50",
                           "--steps", "20", "--out", str(out)) \
                == cli.EXIT_VALIDATION
            assert (f"error: --score must be gaussian:<std>, not '{path}'"
                    in capsys.readouterr().err)
            assert not out.exists()

    @pytest.mark.parametrize("corrupt", [
        lambda doc: {"version": doc["version"]},            # no layers
        lambda doc: dict(doc, layers=[dict(doc["layers"][0], shape="16x3")]),
        lambda doc: doc["layers"],                          # not an object
        lambda doc: dict(doc, layers=[dict(doc["layers"][0], weight="@@")]),
    ], ids=["missing-key", "wrong-type", "non-object", "bad-base64"])
    def test_malformed_score_file_is_validation_exit(self, tmp_path, capsys,
                                                     corrupt):
        net = nn.init_mlp([3, 16, 2], "softplus", seed=5, final_std=0.1)
        path = tmp_path / "score.json"
        path.write_text(json.dumps(corrupt(dataio.mlp_to_dict(net))))
        code = run_cli("sample-pfode", "--score", str(path), "--n", "10",
                       "--steps", "5", "--out", str(tmp_path / "s.csv"))
        assert code == cli.EXIT_VALIDATION
        assert (f"error: --score must be gaussian:<std>, not '{path}'"
                in capsys.readouterr().err)
        assert not (tmp_path / "s.csv").exists()


class TestSynthCommand:
    def test_writes_fixture(self, tmp_path, capsys):
        code = run_cli("--out-dir", str(tmp_path / "fx"), "synth",
                       "--kind", "curves", "--taus", "0,0.5")
        assert code == 0
        assert (tmp_path / "fx" / "curves_train.csv").exists()

    @pytest.mark.parametrize("params,message", [
        ("[1]", "curves params must be an object"),
        ('{"zzz": 1}', "unknown curves param 'zzz'"),
        ('{"a": "x"}', "curves param 'a' must be a finite number"),
        ('{"n_points": 2.5}', "curves param 'n_points' must be an integer"),
        ("{bad", "error: --params is not JSON: "),
    ], ids=["not-an-object", "unknown-key", "not-a-number", "fractional-count",
            "not-json"])
    def test_bad_params_is_validation_exit(self, tmp_path, capsys, params,
                                           message):
        code = run_cli("--out-dir", str(tmp_path / "fx"), "synth",
                       "--kind", "curves", "--params", params)
        assert code == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fx").exists()

    @pytest.mark.parametrize("taus,message", [
        ("0,nan", "tau must be a finite number; got nan"),
        ("0,inf", "tau must be a finite number; got inf"),
        ("0,abc", "--taus must be comma-separated numbers"),
    ], ids=["nan", "inf", "not-a-number"])
    def test_bad_taus_is_validation_exit(self, tmp_path, capsys, taus,
                                         message):
        code = run_cli("--out-dir", str(tmp_path / "fx"), "synth",
                       "--kind", "curves", "--taus", taus)
        assert code == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "fx").exists()


class TestRunAndGenerateCommands:
    def test_full_curve_run_and_generate(self, tmp_path, capsys):
        paths = synth_fixture("curves", tmp_path / "fx", seed=0,
                              taus=[0.0, 0.5])
        cfg_path = write_run_config(tmp_path / "cfg.json", paths["train"],
                                    {"reference": paths["target"]})
        assert run_cli("run", "--config", cfg_path) == 0
        out_dir = tmp_path / "out"
        report = json.loads((out_dir / "report.json").read_text())
        assert report["task"] == "curves"
        assert report["target_nrmse"] is not None
        assert (out_dir / "model.json").exists()
        assert (out_dir / "generated.csv").exists()

        gen_out = tmp_path / "gen.csv"
        code = run_cli("generate", "--model", str(out_dir / "model.json"),
                       "--target", "0.8", "--out", str(gen_out),
                       "--samples", "64")
        assert code == 0
        snaps = dataio.ingest_curves(gen_out)
        assert snaps[0].condition_raw == 0.8
        assert gen_out.with_suffix(".diag.json").exists()

    def test_run_meta_records_the_run_seed(self, tmp_path, capsys):
        paths = synth_fixture("curves", tmp_path / "fx", seed=0,
                              taus=[0.0, 0.5])
        cfg_path = write_run_config(tmp_path / "cfg.json", paths["train"],
                                    {"train": dict(SMALL_TRAIN, epochs=1)})
        assert run_cli("--seed", "1", "run", "--config", cfg_path) == 0
        meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
        assert meta["config"]["seed"] == meta["config"]["train"]["seed"] == 1
        model = dataio.load_model(tmp_path / "out" / "model.json")
        assert model.config.seed == 1

    def test_train_writes_only_the_model(self, tmp_path, capsys):
        paths = synth_fixture("curves", tmp_path / "fx", seed=0,
                              taus=[0.0, 0.5])
        cfg_path = write_run_config(
            tmp_path / "cfg.json", paths["train"],
            {"reference": paths["target"], "baseline": True})
        model = tmp_path / "trained" / "model.json"
        assert run_cli("train", "--data", paths["train"], "--config",
                       cfg_path, "--out", str(model)) == 0
        assert [p.name for p in model.parent.iterdir()] == ["model.json"]
        assert not (tmp_path / "out").exists()
        assert run_cli("run", "--config", cfg_path) == 0
        assert model.read_bytes() == (tmp_path / "out" / "model.json").read_bytes()

    def test_fully_folded_map_is_validation_exit(self, tmp_path, capsys):
        from otgen.density import ReducedGaussianDensity
        from otgen.transport import (ConditionNormalizer, DisplacementField,
                                     TransportModel, make_body_force_field)
        # u = -2 X: J = -1 at every particle
        fold = nn.Mlp([nn.Layer(ad.parameter([[-2.0, 0.0]]),
                                ad.parameter([0.0]))])
        body = make_body_force_field(1, hidden=(4,), activation="selu",
                                     activation_param=0.0, dropout=0.1)
        model = TransportModel(
            DisplacementField(fold), body,
            ConditionNormalizer("linear", 0.0, 1.0), TrainConfig(),
            ReducedGaussianDensity([0.0], 0.3), loss_history=[(0.0,) * 5])
        dataio.save_model(model, tmp_path / "model.json")
        code = run_cli("generate", "--model", str(tmp_path / "model.json"),
                       "--target", "1.0", "--out", str(tmp_path / "g.csv"))
        assert code == cli.EXIT_VALIDATION
        assert "folds" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_network_overflow_is_divergence(self, tmp_path, capsys):
        # at learning rate 1e30 the first Adam step sends the networks'
        # outputs to inf; training restores the epoch-0 checkpoint, and
        # its warning is the only one (no numpy overflow warnings first)
        paths = synth_fixture("curves", tmp_path / "fx", seed=0,
                              taus=[0.0, 0.25, 0.5, 0.75])
        train_cfg = dict(
            epochs=3, n_samples=256, n_samples_pde=64, n_collocation=11,
            dnn_hidden=[48, 48, 48], dnn_fourier_m=6, fnn_hidden=[48, 48],
            fnn_dropout=0.1, auto_rescale_weights=True, learning_rate=1e30)
        cfg_path = write_run_config(
            tmp_path / "cfg.json", paths["train"],
            {"reference": paths["target"], "train": train_cfg,
             "grid_points": 40, "sigma_frac": 0.04, "boundary_anchors": 2})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("run", "--config", cfg_path) == cli.EXIT_OK
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning,
             "training diverged at epoch 1; restoring best checkpoint")]
        model = dataio.load_model(tmp_path / "out" / "model.json")
        assert len(model.loss_history) == 1

    def test_overflowing_model_generate_is_validation_exit(self, tmp_path,
                                                          capsys):
        paths = synth_fixture("curves", tmp_path / "fx", seed=0,
                              taus=[0.0, 0.5])
        cfg_path = write_run_config(tmp_path / "cfg.json", paths["train"],
                                    {"train": dict(SMALL_TRAIN, epochs=2)})
        assert run_cli("run", "--config", cfg_path) == cli.EXIT_OK
        model = dataio.load_model(tmp_path / "out" / "model.json")
        for p in model.parameters():
            p.value *= 1e200
        dataio.save_model(model, tmp_path / "big.json")
        gen_out = tmp_path / "gen.csv"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # no "overflow encountered in cast"
            code = run_cli("generate", "--model", str(tmp_path / "big.json"),
                           "--target", "1.0", "--out", str(gen_out))
        assert code == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == "error: non-finite network output\n"
        assert caught == []
        assert not gen_out.exists()

    def test_nan_target_is_validation_exit(self, tmp_path, capsys):
        paths = synth_fixture("curves", tmp_path / "fx", seed=0,
                              taus=[0.0, 0.5])
        cfg_path = write_run_config(tmp_path / "cfg.json", paths["train"],
                                    {"train": dict(SMALL_TRAIN, epochs=2)})
        assert run_cli("run", "--config", cfg_path) == cli.EXIT_OK
        gen_out = tmp_path / "gen.csv"
        code = run_cli("generate", "--model", str(tmp_path / "out/model.json"),
                       "--target", "nan", "--out", str(gen_out))
        assert code == cli.EXIT_VALIDATION
        assert "error: condition nan outside [" in capsys.readouterr().err
        assert not gen_out.exists()

    def test_missing_data_is_io_exit(self, tmp_path, capsys):
        cfg_path = write_run_config(tmp_path / "cfg.json",
                                    tmp_path / "missing.csv")
        assert run_cli("run", "--config", cfg_path) == cli.EXIT_IO

    def test_baseline_toggle_adds_report_field(self, tmp_path, capsys):
        paths = synth_fixture("curves", tmp_path / "fx", seed=0,
                              taus=[0.0, 0.5])
        cfg_path = write_run_config(
            tmp_path / "cfg.json", paths["train"],
            {"reference": paths["target"], "baseline": True})
        assert run_cli("run", "--config", cfg_path) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["baseline_nrmse"] is not None
        assert (tmp_path / "out" / "baseline_pred.csv").exists()

    def test_plots_emitted(self, tmp_path, capsys):
        paths = synth_fixture("curves", tmp_path / "fx", seed=0,
                              taus=[0.0, 0.5])
        cfg_path = write_run_config(tmp_path / "cfg.json", paths["train"],
                                    {"plots": True})
        assert run_cli("run", "--config", cfg_path) == 0
        svg = (tmp_path / "out" / "curves.svg").read_text()
        assert svg.startswith("<svg")

    def test_field_run_and_generate(self, tmp_path, capsys):
        paths = synth_fixture("fields", tmp_path / "fx", seed=1,
                              taus=[0.0, 0.25, 0.5, 0.75], params={"D": 30})
        doc = {
            "task": "fields", "data": paths["train"],
            "reference": paths["target"], "target_raw": 1.0,
            "pca_d": 3, "pca_samples": 16, "reduced_sigma": 0.05,
            "train": SMALL_TRAIN, "gen_samples": 128, "baseline": True,
            "plots": True, "out_dir": str(tmp_path / "out"), "seed": 0,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(cfg_path)) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["task"] == "fields"
        assert report["target_nrmse"] is not None
        assert report["pca_target_residual"] is not None
        assert report["baseline_nrmse"] is not None
        conds, rows = dataio.ingest_fields(tmp_path / "out" / "generated.csv")
        assert rows.shape == (1, 30)

        gen_out = tmp_path / "genf.csv"
        code = run_cli("generate", "--model",
                       str(tmp_path / "out" / "model.json"),
                       "--target", "0.9", "--out", str(gen_out),
                       "--samples", "64", "--reference", paths["target"],
                       "--plot", str(tmp_path / "genf.svg"))
        assert code == 0
        _, grows = dataio.ingest_fields(gen_out)
        assert grows.shape == (1, 30)
        for svg in (tmp_path / "out" / "fields.svg", tmp_path / "genf.svg"):
            assert svg.read_text().count("<polyline") >= 2

    def test_field_generate_builds_one_cloud(self, tmp_path, capsys,
                                             monkeypatch):
        from otgen import transport
        paths = synth_fixture("fields", tmp_path / "fx", seed=1,
                              taus=[0.0, 0.5], params={"D": 20})
        doc = {"task": "fields", "data": paths["train"], "target_raw": 1.0,
               "pca_d": 2, "pca_samples": 16, "train": SMALL_TRAIN,
               "gen_samples": 64, "out_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(cfg_path)) == 0
        calls = []
        original = transport.generate_density

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(transport, "generate_density", counted)
        assert run_cli("generate", "--model",
                       str(tmp_path / "out" / "model.json"), "--target", "1.0",
                       "--out", str(tmp_path / "g.csv"), "--samples", "64",
                       "--reference", paths["target"]) == 0
        assert len(calls) == 1

    def test_interrupt_during_stage_propagates(self, tmp_path, capsys,
                                               monkeypatch):
        from otgen import experiment
        paths = synth_fixture("curves", tmp_path / "fx", seed=0,
                              taus=[0.0, 0.5])
        cfg_path = write_run_config(tmp_path / "cfg.json", paths["train"])

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "train", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_cli("run", "--config", cfg_path)


class TestReportInvariants:
    def test_report_matches_emitted_artifacts(self, tmp_path):
        # NRMSE recomputed from the emitted CSVs equals the report value
        from otgen.experiment import (RunConfig, prepare_curve_dataset,
                                      run_experiment)
        from otgen.transport import nrmse
        paths = synth_fixture("curves", tmp_path / "fx", seed=0,
                              taus=[0.0, 0.5])
        cfg = RunConfig(
            task="curves", data=paths["train"], reference=paths["target"],
            target_raw=1.0, grid_points=12, sigma_frac=0.05,
            train=TrainConfig(**{k: tuple(v) if isinstance(v, list) else v
                                 for k, v in SMALL_TRAIN.items()}),
            gen_samples=128, out_dir=str(tmp_path / "out"), seed=0)
        report, model, artifacts = run_experiment(cfg)
        gen = dataio.ingest_curves(artifacts["generated"])[0]
        ref = dataio.ingest_curves(paths["target"])[0]
        grid = prepare_curve_dataset(cfg, dataio.ingest_curves(cfg.data))[3]
        recomputed = nrmse(np.interp(grid, gen.strains, gen.stresses),
                           np.interp(grid, ref.strains, ref.stresses))
        assert recomputed == pytest.approx(report.target_nrmse, rel=1e-9)


class TestInputValidation:
    """Bad data and configs exit 2 with the cause named, before any output."""

    @pytest.mark.parametrize("kind,cell,message", [
        ("curves", (4, 1, "inf"), "curves_train.csv:4: bad row"),
        ("fields", (3, 5, "nan"), "fields_train.csv:3: bad row"),
        ("curves", None, "curves_train.csv: no data rows"),  # header only
    ])
    def test_bad_data_is_validation_exit(self, tmp_path, capsys, kind, cell,
                                         message):
        paths = synth_fixture(kind, tmp_path / "fx", seed=0,
                              taus=[0.0, 0.25, 0.5, 0.75])
        data = Path(paths["train"])
        lines = data.read_text().splitlines()
        if cell is None:
            lines = lines[:1]
        else:
            line, col, value = cell
            row = lines[line - 1].split(",")
            row[col] = value
            lines[line - 1] = ",".join(row)
        data.write_text("\n".join(lines) + "\n")
        cfg_path = write_run_config(tmp_path / "cfg.json", data,
                                    {"task": kind})
        assert run_cli("run", "--config", cfg_path) == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("extra,message", [
        ({"train": dict(SMALL_TRAIN, learning_rate=float("nan"))},
         "learning_rate"),
        ({"train": dict(SMALL_TRAIN, learning_rate=0.0)}, "learning_rate"),
        ({"train": dict(SMALL_TRAIN, n_samples_pde=0)}, "n_samples_pde"),
        ({"gen_samples": 0}, "gen_samples"),
        ({"train": dict(SMALL_TRAIN, colour=1)}, "colour"),
        ({"train": dict(SMALL_TRAIN, dnn_activation="tanh")},
         "dnn_activation must be one of"),
        ({"train": dict(SMALL_TRAIN, fnn_activation="relu")},
         "fnn_activation must be one of"),
        ({"train": dict(SMALL_TRAIN, fnn_dropout=1.0)}, "fnn_dropout"),
        ({"train": dict(SMALL_TRAIN, dnn_hidden=[0])}, "dnn_hidden"),
        ({"train": dict(SMALL_TRAIN, dnn_fourier_m=-1)}, "dnn_fourier_m"),
        ({"train": dict(SMALL_TRAIN, epochs=2.5)}, "epochs"),
        ({"train": dict(SMALL_TRAIN, checkpoint="last")}, "checkpoint"),
        ({"pca_d": 0.5}, "pca_d"),
        ({"pca_d": 0}, "pca_d"),
        ({"grid_points": 0}, "grid_points"),
    ], ids=["nan-learning-rate", "zero-learning-rate", "zero-n-samples-pde",
            "zero-gen-samples", "unknown-key", "unknown-dnn-activation",
            "unknown-fnn-activation", "full-dropout", "zero-width-layer",
            "negative-fourier-m", "fractional-epochs", "checkpoint-key",
            "fractional-pca-d", "zero-pca-d", "zero-grid-points"])
    def test_bad_config_exits_before_ingest(self, tmp_path, capsys, extra,
                                            message):
        # the data file is missing, so a check made at ingest or later
        # would exit with the I/O code instead
        cfg_path = write_run_config(tmp_path / "cfg.json",
                                    tmp_path / "missing.csv", extra)
        assert run_cli("run", "--config", cfg_path) == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("epochs", True), ("epochs", 0), ("seed", 1.5), ("w1", float("nan")),
        ("shear_modulus", float("nan")), ("n_samples", 31.5),
        ("n_collocation", 2.5), ("grid_points", 10.5),
        ("boundary_anchors", 2.5), ("sigma_frac", float("nan")),
        ("gen_samples", 100.5), ("target_raw", float("nan")),
    ])
    def test_bad_config_number_exits_before_any_stage(self, tmp_path, capsys,
                                                      key, value):
        # on good data, so a value let through trains, or fails in a stage
        # after `out_dir` is made
        paths = synth_fixture("curves", tmp_path / "fx", seed=0,
                              taus=[0.0, 0.5])
        in_train = key in TrainConfig.__dataclass_fields__ and key != "seed"
        extra = ({"train": dict(SMALL_TRAIN, **{key: value})} if in_train
                 else {key: value})
        cfg_path = write_run_config(tmp_path / "cfg.json", paths["train"],
                                    extra)
        assert run_cli("run", "--config", cfg_path) == cli.EXIT_VALIDATION
        assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv,message", [
        (["run", "--config"], "{path}: run config is not JSON"),
        (["generate", "--target", "1.0", "--model"],
         "{path}: model document is not JSON"),
        (["sample-pfode", "--n", "10", "--score"],
         "error: --score must be gaussian:<std>, not '{path}'"),
    ], ids=["config", "model", "score"])
    def test_non_json_file_is_validation_exit(self, tmp_path, capsys, argv,
                                              message):
        path = tmp_path / "doc.json"
        path.write_text("not json\n")
        assert run_cli(*argv, str(path)) == cli.EXIT_VALIDATION
        assert message.format(path=path) in capsys.readouterr().err

    @pytest.mark.parametrize("argv,text,what,detail", [
        (["generate", "--target", "1.0", "--model"], "[1]",
         "malformed model document {path}: ", "TypeError"),
        (["generate", "--target", "1.0", "--model"], '{"version": 99}',
         "malformed model document {path}: ",
         "unsupported model version 99; this reader reads version 4"),
        (["generate", "--target", "1.0", "--model"], '{"version": 2}',
         "malformed model document {path}: ",
         "unsupported model version 2; this reader reads version 4"),
        (["generate", "--target", "1.0", "--model"],
         '{"version": 4, "loss_history": []}',
         "malformed model document {path}: ",
         "empty loss history: model never trained"),
        # --score takes only gaussian:<std>; a file is refused by its name
        (["sample-pfode", "--n", "10", "--score"], '{"version": 2}',
         "--score must be gaussian:<std>, not '{path}'", "gaussian:<std>"),
        (["sample-pfode", "--n", "10", "--score"], '{"version": 1}',
         "--score must be gaussian:<std>, not '{path}'", "gaussian:<std>"),
    ], ids=["model-not-an-object", "model-version", "model-version-2",
            "empty-loss-history", "score-no-layers", "weight-version-1"])
    def test_malformed_document_names_its_file(self, tmp_path, capsys, argv,
                                               text, what, detail):
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert run_cli(*argv, str(path)) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "error: " + what.format(path=path) in err
        assert detail in err

    def test_failed_allocation_is_validation_exit(self, tmp_path, capsys,
                                                  monkeypatch):
        # as numpy raises it for a --steps or --n too large for memory
        def allocate(args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                              "shape (1000000000001,) and data type float64")

        monkeypatch.setitem(cli._COMMANDS, "geodesic", allocate)
        code = run_cli("geodesic", "--x0", "0,1", "--v0", "1,0",
                       "--steps", "1000000000000")
        assert code == cli.EXIT_VALIDATION
        assert ("error: Unable to allocate 7.28 TiB"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["run", "train"])
    def test_config_not_an_object_is_validation_exit(self, tmp_path, capsys,
                                                     command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1, 2]")
        data = ["--data", str(tmp_path / "d.csv")] if command == "train" else []
        assert run_cli(command, "--config", str(cfg_path),
                       *data) == cli.EXIT_VALIDATION
        assert "malformed run config" in capsys.readouterr().err
