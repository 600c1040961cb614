import base64
import json
import re
from pathlib import Path

import numpy as np
import pytest

from otgen import autodiff as ad
from otgen import cli, dataio, rng
from otgen.density import CurveSnapshot, GaussianCurveDensity, ReducedGaussianDensity
from otgen.experiment import RunConfig, run_experiment
from otgen.fixtures import synth_fixture
from otgen.pca import fit_pca
from otgen.transport import (J_MIN, AffineScaler, ConditionNormalizer,
                             Snapshot, SnapshotDataset, TrainConfig,
                             _jet_values, generate_density, generate_mean,
                             init_model)


def write(path, text):
    path.write_text(text)
    return str(path)


class TestIngestCurves:
    def test_two_conditions(self, tmp_path):
        p = write(tmp_path / "c.csv",
                  "condition,strain,stress\n"
                  "1,0.0,1\n1,0.1,2\n1,0.2,3\n1,0.3,4\n"
                  "2,0.0,2\n2,0.1,3\n2,0.2,4\n2,0.3,5\n")
        snaps = dataio.ingest_curves(p)
        assert len(snaps) == 2
        assert snaps[0].condition_raw == 1.0
        np.testing.assert_array_equal(snaps[0].strains, [0.0, 0.1, 0.2, 0.3])

    def test_duplicate_strain_averaged_with_warning(self, tmp_path):
        p = write(tmp_path / "c.csv",
                  "condition,strain,stress\n"
                  "1,0.0,1\n1,0.1,2\n1,0.1,4\n1,0.2,3\n1,0.3,4\n")
        with pytest.warns(UserWarning):
            snaps = dataio.ingest_curves(p)
        assert snaps[0].stresses[1] == pytest.approx(3.0)  # mean of 2 and 4

    def test_missing_column_named(self, tmp_path):
        p = write(tmp_path / "c.csv", "condition,strain\n1,0\n")
        with pytest.raises(dataio.DataFormatError, match="stress"):
            dataio.ingest_curves(p)

    def test_bad_row_has_line_number(self, tmp_path):
        p = write(tmp_path / "c.csv",
                  "condition,strain,stress\n1,0.0,1\n1,oops,2\n")
        with pytest.raises(dataio.DataFormatError, match=":3"):
            dataio.ingest_curves(p)

    def test_roundtrip(self, tmp_path):
        snaps = [CurveSnapshot(5.0, np.column_stack(
            [np.linspace(0, 1, 6), np.linspace(2, 9, 6)]))]
        path = tmp_path / "out.csv"
        dataio.write_curves(path, snaps)
        back = dataio.ingest_curves(path)
        np.testing.assert_array_equal(back[0].points, snaps[0].points)


class TestIngestFields:
    def test_roundtrip_and_sorting(self, tmp_path):
        gen = rng.stream(1)
        fields = rng.normal(gen, (3, 5))
        path = tmp_path / "f.csv"
        dataio.write_fields(path, [2.0, 0.5, 1.0], fields)
        conds, rows = dataio.ingest_fields(path)
        np.testing.assert_array_equal(conds, [0.5, 1.0, 2.0])
        np.testing.assert_array_equal(rows[0], fields[1])

    def test_ragged_row_rejected(self, tmp_path):
        p = write(tmp_path / "f.csv", "condition,v1,v2\n1,2,3\n2,4\n")
        with pytest.raises(dataio.DataFormatError, match=":3"):
            dataio.ingest_fields(p)


class TestModelRoundtrip:
    def make_model(self):
        ds = SnapshotDataset([
            Snapshot(0.0, ReducedGaussianDensity([0.0, 0.0], 0.1)),
            Snapshot(1.0, ReducedGaussianDensity([0.5, 0.2], 0.1)),
        ])
        cfg = TrainConfig(dnn_hidden=(8, 8), dnn_fourier_m=2, fnn_hidden=(8,),
                          epochs=1, seed=11)
        model = init_model(ds, ConditionNormalizer("log10", 0.1, 10.0, "1/s"), cfg)
        model.loss_history = [(1.0, 0.5, 0.25, 0.25, 0.0)]
        return model

    def test_bit_exact_roundtrip(self, tmp_path):
        model = self.make_model()
        model.scaler = AffineScaler.from_bounds([0.1, -2.0], [0.7, 3.0 / 7.0])
        path = tmp_path / "model.json"
        dataio.save_model(model, path)
        back = dataio.load_model(path)
        np.testing.assert_array_equal(back.scaler.offset, model.scaler.offset)
        np.testing.assert_array_equal(back.scaler.scale, model.scaler.scale)
        for a, b in zip(model.parameters(), back.parameters()):
            np.testing.assert_array_equal(a.value, b.value)
        assert back.normalizer == model.normalizer
        assert back.config == model.config
        np.testing.assert_array_equal(back.reference_density.mean,
                                      model.reference_density.mean)

    def test_curve_density_roundtrip(self):
        dens = GaussianCurveDensity(np.linspace(0, 1, 5), np.arange(5.0), 0.3)
        back = dataio.density_from_dict(dataio.density_to_dict(dens))
        np.testing.assert_array_equal(back.strain_grid, dens.strain_grid)
        np.testing.assert_array_equal(back.mean_stress, dens.mean_stress)
        assert back.sigma_stress == dens.sigma_stress
        assert back.strain_range == dens.strain_range

    def test_writes_current_format(self, tmp_path):
        path = tmp_path / "model.json"
        dataio.save_model(self.make_model(), path)
        doc = json.loads(path.read_text())
        assert doc["version"] == dataio.MODEL_FORMAT_VERSION == 4
        assert isinstance(doc["displacement"]["net"]["layers"][0]["weight"],
                          str)

    def test_version_check(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "model.json"
        dataio.save_model(model, path)
        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(dataio.DataFormatError):
            dataio.load_model(path)

    def test_pca_basis_included(self, tmp_path):
        model = self.make_model()
        gen = rng.stream(3)
        model.pca_basis = fit_pca(rng.normal(gen, (20, 6)), 2)
        path = tmp_path / "model.json"
        dataio.save_model(model, path)
        back = dataio.load_model(path)
        np.testing.assert_array_equal(back.pca_basis.components,
                                      model.pca_basis.components)


SMALL_TRAIN = TrainConfig(
    epochs=15, n_samples=48, n_samples_pde=12, n_collocation=5,
    dnn_hidden=(16, 16), dnn_fourier_m=3, fnn_hidden=(16,), fnn_dropout=0.0,
    auto_rescale_weights=True)


@pytest.fixture(scope="module", params=["curves", "fields"])
def trained_run(request, tmp_path_factory):
    """A short `run_experiment` per task: (in-memory model, model path)."""
    root = tmp_path_factory.mktemp(request.param)
    if request.param == "curves":
        paths = synth_fixture("curves", root / "fx", seed=0, taus=[0.0, 0.5])
        extra = dict(grid_points=12, sigma_frac=0.05)
    else:
        paths = synth_fixture("fields", root / "fx", seed=1,
                              taus=[0.0, 0.25, 0.5, 0.75], params={"D": 30})
        extra = dict(pca_d=3, pca_samples=16)
    cfg = RunConfig(task=request.param, data=paths["train"], target_raw=1.0,
                    train=SMALL_TRAIN, gen_samples=128,
                    out_dir=str(root / "out"), seed=0, **extra)
    _, model, artifacts = run_experiment(cfg)
    return model, artifacts["model"]


def assert_generates_like(back, model):
    for t in (0.3, 1.0):
        np.testing.assert_array_equal(generate_mean(back, t, n=256, seed=3),
                                      generate_mean(model, t, n=256, seed=3))
        a = generate_density(back, t, n=256, seed=3)
        b = generate_density(model, t, n=256, seed=3)
        np.testing.assert_array_equal(a.points, b.points)
        assert a.dropped_fraction == b.dropped_fraction


def key_paths(doc, prefix=()):
    """Every key path of `doc` outside `config`; list elements at index 0."""
    items = (doc.items() if isinstance(doc, dict)
             else [(0, doc[0])] if isinstance(doc, list) and doc else [])
    for k, v in items:
        if isinstance(k, str):
            yield prefix + (k,)
        if k != "config":
            yield from key_paths(v, prefix + (k,))


def without(doc, keys):
    """A deep copy of `doc` without the key at path `keys`."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for k in keys[:-1]:
        parent = parent[k]
    del parent[keys[-1]]
    return doc


def with_list_weight(doc):
    """`doc` with a weight array as the list of numbers formats 1-2 held."""
    layer = doc["displacement"]["net"]["layers"][0]
    layer["weight"] = dataio._arr_in(layer["weight"]).tolist()
    return doc


class TestSavedRunRoundtrip:
    def test_reloaded_model_generates_bit_for_bit(self, trained_run):
        model, path = trained_run
        assert model.scaler is not None
        assert_generates_like(dataio.load_model(path), model)

    def test_resaved_model_is_byte_identical(self, trained_run, tmp_path):
        # the curve run carries a scaler, the field run a scaler and a basis
        _, path = trained_run
        again = tmp_path / "again.json"
        dataio.save_model(dataio.load_model(path), again)
        assert again.read_bytes() == Path(path).read_bytes()

    def test_every_key_outside_config_is_read(self, trained_run, tmp_path):
        # the writer writes only what the reader needs: dropping any key
        # fails the load, naming the file
        _, path = trained_run
        doc = json.loads(Path(path).read_text())
        paths = list(key_paths(doc))
        assert ("displacement", "embedding", "spectral_weights") in paths
        for keys in paths:
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(without(doc, keys)))
            with pytest.raises(dataio.DataFormatError,
                               match=f"malformed .*{re.escape(str(bad))}"):
                dataio.load_model(bad)

    @pytest.mark.parametrize("legacy, message", [
        (lambda doc: dict(doc, version=3, dropped_fraction=0.0),
         "unsupported model version 3; this reader reads version 4"),
        (lambda doc: dict(doc, version=2),
         "unsupported model version 2; this reader reads version 4"),
        (lambda doc: dict(doc, version=1,
                          preprocessing={"scaler": doc.pop("scaler")}),
         "unsupported model version 1; this reader reads version 4"),
        (lambda doc: dict(doc, config=dict(doc["config"], fd_step=0.001)),
         "unexpected keyword argument 'fd_step'"),
        (with_list_weight, "expected base64 array text, got list"),
    ], ids=["format-3", "format-2", "format-1-preprocessing", "fd-step",
            "list-array"])
    def test_legacy_document_is_rejected(self, trained_run, tmp_path, legacy,
                                         message):
        # model formats 1 and 2 held arrays as lists of numbers and their
        # configs a finite-difference step, and format 3 a dropped fraction
        # and a checkpoint policy; the reader takes format 4 only
        _, path = trained_run
        old = tmp_path / "old.json"
        old.write_text(json.dumps(legacy(json.loads(Path(path).read_text()))))
        with pytest.raises(dataio.DataFormatError,
                           match=f"malformed model document "
                                 f"{re.escape(str(old))}: .*{message}"):
            dataio.load_model(old)


class TestFloat32Generation:
    """The cloud's space jet runs in float32; everything after it, and every
    other caller of the jet, stays float64."""

    def float64_cloud(self, model, t, n, seed):
        # generate_density with the jet fed float64 rows: the oracle
        ref = model.reference_density
        X = ref.sample(n, seed)
        u0, jac = _jet_values(model.displacement, X, t)
        keep = np.linalg.det(jac + np.eye(X.shape[1])) > J_MIN
        return (X + u0)[keep], keep

    @pytest.mark.parametrize("t", [0.3, 1.0])
    def test_cloud_matches_a_float64_evaluation(self, trained_run, t):
        model, _ = trained_run
        cloud = generate_density(model, t, n=3000, seed=5)
        points, keep = self.float64_cloud(model, t, 3000, 5)
        assert cloud.points.dtype == np.float64
        assert cloud.dropped_fraction == 1.0 - keep.mean()
        assert cloud.points.shape == points.shape
        scale = np.ptp(points, axis=0)
        assert np.all(np.abs(cloud.points - points) <= 1e-6 * scale)
        assert not np.array_equal(cloud.points, points)  # float32 in effect

    def test_other_jet_callers_keep_float64_bits(self, trained_run):
        model, _ = trained_run
        X = model.reference_density.sample(500, 2)
        jac = _jet_values(model.displacement, X, 0.7)[1]
        with ad.no_grad():
            oracle = model.displacement.jet(X, 0.7)[1].value
        assert jac.dtype == np.float64
        np.testing.assert_array_equal(jac, oracle)
        ref = model.reference_density
        if isinstance(ref, GaussianCurveDensity):  # maps the mean curve
            P = ref.mean_curve()
            mapped = P + model.displacement.u_values(P, 0.7)
            mean = model.to_data_units(
                mapped[np.argsort(mapped[:, 0], kind="stable")])
            got = generate_mean(model, 0.7)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, mean)


LAYER0 = ("displacement", "net", "layers", 0)


@pytest.mark.parametrize("keys, value", [
    (("displacement",), None),
    (("body_force", "net", "layers"), 7),
    (LAYER0 + ("weight",), 3.5),
    (LAYER0 + ("weight",), "not*base64"),
    (LAYER0 + ("bias",), "AAAA"),
    (LAYER0 + ("bias",), base64.b64encode(bytes(8)).decode()),
    (("reference_density",), None),
], ids=["missing-key", "wrong-type", "number-for-array", "invalid-base64",
        "partial-float", "size-off-shape", "no-reference-density"])
def test_malformed_document_is_typed_error(trained_run, tmp_path, keys,
                                           value):
    _, path = trained_run
    doc = json.loads(Path(path).read_text())
    parent = doc
    for k in keys[:-1]:
        parent = parent[k]
    if value is None:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(dataio.DataFormatError,
                       match=f"malformed .*{re.escape(str(bad))}"):
        dataio.load_model(bad)
    assert cli.main(["generate", "--model", str(bad), "--target", "1.0",
                     "--out", str(tmp_path / "gen.csv")]) == 2


def test_write_table_formats_like_a_per_cell_float_oracle(tmp_path):
    values = np.array([[0.0, -0.0, 5e-324, -2.2250738585072014e-308],
                       [1e308, -1e308, 1.0 / 3.0, -123456.789012345678],
                       [2.5e-310, 7.0, -1e-5, 0.1 + 0.2]])
    oracle = "".join(",".join(f"{float(v):.12g}" for v in row) + "\r\n"
                     for row in values)
    for rows in (values, zip(*values.T)):  # an array, and zipped columns
        path = tmp_path / "t.csv"
        dataio.write_table(path, ["a", "b", "c", "d"], rows)
        assert path.read_bytes() == ("a,b,c,d\r\n" + oracle).encode()


def test_default_model_document_stays_binary_sized(tmp_path):
    # text floats take about 22 bytes each, base64 float64 bytes 10.7
    ds = SnapshotDataset([
        Snapshot(0.0, ReducedGaussianDensity([0.0, 0.0], 0.1)),
        Snapshot(1.0, ReducedGaussianDensity([0.5, 0.2], 0.1))])
    model = init_model(ds, ConditionNormalizer("linear", 0.0, 1.0),
                       TrainConfig())
    model.loss_history = [(1.0, 0.5, 0.25, 0.25, 0.0)]  # a trained model
    n_params = sum(p.value.size for p in model.parameters())
    path = tmp_path / "model.json"
    dataio.save_model(model, path)
    assert path.stat().st_size < 11 * n_params + 64 * 1024


def test_writer_refuses_an_untrained_model(tmp_path):
    # the reader refuses an empty loss history, so the writer does too
    model = TestModelRoundtrip().make_model()
    model.loss_history = []
    path = tmp_path / "model.json"
    with pytest.raises(dataio.DataFormatError,
                       match="^empty loss history: model never trained$"):
        dataio.save_model(model, path)
    assert not path.exists()


def test_run_config_with_legacy_fd_step_is_validation_exit(tmp_path, capsys):
    # the finite-difference step went with the finite differences; like any
    # unknown key it fails the config before a stage runs
    cfg = tmp_path / "cfg.json"
    dataio.write_json(cfg, {"task": "curves", "data": "c.csv",
                            "target_raw": 1.0, "out_dir": str(tmp_path / "out"),
                            "train": {"epochs": 3, "fd_step": 0.001}})
    assert cli.main(["run", "--config", str(cfg)]) == cli.EXIT_VALIDATION
    assert (f"error: malformed run config {cfg}: " in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()
