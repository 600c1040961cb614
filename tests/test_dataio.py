import base64
import json
from pathlib import Path

import numpy as np
import pytest

from otgen import cli, dataio, rng
from otgen.density import CurveSnapshot, GaussianCurveDensity, ReducedGaussianDensity
from otgen.experiment import RunConfig, run_experiment
from otgen.fixtures import synth_fixture
from otgen.pca import fit_pca
from otgen.transport import (AffineScaler, ConditionNormalizer, Snapshot,
                             SnapshotDataset, TrainConfig, generate_density,
                             generate_mean, init_model)

from tests_support_rigs import legacy_model_document


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
                          epochs=0, seed=11)
        model = init_model(ds, ConditionNormalizer("log10", 0.1, 10.0, "1/s"), cfg)
        model.reference_density = ds.reference.density
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
        assert doc["version"] == dataio.MODEL_FORMAT_VERSION == 3
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
        np.testing.assert_array_equal(a.density_values, b.density_values)


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

    def test_format_1_document_generates_like_format_2(self, trained_run,
                                                       tmp_path):
        model, path = trained_run
        doc = legacy_model_document(json.loads(Path(path).read_text()), 1)
        assert isinstance(doc["displacement"]["net"]["layers"][0]["weight"],
                          list)
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(doc))
        assert_generates_like(dataio.load_model(old), model)

    def test_document_with_legacy_fd_step_generates_alike(self, trained_run,
                                                          tmp_path):
        # format-2 documents written before input derivatives became exact
        # still carry the finite-difference step in their config
        model, path = trained_run
        doc = legacy_model_document(json.loads(Path(path).read_text()), 2)
        doc["config"]["fd_step"] = 0.001
        old = tmp_path / "fd_step.json"
        old.write_text(json.dumps(doc))
        assert_generates_like(dataio.load_model(old), model)


LAYER0 = ("displacement", "net", "layers", 0)


@pytest.mark.parametrize("keys, value", [
    (("displacement",), None),
    (("body_force", "net", "layers"), 7),
    (LAYER0 + ("weight",), 3.5),
    (LAYER0 + ("weight",), "not*base64"),
    (LAYER0 + ("bias",), "AAAA"),
    (LAYER0 + ("bias",), base64.b64encode(bytes(8)).decode()),
], ids=["missing-key", "wrong-type", "number-for-array", "invalid-base64",
        "partial-float", "size-off-shape"])
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
    with pytest.raises(dataio.DataFormatError, match="malformed"):
        dataio.load_model(bad)
    assert cli.main(["generate", "--model", str(bad), "--target", "1.0",
                     "--out", str(tmp_path / "gen.csv")]) == 2


def test_default_model_document_stays_binary_sized(tmp_path):
    # text floats take about 22 bytes each, base64 float64 bytes 10.7
    ds = SnapshotDataset([
        Snapshot(0.0, ReducedGaussianDensity([0.0, 0.0], 0.1)),
        Snapshot(1.0, ReducedGaussianDensity([0.5, 0.2], 0.1))])
    model = init_model(ds, ConditionNormalizer("linear", 0.0, 1.0),
                       TrainConfig())
    n_params = sum(p.value.size for p in model.parameters())
    path = tmp_path / "model.json"
    dataio.save_model(model, path)
    assert path.stat().st_size < 11 * n_params + 64 * 1024


def test_run_config_drops_legacy_fd_step():
    cfg = RunConfig.from_dict({"task": "curves", "data": "c.csv",
                               "target_raw": 1.0,
                               "train": {"epochs": 3, "fd_step": 0.001}})
    assert cfg.train.epochs == 3
