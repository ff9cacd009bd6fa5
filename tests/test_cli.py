import argparse
import copy
import dataclasses
import io
import json
import math
import struct
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csisense import channel, cli
from csisense import dataset as dataset_mod
from csisense import errors
from csisense.channel import Scenario
from csisense.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, PRESETS, fit, load_scenario, main
from csisense.errors import ConfigError
from csisense.frame import FrameFile, NormStats
from csisense.sensenet import (Architecture, TrainConfig, TrainedModel, init_params, load_model,
                               save_model, write_training_log)

DATA = Path(__file__).parent / "data"

TINY_SCENARIO = dict(
    name="tiny",
    tx=[0.0, 0.5],
    room_side=2.0,
    receivers=[
        {"position": [2.0, 1.5], "boresight": math.pi},
        {"position": [1.0, 0.0], "boresight": math.pi / 2},
    ],
    n_antennas=4,
    beam_angles=[-0.8, 0.0, 0.8],
    grid_pitch=0.5,
)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_SCENARIO))
    return str(path)


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestPresets:
    @pytest.mark.parametrize("name,links", [("scenario1", 3), ("scenario2", 2),
                                            ("scenario3", 1)])
    def test_preset_deployments(self, name, links):
        s = load_scenario(name)
        assert s.n_links == links
        assert s.n_antennas == 8
        assert s.n_beams == 7
        assert s.room_side == 5.0

    def test_scenarios_are_nested(self):
        s1, s2, s3 = (load_scenario(f"scenario{i}") for i in (1, 2, 3))
        assert s2.receivers == s1.receivers[:2]
        assert s3.receivers == s1.receivers[:1]

    def test_table_beam_angles(self):
        beams = load_scenario("scenario1").beam_angles
        expected = (-math.pi / 2, -math.pi / 3, -math.pi / 6, 0.0,
                    math.pi / 6, math.pi / 3, math.pi / 2)
        assert np.allclose(beams, expected, atol=1e-12)


def descriptor(raw: bytes) -> dict:
    """The JSON descriptor of a model artifact's bytes."""
    (blob_len,) = struct.unpack("<I", raw[6:10])
    return json.loads(raw[10:10 + blob_len])


def with_descriptor(raw: bytes, desc: dict) -> bytes:
    """A model artifact's bytes with its descriptor replaced."""
    (blob_len,) = struct.unpack("<I", raw[6:10])
    blob = json.dumps(desc).encode()
    return raw[:6] + struct.pack("<I", len(blob)) + blob + raw[10 + blob_len:]


def json_paths(doc, path=()):
    """The key path of every value inside a parsed JSON document."""
    items = (doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list)
             else ())
    return [p for key, value in items for p in [path + (key,), *json_paths(value, path + (key,))]]


SMALL_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(), st.text(max_size=3),
    st.lists(st.one_of(st.integers(-3, 9), st.floats(-5, 5), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-1, 1), max_size=2),
)


class TestDocuments:
    """Scenario, manifest and model descriptor go through one typed reader."""

    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_round_trip(self, name):
        doc = json.loads(resources.files("csisense.presets").joinpath(f"{name}.json").read_text())
        d = Scenario.from_dict(doc).to_dict()
        assert json.dumps({key: d[key] for key in doc}) == json.dumps(doc)
        assert Scenario.from_dict(d) == Scenario.from_dict(doc)

    @pytest.mark.parametrize("name", ["res", "pos", "cov"])
    def test_manifest_round_trip(self, name):
        text = (DATA / "pipeline" / name / "manifest.json").read_text()
        m = dataset_mod.DatasetManifest.from_dict(json.loads(text))
        assert json.dumps(m.to_dict(), indent=2, sort_keys=True) + "\n" == text

    @pytest.mark.parametrize("kinds,cls,derived", [
        (channel.SCENARIO_KINDS, Scenario, {}),
        (channel.RECEIVER_KINDS, channel.Receiver, {}),
        (dataset_mod.MANIFEST_KINDS, dataset_mod.DatasetManifest, dataset_mod.DERIVED_KEYS),
    ], ids=["scenario", "receiver", "manifest"])
    def test_each_kinds_table_has_the_fields_of_its_dataclass(self, kinds, cls, derived):
        # a kind left over from a removed field passes read_json, and the
        # constructor then fails with a TypeError traceback instead of exit 2
        want = {f.name + "?" * (f.default is not dataclasses.MISSING)
                for f in dataclasses.fields(cls)}
        assert set(kinds) == want | {f"{key}?" for key in derived}

    @pytest.mark.parametrize("task", ["detect", "locate"])
    def test_descriptor_round_trip(self, tmp_path, task):
        save_model(tmp_path / "again.csnn", load_model(DATA / f"model_{task}.csnn"))
        assert (tmp_path / "again.csnn").read_bytes() == (DATA / f"model_{task}.csnn").read_bytes()

    @settings(deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize("document", ["scenario", "manifest", "descriptor"])
    def test_one_value_replaced_reads_or_raises_config_error(self, tmp_path_factory, document,
                                                            data):
        if document == "scenario":
            doc, read, kind = TINY_SCENARIO, Scenario.from_dict, Scenario
        elif document == "manifest":
            doc = json.loads((DATA / "pipeline" / "pos" / "manifest.json").read_text())
            read, kind = dataset_mod.DatasetManifest.from_dict, dataset_mod.DatasetManifest
        else:
            raw = (DATA / "model_detect.csnn").read_bytes()
            doc, path = descriptor(raw), tmp_path_factory.getbasetemp() / "fuzz.csnn"

            def read(desc):
                path.write_bytes(with_descriptor(raw, desc))
                return load_model(path)
            kind = TrainedModel
        key_path = data.draw(st.sampled_from(json_paths(doc)))
        doc = copy.deepcopy(doc)
        parent = doc
        for key in key_path[:-1]:
            parent = parent[key]
        parent[key_path[-1]] = data.draw(SMALL_JSON)
        try:
            assert isinstance(read(doc), kind)
        except ConfigError:
            pass


class TestGen:
    def test_gen_writes_dataset(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "ds"
        rc = main(["gen", "--scenario", scenario_file, "--protocol", "resolution",
                   "--sigma", "0.4", "--n", "6", "--seed", "7", "--out", str(out)])
        assert rc == 0
        assert {"manifest.json", "frames.bin", "labels.csv"} <= {
            p.name for p in out.iterdir()}
        assert "12 records (6 null, 6 target)" in capsys.readouterr().out

    def test_gen_deterministic_bytes(self, tmp_path, scenario_file):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["gen", "--scenario", scenario_file, "--sigma", "0.4", "--n", "5",
                "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert read_tree(a) == read_tree(b)

    def test_invalid_sigma_exits_2(self, tmp_path, scenario_file, capsys):
        rc = main(["gen", "--scenario", scenario_file, "--sigma", "-1",
                   "--n", "2", "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG

    def test_unknown_scenario_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY_SCENARIO, "bogus": 1}))
        rc = main(["gen", "--scenario", str(bad), "--sigma", "0.4", "--n", "2",
                   "--out", str(tmp_path / "x")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("made", ["out", "out/a/b"], ids=["one", "nested"])
    def test_failed_gen_removes_the_directories_it_made(self, tmp_path, capsys, made):
        # generation stops at the first target center after the directory is made
        out = tmp_path / made
        rc = main(["gen", "--scenario", "scenario1", "--sigma", "4.99", "--n", "1",
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "no margin-valid center for a 4.99 m target")
        assert list(tmp_path.iterdir()) == []

    def test_failed_gen_keeps_a_directory_it_found(self, tmp_path, capsys):
        (tmp_path / "old").mkdir()
        rc = main(["gen", "--scenario", "scenario1", "--sigma", "4.99", "--n", "1",
                   "--out", str(tmp_path / "old")])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "no margin-valid center")
        assert [p.name for p in tmp_path.iterdir()] == ["old"]
        assert list((tmp_path / "old").iterdir()) == []

    @pytest.mark.parametrize("document,message", [
        (lambda s: [], "must be a JSON object, got list"),
        (lambda s: None, "must be a JSON object, got NoneType"),
        (lambda s: "scenario1", "must be a JSON object, got str"),
        (lambda s: {**s, "n_clusters": 2.5}, "n_clusters must be a JSON integer, got 2.5"),
        (lambda s: {**s, "n_rays": 2.5}, "n_rays must be a JSON integer, got 2.5"),
        (lambda s: {**s, "n_scatter": 2.5}, "n_scatter must be a JSON integer, got 2.5"),
        (lambda s: {**s, "n_clusters": True}, "n_clusters must be a JSON integer, got True"),
        (lambda s: {**s, "env_seed": 1.5}, "env_seed must be a JSON integer, got 1.5"),
        (lambda s: {**s, "n_antennas": True}, "n_antennas must be a JSON integer, got True"),
        (lambda s: {**s, "n_antennas": 2.5}, "n_antennas must be a JSON integer, got 2.5"),
        (lambda s: {**s, "n_antennas": 0},
         "need n_antennas >= 1, n_clusters >= 1, n_rays >= 1, n_scatter >= 0"),
        (lambda s: {**s, "beam_angles": []}, "beam_angles must name at least one beam"),
        (lambda s: {**s, "cluster_spread_deg": -1.0},
         "cluster_spread_deg must be >= 0, got -1.0"),
        (lambda s: {**s, "tx": ["0.0", "0.5"]}, "tx[0] must be a JSON number, got '0.0'"),
        (lambda s: {**s, "receivers": [{**s["receivers"][0], "boresight": "3.141592653589793"},
                                       s["receivers"][1]]},
         "receivers[0].boresight must be a JSON number, got '3.141592653589793'"),
        (lambda s: {**s, "beam_angles": [-0.8, False, 0.8]},
         "beam_angles[1] must be a JSON number, got False"),
        (lambda s: {**s, "name": 5}, "name must be a JSON string, got 5"),
        (lambda s: {**s, "snr_db": True}, "snr_db must be a JSON number, got True"),
        (lambda s: {**s, "grid_pitch": True}, "grid_pitch must be a JSON number, got True"),
        # numpy's SeedSequence used to reject it later, without naming the key
        (lambda s: {**s, "env_seed": -1}, "env_seed must be >= 0, got -1"),
        # 10 ** 400 used to overflow in Scenario.noise_level, a traceback
        (lambda s: {**s, "snr_db": -4000.0},
         "snr_db must be >= -3082 or inf (noiseless), got -4000.0"),
        # once read as fixed-true keys and dropped
        (lambda s: {**s, "tx_omni": True}, "key 'tx_omni'"),
        (lambda s: {**s, "narrowband": True}, "key 'narrowband'"),
        # once a key of its own; los_gain 0 gives the same frames
        (lambda s: {**s, "include_los": False}, "key 'include_los'"),
        # once a key of each receiver; n_antennas is the scenario's
        (lambda s: {**s, "receivers": [{**s["receivers"][0], "n_antennas": 4},
                                       s["receivers"][1]]},
         "key 'receivers[0].n_antennas'"),
        # json_bytes writes the lone surrogate as the byte 0xf6; the error used to name no file
        (lambda s: {**s, "name": "tiny\udcf6"}, "codec can't decode byte 0xf6"),
    ], ids=["list", "null", "string", "float-n_clusters", "float-n_rays", "float-n_scatter",
            "bool-n_clusters", "float-env_seed", "bool-n_antennas", "float-n_antennas",
            "zero-n_antennas", "empty-beam_angles", "negative-cluster_spread_deg",
            "string-tx", "string-boresight", "false-beam_angle", "int-name", "bool-snr_db",
            "bool-grid_pitch", "negative-env_seed", "overflowing-snr_db", "tx_omni",
            "narrowband", "include_los", "receiver-n_antennas", "not-utf8"])
    @pytest.mark.parametrize("where", ["scenario", "manifest"])
    def test_malformed_scenario_json_exits_2(self, tmp_path, scenario_file, capsys, where,
                                             document, message):
        # each used to end in a traceback, or to be read as some other value
        scenario = document(TINY_SCENARIO)
        out = tmp_path / "out"
        needles = [message]
        if where == "scenario":
            path = tmp_path / "bad.json"
            path.write_bytes(json_bytes(scenario))
            argv = ["gen", "--scenario", str(path), "--n", "2", "--out", str(out)]
            if "decode" in message:     # a file that does not decode is named
                needles.append(f"{path}: invalid JSON: ")
        else:
            data = tiny_dataset(tmp_path / "ds", scenario_file)
            manifest_path = tmp_path / "ds" / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            manifest["scenario"] = scenario
            manifest_path.write_bytes(json_bytes(manifest))
            argv = ["train", "--data", data, "--epochs", "1", "--out", str(out)]
            # a key is named by its path in the manifest
            needles = [message.replace("key '", "key 'scenario."),
                       f"{manifest_path}: malformed manifest: "]
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        assert_one_line_error(capsys, *needles)
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["nan", "-inf"])
    def test_non_finite_snr_exits_2(self, tmp_path, scenario_file, capsys, snr):
        out = tmp_path / "x"
        rc = main(["gen", "--scenario", scenario_file, "--sigma", "0.4", "--n", "2",
                   f"--snr-db={snr}", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "snr_db" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen", "baseline"])
    def test_snr_beyond_the_float_range_exits_2(self, tmp_path, scenario_file, capsys,
                                                command):
        # --snr-db -4000 used to exit 1 with an OverflowError traceback
        out = tmp_path / "x"
        argv = ["gen", "--n", "2"] if command == "gen" else ["baseline", "--drops", "2"]
        rc = main(argv + ["--scenario", scenario_file, "--sigma", "0.4",
                          "--snr-db=-4000", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "snr_db must be >= -3082 or inf (noiseless), got -4000.0")
        assert not out.exists()

    def test_lowest_snr_still_runs(self, tmp_path, scenario_file):
        # its noise level, 10 ** 308.2, is still a float
        rc = main(["gen", "--scenario", scenario_file, "--sigma", "0.4", "--n", "2",
                   "--snr-db=-3082", "--out", str(tmp_path / "x")])
        assert rc == 0

    @pytest.mark.parametrize("flag", ["--snr-db=-3082", "--scatter-coeff=1e160"])
    def test_train_refuses_overflowed_statistics(self, tmp_path, scenario_file, capsys, flag):
        # the frames are finite, their sum of squares is not; train used to exit 0
        # with a model whose norm_std [inf, inf] eval then rejected
        ds, model = tmp_path / "ds", tmp_path / "m.csnn"
        assert main(["gen", "--scenario", scenario_file, "--sigma", "0.4", "--n", "2",
                     flag, "--out", str(ds)]) == 0
        capsys.readouterr()
        rc = main(["train", "--data", str(ds), "--task", "detect", "--epochs", "1",
                   "--out", str(model)])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "the training frames' mean", "is not finite")
        assert not model.exists()

    def test_paper_scale_counts(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "full"
        rc = main(["gen", "--scenario", scenario_file, "--protocol", "resolution",
                   "--sigma", "0.4", "--seed", "1", "--paper-scale",
                   "--out", str(out)])
        assert rc == 0
        assert "4000 records (2000 null, 2000 target)" in capsys.readouterr().out

    def test_binned_protocol(self, tmp_path, scenario_file):
        out = tmp_path / "cov"
        rc = main(["gen", "--scenario", scenario_file, "--protocol", "coverage",
                   "--sigma", "0.4", "--n", "2", "--pitch", "1.0", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["protocol"] == "coverage"
        assert manifest["grid_pitch"] == 1.0


class TestTrainEvalFlow:
    @pytest.fixture
    def dataset_dir(self, tmp_path, scenario_file):
        out = tmp_path / "ds"
        assert main(["gen", "--scenario", scenario_file, "--sigma", "0.6",
                     "--n", "20", "--seed", "5", "--out", str(out)]) == 0
        return out

    def test_train_eval_detect(self, tmp_path, scenario_file, dataset_dir, capsys):
        model = tmp_path / "det.csnn"
        rc = main(["train", "--data", str(dataset_dir), "--task", "detect",
                   "--epochs", "3", "--seed", "1", "--out", str(model)])
        assert rc == 0
        assert model.exists() and model.with_suffix(".csnn.log.csv").exists()
        out_csv = tmp_path / "eval.csv"
        rc = main(["eval", "--model", str(model), "--scenario", scenario_file,
                   "--sigma", "0.6", "--drops", "5", "--seed", "2",
                   "--out", str(out_csv)])
        assert rc == 0
        assert out_csv.read_text().splitlines()[0] == "sigma,P,n"

    def test_resolution_sweep(self, tmp_path, scenario_file, dataset_dir, capsys):
        model = tmp_path / "det.csnn"
        assert main(["train", "--data", str(dataset_dir), "--task", "detect",
                     "--epochs", "2", "--seed", "1", "--out", str(model)]) == 0
        out_csv = tmp_path / "res.csv"
        rc = main(["eval", "--model", str(model), "--scenario", scenario_file,
                   "--sigmas", "0.3,0.6", "--gamma", "0.5", "--drops", "4",
                   "--seed", "2", "--out", str(out_csv)])
        assert rc == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "sigma,P,n" and len(lines) == 3
        assert "resolution at gamma=0.5" in capsys.readouterr().out

    def test_train_rerun_byte_identical(self, tmp_path, dataset_dir):
        args = ["train", "--data", str(dataset_dir), "--task", "detect",
                "--epochs", "2", "--seed", "9"]
        a, b = tmp_path / "a.csnn", tmp_path / "b.csnn"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_detect_eval_defaults_to_700_drops(self, tmp_path, scenario_file,
                                               dataset_dir, capsys):
        model = tmp_path / "det.csnn"
        assert main(["train", "--data", str(dataset_dir), "--task", "detect",
                     "--epochs", "2", "--seed", "1", "--out", str(model)]) == 0
        rc = main(["eval", "--model", str(model), "--scenario", scenario_file,
                   "--sigma", "0.6", "--seed", "2", "--out", str(tmp_path / "e.csv")])
        assert rc == 0
        assert "over 700 drops/hypothesis" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [("--epochs", "0"), ("--patience", "-1"),
                                            ("--batch", "0")])
    def test_invalid_training_length_exits_2(self, tmp_path, dataset_dir, capsys,
                                             flag, value):
        model = tmp_path / "m.csnn"
        rc = main(["train", "--data", str(dataset_dir), flag, value, "--out", str(model)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert err.startswith(f"error: {flag} must be >= ") and err.endswith(f", got {value}\n")
        assert not model.exists()

    def test_truncated_model_exits_2(self, tmp_path, scenario_file, capsys):
        model = tmp_path / "short.csnn"
        model.write_bytes(b"CSNN\x01\x00\x00")
        rc = main(["eval", "--model", str(model), "--scenario", scenario_file,
                   "--out", str(tmp_path / "e.csv")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {model}: truncated model header\n"

    def test_flag_defaults_are_the_train_config_defaults(self, tmp_path, dataset_dir):
        # a train flag's default that drifted from TrainConfig's would train another model,
        # or the same best checkpoint after another number of epochs
        model, want = tmp_path / "m.csnn", tmp_path / "want.csnn"
        assert main(["train", "--data", str(dataset_dir), "--out", str(model)]) == 0
        trained, log = fit(dataset_mod.load_dataset(dataset_dir), TrainConfig())
        save_model(want, trained)
        assert model.read_bytes() == want.read_bytes()
        text = io.StringIO()
        write_training_log(text, log)
        assert (tmp_path / "m.csnn.log.csv").read_text() == text.getvalue()
        args = cli.build_parser().parse_args(["train", "--data", "d", "--out", "m"])
        assert args.val_frac == dataset_mod.VAL_FRACTION

    @pytest.mark.parametrize("command", ["train", "coverage"])
    def test_second_output_on_out_exits_2(self, tmp_path, scenario_file, dataset_dir, capsys,
                                          command):
        # train --log X --out X used to leave the log at X after printing "model -> X",
        # and coverage --pgm X --out X the PGM
        out = tmp_path / "x"
        if command == "train":
            argv = ["train", "--data", str(dataset_dir), "--epochs", "1", "--log", str(out)]
        else:
            argv = ["coverage", "--model", untrained_model(tmp_path / "det.csnn", "detect"),
                    "--scenario", scenario_file, "--sigma", "0.4", "--pitch", "1.0",
                    "--drops-per-bin", "2", "--pgm", f"{tmp_path}/./x"]
        before = sorted(tmp_path.iterdir())
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        flag = "--log" if command == "train" else "--pgm"
        assert_one_line_error(capsys, f"{flag} and --out name the same file")
        assert sorted(tmp_path.iterdir()) == before

    def test_failed_log_write_leaves_no_model(self, tmp_path, dataset_dir, capsys):
        # the model used to be written first, and stayed when the log could not be
        model = tmp_path / "m.csnn"
        rc = main(["train", "--data", str(dataset_dir), "--epochs", "1",
                   "--log", str(tmp_path / "missing" / "log.csv"), "--out", str(model)])
        assert rc == EXIT_IO
        assert_one_line_error(capsys, "missing")
        assert not model.exists()

    def test_validation_read_error_propagates(self, dataset_dir, monkeypatch):
        # frames.bin is emptied before the second read, the validation split's:
        # its error is not taken for a split without validation rows
        ds = dataset_mod.load_dataset(dataset_dir)
        read, calls = FrameFile.__getitem__, []

        def failing_read(frames, rows):
            calls.append(rows)
            if len(calls) == 2:
                frames.path.write_bytes(b"")
            return read(frames, rows)
        monkeypatch.setattr(FrameFile, "__getitem__", failing_read)
        with pytest.raises(ConfigError, match="shorter than when it was opened"):
            fit(ds, TrainConfig("detect", epochs=1))
        assert len(calls) == 2

    @pytest.mark.parametrize("config,message", [
        (dict(epochs=0), "epochs must be >= 1, got 0"),
        (dict(batch_size=0), "batch size must be >= 1, got 0"),
        (dict(learning_rate=-1.0), "learning rate must be finite and >= 0, got -1.0"),
        (dict(learning_rate=math.nan), "learning rate must be finite and >= 0, got nan"),
        (dict(learning_rate=math.inf), "learning rate must be finite and >= 0, got inf"),
        (dict(patience=-1), "patience must be >= 0, got -1"),
        (dict(task="classify"), "task must be detect or locate, got 'classify'"),
    ], ids=["zero-epochs", "zero-batch_size", "negative-lr", "nan-lr", "inf-lr",
            "negative-patience", "unknown-task"])
    def test_fit_rejects_a_train_config_out_of_its_limits(self, dataset_dir, config, message):
        # TrainConfig checks what fit() callers pass; the train flags check their own
        ds = dataset_mod.load_dataset(dataset_dir)
        with pytest.raises(ConfigError) as exc:
            fit(ds, TrainConfig(**{"task": "detect", **config}))
        assert str(exc.value) == message

    @pytest.mark.parametrize("task", ["detect", "locate"])
    def test_split_without_validation_rows_trains(self, dataset_dir, task):
        ds = dataset_mod.load_dataset(dataset_dir)
        model, log = fit(ds, TrainConfig(task, epochs=2), val_fraction=0.0)
        assert model.task == task and len(log) == 2
        assert all(math.isnan(e.val_loss) and math.isnan(e.val_metric) for e in log)

    def test_train_missing_dataset_exits_3(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nope"), "--out",
                   str(tmp_path / "m.csnn")])
        assert rc == EXIT_IO

    def test_locate_train_and_eval(self, tmp_path, scenario_file, capsys):
        ds = tmp_path / "pos"
        assert main(["gen", "--scenario", scenario_file, "--protocol", "positioning",
                     "--sigma", "0.4", "--n", "4", "--pitch", "1.0", "--seed", "4",
                     "--out", str(ds)]) == 0
        model = tmp_path / "loc.csnn"
        assert main(["train", "--data", str(ds), "--task", "locate",
                     "--epochs", "3", "--seed", "1", "--out", str(model)]) == 0
        out_csv = tmp_path / "pos.csv"
        rc = main(["eval", "--model", str(model), "--scenario", scenario_file,
                   "--sigma", "0.4", "--drops", "6", "--seed", "3",
                   "--out", str(out_csv)])
        assert rc == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "drop,err" and len(lines) == 7
        # without --drops the positioning evaluation defaults to 1000
        rc = main(["eval", "--model", str(model), "--scenario", scenario_file,
                   "--sigma", "0.4", "--seed", "3", "--out", str(out_csv)])
        assert rc == 0
        assert len(out_csv.read_text().strip().splitlines()) == 1001


class TestCoverageAndBaseline:
    @pytest.fixture
    def detect_model(self, tmp_path, scenario_file):
        ds = tmp_path / "ds"
        assert main(["gen", "--scenario", scenario_file, "--sigma", "0.6",
                     "--n", "10", "--seed", "5", "--out", str(ds)]) == 0
        model = tmp_path / "m.csnn"
        assert main(["train", "--data", str(ds), "--task", "detect",
                     "--epochs", "2", "--seed", "1", "--out", str(model)]) == 0
        return model

    def test_coverage_outputs(self, tmp_path, scenario_file, detect_model):
        csv_path, pgm_path = tmp_path / "cov.csv", tmp_path / "cov.pgm"
        rc = main(["coverage", "--model", str(detect_model), "--scenario",
                   scenario_file, "--sigma", "0.4", "--pitch", "1.0",
                   "--drops-per-bin", "2", "--seed", "2",
                   "--out", str(csv_path), "--pgm", str(pgm_path)])
        assert rc == 0
        assert csv_path.read_text().splitlines()[0] == "bin_x,bin_y,P,n"
        assert pgm_path.read_text().startswith("P2\n")

    def test_coverage_single_bin_room(self, tmp_path, scenario_file, detect_model):
        csv_path = tmp_path / "one.csv"
        rc = main(["coverage", "--model", str(detect_model), "--scenario",
                   scenario_file, "--sigma", "0.4", "--pitch", "2.0",
                   "--drops-per-bin", "2", "--seed", "2", "--out", str(csv_path)])
        assert rc == 0
        assert len(csv_path.read_text().strip().splitlines()) == 2  # header + 1 bin

    def test_coverage_without_valid_bin_exits_2(self, tmp_path, scenario_file,
                                                 detect_model, capsys):
        # a 1.2 m target keeps 0.6 m from the walls: no 1 m bin center qualifies
        rc = main(["coverage", "--model", str(detect_model), "--scenario",
                   scenario_file, "--sigma", "1.2", "--pitch", "1.0",
                   "--drops-per-bin", "2", "--out", str(tmp_path / "c.csv")])
        assert rc == EXIT_CONFIG
        assert "no margin-valid bin centers at pitch 1.0" in capsys.readouterr().err

    def test_baseline_csv(self, tmp_path, scenario_file, capsys):
        out = tmp_path / "base.csv"
        rc = main(["baseline", "--scenario", scenario_file, "--sigma", "0.4",
                   "--drops", "4", "--seed", "6", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "drop,true_x,true_y,est_x,est_y,error_m,variant"
        assert len(lines) == 1 + 2 * 4  # both variants on the same drops
        printed = capsys.readouterr().out
        assert "swept-7" in printed and "overlapped-180" in printed

    def test_baseline_refuses_overflowed_profiles(self, tmp_path, scenario_file, capsys):
        # the beamformed energies overflow; baseline used to warn, exit 0 and write
        # the same estimate for every drop from NaN profiles (pyproject turns any
        # warning into an error, so this also checks that none is shown)
        out = tmp_path / "base.csv"
        rc = main(["baseline", "--scenario", scenario_file, "--sigma", "0.4",
                   "--drops", "3", "--snr-db=-3082", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "attenuation profile of drop 0 is not finite")
        assert not out.exists()

    def test_baseline_deterministic(self, tmp_path, scenario_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["baseline", "--scenario", scenario_file, "--sigma", "0.4",
                "--drops", "3", "--seed", "6", "--variant", "swept7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestVariantFlags:
    def test_no_los_and_snr(self, tmp_path, scenario_file):
        out = tmp_path / "ds"
        rc = main(["gen", "--scenario", scenario_file, "--sigma", "0.4", "--n", "2",
                   "--seed", "1", "--no-los", "--snr-db", "inf",
                   "--scatter-coeff", "0.5", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"]["los_gain"] == 0.0
        assert "include_los" not in manifest["scenario"]
        assert manifest["scenario"]["snr_db"] == float("inf")
        assert manifest["scenario"]["scatter_coeff"] == 0.5


def untrained_model(path, task):
    """A model artifact of the tiny scenario's input shape, straight from init_params."""
    params = init_params(Architecture(input_shape=(8, 3, 2)), 0, task)
    save_model(path, TrainedModel(params, NormStats((0.0, 0.0), (1.0, 1.0))))
    return str(path)


def tiny_dataset(path, scenario_file):
    assert main(["gen", "--scenario", scenario_file, "--n", "4", "--seed", "1",
                 "--out", str(path)]) == 0
    return str(path)


def json_bytes(document) -> bytes:
    """`document` as JSON text whose lone surrogates, such as "\udcf6", are the
    bytes they escape (0xf6), so a test can write a file that is not UTF-8."""
    return json.dumps(document, ensure_ascii=False).encode("utf-8", "surrogateescape")


def assert_one_line_error(capsys, *needles):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1, err
    for needle in needles:
        assert needle in err, err


class TestBadFlags:
    @pytest.fixture
    def commands(self, tmp_path, scenario_file):
        det = untrained_model(tmp_path / "det.csnn", "detect")
        out = str(tmp_path / "out")
        return {
            "gen": ["gen", "--scenario", scenario_file, "--n", "2", "--out", out],
            "eval": ["eval", "--model", det, "--scenario", scenario_file, "--drops", "2",
                     "--out", out],
            "coverage": ["coverage", "--model", det, "--scenario", scenario_file,
                         "--pitch", "1.0", "--drops-per-bin", "2", "--out", out],
            "baseline": ["baseline", "--scenario", scenario_file, "--drops", "2",
                         "--out", out],
            "train": ["train", "--data", tiny_dataset(tmp_path / "ds", scenario_file),
                      "--epochs", "1", "--out", out],
        }

    @pytest.mark.parametrize("command", ["gen", "eval", "coverage", "baseline"])
    @pytest.mark.parametrize("sigma", ["nan", "inf", "0", "-0.5"])
    def test_bad_sigma_exits_2(self, tmp_path, commands, capsys, command, sigma):
        rc = main(commands[command] + [f"--sigma={sigma}"])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "--sigma must be finite and > 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sigmas", ["0.3,nan", "inf,0.5", "0,0.5", "0.3,-1"])
    def test_bad_sigmas_exits_2(self, commands, capsys, sigmas):
        rc = main(commands["eval"] + ["--sigmas", sigmas])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "--sigmas must be finite and > 0")

    @pytest.mark.parametrize("command,flag", [("eval", "--drops"),
                                              ("coverage", "--drops-per-bin"),
                                              ("baseline", "--drops")])
    def test_zero_drops_exits_2(self, tmp_path, commands, capsys, command, flag):
        rc = main(commands[command] + [flag, "0"])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, f"{flag} must be >= 1, got 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag,extra", [
        ("eval", "--threshold", []),
        ("coverage", "--threshold", []),
        ("eval", "--gamma", ["--sigmas", "0.5,0.6"]),
        ("train", "--lr", []),
        ("train", "--val-frac", []),
        ("gen", "--pitch", ["--protocol", "coverage"]),
        ("coverage", "--pitch", []),
    ])
    def test_nan_float_flag_exits_2(self, tmp_path, commands, capsys, command, flag, extra):
        rc = main(commands[command] + extra + [flag, "nan"])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, f"{flag} must be a finite number", "got nan")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n", ["-3", "0"])
    @pytest.mark.parametrize("protocol", ["resolution", "coverage"])
    def test_nonpositive_n_exits_2(self, tmp_path, commands, capsys, protocol, n):
        rc = main(commands["gen"] + ["--protocol", protocol, "--n", n])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, f"--n must be >= 1, got {n}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("protocol", ["resolution", "positioning"])
    def test_dataset_past_the_size_bound_exits_2(self, tmp_path, commands, capsys, protocol):
        # the label columns of 10**12 records per hypothesis used to be built in memory
        rc = main(commands["gen"] + ["--protocol", protocol, "--n", str(10**12)])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, f"records: a dataset holds at most "
                                      f"{dataset_mod.MAX_RECORDS}")
        assert not (tmp_path / "out").exists()

    def test_size_bound_admits_max_records(self, tmp_path, commands, capsys, monkeypatch):
        monkeypatch.setattr(dataset_mod, "MAX_RECORDS", 8)
        assert main(commands["gen"] + ["--n", "4"]) == 0
        assert main(commands["gen"] + ["--n", "5"]) == EXIT_CONFIG
        assert_one_line_error(capsys, "10 records: a dataset holds at most 8")

    @pytest.mark.parametrize("command,flag,extra,value", [
        ("eval", "--threshold", [], "7"),
        ("eval", "--threshold", [], "-0.1"),
        ("coverage", "--threshold", [], "1.5"),
        ("eval", "--gamma", ["--sigmas", "0.5,0.6"], "5"),
        ("eval", "--gamma", ["--sigmas", "0.5,0.6"], "-1"),
    ])
    def test_probability_flag_outside_unit_interval_exits_2(
            self, tmp_path, commands, capsys, command, flag, extra, value):
        rc = main(commands[command] + extra + [flag, value])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, f"{flag} must be a finite number in [0, 1], got")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag,extra,value,message", [
        ("gen", "--pitch", ["--protocol", "coverage"], "inf", "--pitch must be a finite number, "
                                                             "got inf"),
        ("train", "--lr", [], "-1", "--lr must be a finite number >= 0, got -1.0"),
        ("train", "--val-frac", [], "1.5", "--val-frac must be a finite number in [0, 1], got 1.5"),
    ], ids=["inf-pitch", "negative-lr", "val-frac-above-1"])
    def test_float_flag_message_names_only_finite_bounds(
            self, tmp_path, commands, capsys, command, flag, extra, value, message):
        rc = main(commands[command] + extra + [flag, value])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_threshold_on_locate_model_exits_2(self, tmp_path, scenario_file, capsys):
        loc = untrained_model(tmp_path / "loc.csnn", "locate")
        out = tmp_path / "e.csv"
        rc = main(["eval", "--model", loc, "--scenario", scenario_file, "--drops", "2",
                   "--threshold", "0.3", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "--threshold needs a detect model", "is a locate model")
        assert not out.exists()

    @pytest.mark.parametrize("task", ["detect", "locate"])
    def test_gamma_without_sigmas_exits_2(self, tmp_path, scenario_file, capsys, task):
        # the gamma used to be ignored
        model = untrained_model(tmp_path / f"{task}.csnn", task)
        out = tmp_path / "e.csv"
        rc = main(["eval", "--model", model, "--scenario", scenario_file, "--drops", "2",
                   "--gamma", "0.3", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "error: --gamma applies only to a --sigmas sweep\n")
        assert not out.exists()

    def test_sigma_with_sigmas_exits_2(self, tmp_path, commands, capsys):
        # the --sigma used to be ignored
        assert main(commands["eval"] + ["--sigmas", "0.4", "--sigma", "3.0"]) == EXIT_CONFIG
        assert_one_line_error(capsys, "error: --sigma does not apply to a --sigmas sweep\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sigmas", ["0.4,,0.6", "0.4,big", ",", ""])
    def test_unreadable_sigmas_exits_2(self, tmp_path, commands, capsys, sigmas):
        assert main(commands["eval"] + ["--sigmas", sigmas]) == EXIT_CONFIG
        assert_one_line_error(capsys, f"error: --sigmas must be comma-separated numbers, "
                                      f"got {sigmas!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag", [("gen", "--n"), ("coverage", "--drops-per-bin")])
    def test_paper_scale_with_an_explicit_count_exits_2(self, tmp_path, commands, capsys,
                                                        command, flag):
        # the count used to win and --paper-scale was silently ignored
        assert main(commands[command] + ["--paper-scale"]) == EXIT_CONFIG
        assert_one_line_error(capsys, f"error: --paper-scale sets {flag}; give one of them\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,flag,message", [
        ("gen", "--n", "invalid int value: 'abc'"),
        ("train", "--lr", "invalid float value: 'abc'"),
        ("eval", "--seed", "invalid int value: 'abc'"),
        ("gen", "--sigma", "invalid float value: 'abc'"),
    ])
    def test_non_numeric_value_keeps_the_argparse_error(self, tmp_path, commands, capsys,
                                                        command, flag, message):
        with pytest.raises(SystemExit) as exc:
            main(commands[command] + [flag, "abc"])
        assert exc.value.code == EXIT_CONFIG
        assert f"error: argument {flag}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_numeric_flag_is_checked_where_it_is_declared(self):
        # Scenario checks --snr-db and --scatter-coeff and names the key they override
        # (test_snr_beyond_the_float_range_exits_2 pins that message)
        unchecked = {"--snr-db", "--scatter-coeff"}
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        bare = sorted({(name, action.option_strings[-1])
                       for name, command in subparsers.choices.items()
                       for action in command._actions
                       if action.type in (int, float)
                       and action.option_strings[-1] not in unchecked})
        assert not bare, f"flags parsed by the bare int or float: {bare}"

    def test_eval_sigma_and_gamma_defaults(self, tmp_path, commands, capsys):
        assert main(commands["eval"]) == 0
        assert (tmp_path / "out").read_text().splitlines()[1].startswith("0.8,")
        assert main(commands["eval"] + ["--sigmas", "0.4,0.6"]) == 0
        assert "resolution at gamma=0.9: " in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["gen", "train", "eval", "coverage", "baseline"])
    def test_negative_seed_exits_2(self, tmp_path, commands, capsys, command):
        rc = main(commands[command] + ["--seed", "-1"])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "--seed must be >= 0, got -1")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["gen", "coverage", "manifest", "scenario"])
    def test_pitch_past_the_tiling_bound_exits_2(self, tmp_path, commands, capsys, where):
        # a 1e-300 m pitch once asked for 4e600 cells and was killed for lack of memory
        if where == "manifest":
            ds = tmp_path / "binned"
            assert main(commands["gen"][:-1] + [str(ds), "--protocol", "coverage"]) == 0
            manifest = json.loads((ds / "manifest.json").read_text())
            (ds / "manifest.json").write_text(json.dumps({**manifest, "grid_pitch": 1e-300}))
            argv = ["train", "--data", str(ds), "--epochs", "1", "--out", str(tmp_path / "out")]
        elif where == "scenario":
            path = tmp_path / "fine.json"
            path.write_text(json.dumps({**TINY_SCENARIO, "grid_pitch": 1e-300}))
            argv = commands["gen"] + ["--scenario", str(path)]
        else:
            argv = commands[where] + ["--protocol", "coverage"] * (where == "gen") + [
                "--pitch", "1e-300"]
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        assert_one_line_error(capsys, "pitch 1e-300 tiles the 2.0 m room into more than "
                                      "512 x 512 cells")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["gen", "manifest"])
    @pytest.mark.parametrize("key,message", [
        ("n_clusters", "120000000024 beam response values (receivers x n_antennas x "
                       "beam_angles x (n_clusters x n_rays + 1)): a scenario holds at most 65536"),
        ("n_rays", "72000000024 beam response values"),
        ("n_antennas", "96000000000 beam response values"),
        ("n_scatter", "2000000000 target-scattered paths (receivers x n_scatter): a scenario "
                      "holds at most 65536"),
    ])
    def test_per_drop_size_past_its_bound_exits_2(self, tmp_path, commands, capsys, where,
                                                  key, message):
        # 10**9 of any of these once ended in a numpy MemoryError traceback (22 to
        # 313 GiB asked in scenario1); without the bounds this test would exhaust memory
        big = {key: 10**9}
        if where == "manifest":
            ds = tmp_path / "ds"
            assert main(commands["gen"][:-1] + [str(ds)]) == 0
            manifest = json.loads((ds / "manifest.json").read_text())
            manifest["scenario"].update(big)
            (ds / "manifest.json").write_text(json.dumps(manifest))
            argv = ["train", "--data", str(ds), "--epochs", "1", "--out", str(tmp_path / "out")]
        else:
            path = tmp_path / "big.json"
            path.write_text(json.dumps({**TINY_SCENARIO, **big}))
            argv = commands["gen"][:1] + ["--scenario", str(path)] + commands["gen"][3:]
        capsys.readouterr()
        assert main(argv) == EXIT_CONFIG
        assert_one_line_error(capsys, message)
        assert not (tmp_path / "out").exists()

    def test_bounce_point_on_its_receiver_exits_2(self, tmp_path, capsys):
        # four of link 0's rays snap onto the receiver at (3.75, 3.75), a grid
        # point; their segments once failed at the first target block
        path = tmp_path / "onrx.json"
        path.write_text(json.dumps({
            "name": "onrx", "tx": [0.0, 2.5], "grid_pitch": 2.5,
            "receivers": [{"position": [3.75, 3.75], "boresight": 0.0},
                          {"position": [5.0, 1.0], "boresight": math.pi}]}))
        rc = main(["gen", "--scenario", str(path), "--n", "5", "--sigma", "0.3",
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "link 0: bounce point (3.75, 3.75) lands on its receiver")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [["--bin-jitter"], ["--pitch", "0.3"]])
    def test_binned_flag_on_resolution_gen_exits_2(self, tmp_path, commands, capsys, flag):
        assert main(commands["gen"] + ["--protocol", "resolution"] + flag) == EXIT_CONFIG
        assert_one_line_error(capsys, f"{flag[0]} applies to the binned protocols")
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("command", ["eval", "baseline"])
    def test_non_finite_locate_output_exits_2(self, tmp_path, scenario_file, capsys, command):
        # finite weights whose head sums +inf and -inf: every estimate is NaN
        params = init_params(Architecture(input_shape=(8, 3, 2)), 0, "locate")
        params.dense_b[:] = 1e3
        params.head_w[:] = 1e308
        params.head_w[1::2] *= -1
        path = tmp_path / "nan.csnn"
        save_model(path, TrainedModel(params, NormStats((0.0, 0.0), (1.0, 1.0))))
        rc = main([command, "--model", str(path), "--scenario", scenario_file, "--sigma", "0.4",
                   "--drops", "3", "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "csisensenet estimate of drop 0 is not finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "baseline"])
    def test_weight_beyond_float32_range_exits_2(self, tmp_path, scenario_file, capsys, command):
        # 1e39 is finite in float64 but overflows the float32 cast predict runs
        # the head in; the cast's overflow warning would be an error under pytest.ini
        params = init_params(Architecture(input_shape=(8, 3, 2)), 0, "locate")
        params.head_w[0] = 1e39
        path = tmp_path / "big.csnn"
        save_model(path, TrainedModel(params, NormStats((0.0, 0.0), (1.0, 1.0))))
        rc = main([command, "--model", str(path), "--scenario", scenario_file, "--sigma", "0.4",
                   "--drops", "3", "--out", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "csisensenet estimate of drop 0 is not finite")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,task,what", [
        ("eval", "detect", "probability"), ("coverage", "detect", "probability"),
        ("eval", "locate", "estimate"), ("baseline", "locate", "estimate"),
    ])
    def test_overflowing_model_exits_2_without_warnings(self, tmp_path, scenario_file, capsys,
                                                        command, task, what):
        # dense and head weights of +-1e308: the head sums +inf and -inf, so every
        # output is NaN; numpy's overflow warnings would be errors under pytest.ini
        params = init_params(Architecture(input_shape=(8, 3, 2)), 0, task)
        params.dense_w[1::2] = 1e308
        params.dense_w[::2] = -1e308
        params.dense_b[:] = 1e3
        params.head_w[:] = 1e308
        params.head_w[1::2] *= -1
        path = tmp_path / "nan.csnn"
        save_model(path, TrainedModel(params, NormStats((0.0, 0.0), (1.0, 1.0))))
        argv = [command, "--model", str(path), "--scenario", scenario_file, "--sigma", "0.4",
                "--out", str(tmp_path / "out")]
        argv += ["--pitch", "1.0", "--drops-per-bin", "2"] if command == "coverage" \
            else ["--drops", "3"]
        assert main(argv) == EXIT_CONFIG
        assert_one_line_error(capsys, f"csisensenet {what} of drop 0 is not finite")
        assert not (tmp_path / "out").exists()

    def test_zero_drops_exits_2_for_positioning_eval(self, tmp_path, scenario_file, capsys):
        loc = untrained_model(tmp_path / "loc.csnn", "locate")
        rc = main(["eval", "--model", loc, "--scenario", scenario_file, "--drops", "0",
                   "--out", str(tmp_path / "e.csv")])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, "--drops must be >= 1, got 0")

    @pytest.mark.parametrize("change,message", [
        (lambda d: d.pop("input_shape"), "missing model descriptor key 'input_shape'"),
        (lambda d: d.pop("norm_std"), "missing model descriptor key 'norm_std'"),
        (lambda d: d.pop("threshold"), "missing model descriptor key 'threshold'"),
        (lambda d: d.update(bogus=1), "unknown model descriptor key 'bogus'"),
        (lambda d: d.update(input_shape=5), "input_shape must be a JSON list of 3 values, got 5"),
        (lambda d: d.update(kernel="three"), "kernel must be a JSON integer, got 'three'"),
        (lambda d: d.update(norm_mean=None),
         "norm_mean must be a JSON list of 2 values, got None"),
        (lambda d: d.update(task="classify"), "task 'classify'"),
        (lambda d: d.update(threshold=math.nan), "threshold [nan]"),
        (lambda d: d.update(norm_mean=[0.0, math.nan]), "norm_mean [0.0, nan]"),
        (lambda d: d.update(norm_mean=[0.0]), "norm_mean must be a JSON list of 2 values"),
        (lambda d: d.update(norm_std=[math.inf, 1.0]), "norm_std [inf, 1.0]"),
        (lambda d: d.update(norm_std=[1.0, -0.5]), "norm_std [1.0, -0.5]"),
        (lambda d: d.update(threshold=1.5), "threshold [1.5]"),
        (lambda d: d.update(threshold=-0.1), "threshold [-0.1]"),
        (lambda d: d.update(task=["detect"]), "task must be a JSON string, got ['detect']"),
        (lambda d: d.update(threshold=True), "threshold must be a JSON number, got True"),
        (lambda d: d.update(norm_mean=["0.0", "0.0"]),
         "norm_mean[0] must be a JSON number, got '0.0'"),
        (lambda d: d.update(input_shape=[24.0, 7, 2]),
         "input_shape[0] must be a JSON integer, got 24.0"),
        (lambda d: d.update(pool=0), "pool must be 2, got 0"),
        (lambda d: d.update(kernel=-1), "kernel must be 3, got -1"),
        # a 4 x 4 kernel's patch window read past conv2d's padded buffer
        (lambda d: d.update(kernel=4), "kernel must be 3, got 4"),
        (lambda d: d.update(pool=3), "pool must be 2, got 3"),
    ], ids=["no-input_shape", "no-norm_std", "no-threshold", "unknown-key", "int-input_shape",
            "str-kernel", "null-norm_mean", "unknown-task", "nan-threshold", "nan-norm_mean",
            "short-norm_mean", "inf-norm_std", "negative-norm_std", "above-1-threshold",
            "negative-threshold", "list-task", "bool-threshold", "str-norm_mean",
            "float-input_shape", "zero-pool", "negative-kernel", "four-kernel", "three-pool"])
    def test_malformed_model_descriptor_exits_2(self, tmp_path, scenario_file, capsys,
                                                change, message):
        path = tmp_path / "det.csnn"
        raw = Path(untrained_model(path, "detect")).read_bytes()
        desc = descriptor(raw)
        change(desc)
        path.write_bytes(with_descriptor(raw, desc))
        rc = main(["eval", "--model", str(path), "--scenario", scenario_file,
                   "--out", str(tmp_path / "e.csv")])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, f"{path}: malformed model descriptor: ", message)


    @pytest.mark.parametrize("change,message", [
        (lambda raw: raw[:-8] + struct.pack("<d", math.nan),
         "non-finite value in parameter block head_b"),
        (lambda raw: raw + b"\0" * 8, "trailing bytes after the last parameter block"),
        # a 1 TB dense block used to be allocated for the read
        (lambda raw: with_descriptor(raw, {**descriptor(raw), "dense_units": 10**9}),
         "truncated parameter block dense_w"),
        # the two-head layout, no longer read
        (lambda raw: raw[:4] + struct.pack("<H", 1) + raw[6:], "unsupported model version 1"),
    ], ids=["nan-block", "trailing-bytes", "huge-block", "version-1"])
    def test_bad_parameter_blocks_exit_2(self, tmp_path, scenario_file, capsys, change,
                                         message):
        path = tmp_path / "det.csnn"
        path.write_bytes(change(Path(untrained_model(path, "detect")).read_bytes()))
        rc = main(["eval", "--model", str(path), "--scenario", scenario_file,
                   "--out", str(tmp_path / "e.csv")])
        assert rc == EXIT_CONFIG
        assert_one_line_error(capsys, f"{path}: {message}")

    @pytest.mark.parametrize("command,task,needs", [
        ("coverage", "locate", "coverage needs a detect model"),
        ("baseline", "detect", "baseline --model needs a locate model"),
        ("eval", "locate", "--sigmas needs a detect model"),
    ])
    def test_wrong_task_model_exits_2(self, tmp_path, commands, capsys, command, task, needs):
        model = untrained_model(tmp_path / "m.csnn", task)
        argv = commands[command] + ["--model", model]
        if command == "eval":
            argv += ["--sigmas", "0.5,0.6"]
        assert main(argv) == EXIT_CONFIG
        assert_one_line_error(capsys, f"{needs}, {model} is a {task} model")
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_one_exception_class_per_exit_code(self, monkeypatch, capsys):
        classes = [c for c in vars(errors).values() if isinstance(c, type)
                   and issubclass(c, Exception) and c.__module__ == errors.__name__]
        codes = []
        for cls in classes:
            def fail(args, cls=cls):
                raise cls(f"{cls.__name__} raised")
            monkeypatch.setattr(cli, "cmd_baseline", fail)
            codes.append(main(["baseline", "--out", "unused.csv"]))
            assert_one_line_error(capsys, f"{cls.__name__} raised")
        assert sorted(codes) == [EXIT_CONFIG, EXIT_NUMERIC]


class TestBadDataset:
    @pytest.fixture
    def dataset_dir(self, tmp_path, scenario_file):
        out = tmp_path / "ds"
        assert main(["gen", "--scenario", scenario_file, "--sigma", "0.4", "--n", "3",
                     "--seed", "2", "--out", str(out)]) == 0
        return out

    def train(self, tmp_path, dataset_dir):
        return main(["train", "--data", str(dataset_dir), "--epochs", "1",
                     "--out", str(tmp_path / "m.csnn")])

    def test_header_dims_differ_from_manifest(self, tmp_path, dataset_dir, capsys):
        # 4 links x 2 antennas keeps the 8-row record size of 2 links x 4 antennas
        raw = bytearray((dataset_dir / "frames.bin").read_bytes())
        raw[6:10] = bytes([4, 0, 2, 0])
        (dataset_dir / "frames.bin").write_bytes(bytes(raw))
        assert self.train(tmp_path, dataset_dir) == EXIT_CONFIG
        assert_one_line_error(capsys, "record 0 has n_links 4, expected 2")

    def test_truncated_frames(self, tmp_path, dataset_dir, capsys):
        raw = (dataset_dir / "frames.bin").read_bytes()
        (dataset_dir / "frames.bin").write_bytes(raw[:-1])
        assert self.train(tmp_path, dataset_dir) == EXIT_CONFIG
        assert_one_line_error(capsys, "truncated")

    def test_fewer_frames_than_labels(self, tmp_path, dataset_dir, capsys):
        raw = (dataset_dir / "frames.bin").read_bytes()
        (dataset_dir / "frames.bin").write_bytes(raw[:len(raw) // 6 * 5])
        assert self.train(tmp_path, dataset_dir) == EXIT_CONFIG
        assert_one_line_error(capsys, "frames.bin holds 5 records, labels.csv 6")

    def test_index_is_not_row_number(self, tmp_path, dataset_dir, capsys):
        labels = dataset_dir / "labels.csv"
        lines = labels.read_text().splitlines(keepends=True)
        lines[2], lines[3] = lines[3], lines[2]
        labels.write_text("".join(lines))
        assert self.train(tmp_path, dataset_dir) == EXIT_CONFIG
        assert_one_line_error(capsys, "labels.csv: row 1: index '2' is not the row number")

    def test_labels_not_utf8_exits_2(self, tmp_path, dataset_dir, capsys):
        # the error used to name no file
        labels = dataset_dir / "labels.csv"
        labels.write_bytes(labels.read_bytes().replace(b"target", b"t\xf6rget", 1))
        assert self.train(tmp_path, dataset_dir) == EXIT_CONFIG
        assert_one_line_error(capsys, f"{labels}: ", "codec can't decode byte 0xf6")
        assert not (tmp_path / "m.csnn").exists()

    def test_target_row_without_xy(self, tmp_path, dataset_dir, capsys):
        labels = dataset_dir / "labels.csv"
        lines = labels.read_text().splitlines(keepends=True)
        fields = lines[-1].split(",")
        fields[2] = ""
        lines[-1] = ",".join(fields)
        labels.write_text("".join(lines))
        assert self.train(tmp_path, dataset_dir) == EXIT_CONFIG
        assert_one_line_error(capsys, "labels.csv: row 5: could not convert string to float: ''")

    @pytest.mark.parametrize("change,message", [
        (lambda m: m.pop("protocol"), "missing manifest key 'protocol'"),
        (lambda m: m.update(bogus=1), "unknown manifest key 'bogus'"),
        (lambda m: m["scenario"].update(tx_omni=True), "unknown manifest key 'scenario.tx_omni'"),
        (lambda m: m["scenario"]["receivers"][0].update(bogus=1),
         "unknown manifest key 'scenario.receivers[0].bogus'"),
        (lambda m: m["scenario"].pop("name"), "missing manifest key 'scenario.name'"),
        (lambda m: m.update(n_per_hyp=None), "n_per_hyp must be a JSON integer, got None"),
        (lambda m: m.update(n_per_hyp=0), "n_per_hyp must be >= 1, got 0"),
        (lambda m: m.update(protocol="spiral"), "unknown protocol 'spiral'"),
        (lambda m: m.update(sigma=math.nan), "sigma must be finite and > 0, got nan"),
        (lambda m: m.update(sigma=0.0), "sigma must be finite and > 0, got 0.0"),
        (lambda m: m.update(sigma=-0.4), "sigma must be finite and > 0, got -0.4"),
        (lambda m: m.update(protocol="coverage"), "grid_pitch None with protocol 'coverage'"),
        (lambda m: m.update(grid_pitch=0.5), "grid_pitch 0.5 with protocol 'resolution'"),
        (lambda m: m.update(master_seed=-1), "master_seed must be >= 0, got -1"),
        (lambda m: m.update(count_null=0), "count_null must be 3, got 0"),
        (lambda m: m.update(count_target=4), "count_target must be 3, got 4"),
        # once written to every manifest; train --val-frac sets the split
        (lambda m: m.update(split_fractions=[0.7, 0.3]), "unknown manifest key 'split_fractions'"),
        (lambda m: m.update(bin_jitter=True), "bin_jitter with protocol 'resolution'"),
        # each used to name no file; a change that returns bytes writes them as the file
        (lambda m: b"not json", "Expecting value: line 1 column 1 (char 0)"),
        (lambda m: m.update(protocol="resolution\udcf6"), "codec can't decode byte 0xf6"),
    ], ids=["no-protocol", "unknown-key", "unknown-scenario-key", "unknown-receiver-key",
            "no-scenario-name", "null-n_per_hyp", "zero-n_per_hyp", "unknown-protocol",
            "nan-sigma", "zero-sigma", "negative-sigma", "binned-without-pitch",
            "resolution-with-pitch", "negative-master_seed", "zero-count_null",
            "count_target-off-n_per_hyp", "split_fractions", "resolution-with-jitter",
            "not-json", "not-utf8"])
    def test_malformed_manifest_exits_2(self, tmp_path, dataset_dir, capsys, change, message):
        path = dataset_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        raw = change(manifest)
        path.write_bytes(raw if isinstance(raw, bytes) else json_bytes(manifest))
        assert self.train(tmp_path, dataset_dir) == EXIT_CONFIG
        assert_one_line_error(capsys, f"{path}: malformed manifest: ", message)
        assert not (tmp_path / "m.csnn").exists()

    @pytest.mark.parametrize("key,value,kind", [
        ("n_per_hyp", "3", "integer"),
        ("master_seed", 7.9, "integer"),
        ("count_null", True, "integer"),
        ("count_target", 3.0, "integer"),
        ("bin_jitter", "no", "boolean"),
        ("sigma", "0.4", "number"),
        ("sigma", True, "number"),
        ("grid_pitch", "0.5", "number"),
        ("protocol", ["resolution"], "string"),
    ], ids=["str-n_per_hyp", "float-master_seed", "bool-count_null", "float-count_target",
            "str-bin_jitter", "str-sigma", "bool-sigma", "str-grid_pitch", "list-protocol"])
    def test_manifest_value_of_the_wrong_json_type_exits_2(self, tmp_path, dataset_dir, capsys,
                                                          key, value, kind):
        # each once loaded as int(), bool() or float() of itself, or as written
        path = dataset_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest[key] = value
        path.write_text(json.dumps(manifest))
        assert self.train(tmp_path, dataset_dir) == EXIT_CONFIG
        assert_one_line_error(capsys, f"{path}: malformed manifest: ",
                              f"{key} must be a JSON {kind}, got {value!r}")
        assert not (tmp_path / "m.csnn").exists()

    def test_record_count_past_the_labels_exits_2(self, tmp_path, dataset_dir, capsys):
        # 10**12 records used to be laid out in memory before the rows were counted
        path = dataset_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest.update(n_per_hyp=5 * 10**11, count_null=5 * 10**11, count_target=5 * 10**11)
        path.write_text(json.dumps(manifest))
        assert self.train(tmp_path, dataset_dir) == EXIT_CONFIG
        assert_one_line_error(capsys, f"{dataset_dir / 'labels.csv'}: 6 rows, the resolution "
                                      f"layout of manifest.json has 1000000000000")

    def test_seed_off_its_record_exits_2(self, tmp_path, dataset_dir, capsys, monkeypatch):
        # a seed column that (master_seed, row) does not give used to load as written;
        # checked 4 rows at a time, row 4 opens the second chunk
        monkeypatch.setattr(dataset_mod, "CHECK_ROWS", 4)
        labels = dataset_dir / "labels.csv"
        lines = labels.read_text().splitlines(keepends=True)
        fields = lines[5].split(",")            # row 4
        fields[-1] = "12345\n"
        lines[5] = ",".join(fields)
        labels.write_text("".join(lines))
        assert self.train(tmp_path, dataset_dir) == EXIT_CONFIG
        assert_one_line_error(capsys, f"{labels}: row 4: seed 12345 is not the record seed of "
                                      f"master_seed 2")
        assert not (tmp_path / "m.csnn").exists()

    @pytest.fixture
    def binned_dir(self, tmp_path, scenario_file):
        out = tmp_path / "binned"
        assert main(["gen", "--scenario", scenario_file, "--protocol", "positioning",
                     "--sigma", "0.4", "--pitch", "0.5", "--n", "3", "--seed", "2",
                     "--out", str(out)]) == 0
        return out

    def edit_manifest_n_per_hyp(self, ds):
        path = ds / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["n_per_hyp"] = manifest["n_per_hyp"] // 3 * 2     # 3 records per bin -> 2
        path.write_text(json.dumps(manifest))
        return path, "n_per_hyp"

    def relabel_first_target_null(self, ds):
        path = ds / "labels.csv"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace(",target,", ",null,")
        path.write_text("".join(lines))
        return path, "row 0 is null, the positioning layout of manifest.json has target there"

    def drop_last_two_records(self, ds):
        frames, labels = ds / "frames.bin", ds / "labels.csv"
        lines = labels.read_text().splitlines(keepends=True)
        raw = frames.read_bytes()
        frames.write_bytes(raw[:len(raw) // (len(lines) - 1) * (len(lines) - 3)])
        labels.write_text("".join(lines[:-2]))
        return labels, f"{len(lines) - 3} rows, the positioning layout of manifest.json " \
                        f"has {len(lines) - 1}"

    @pytest.mark.parametrize("protocol,old,new,message", [
        ("coverage", ",0.5,0.5,0.8,", ",4.9,0.5,9.9,",
         "row 0: target at (4.9, 0.5) is off the bin centred at (0.5, 0.5)"),
        ("coverage", ",0.5,0.5,0.8,", ",0.5,0.5,0.9,", "row 0: sigma 0.9, manifest.json has 0.8"),
        ("resolution", None, None, "sigma 0.7, manifest.json has 0.8"),
    ])
    def test_target_label_off_the_manifest_exits_2(self, tmp_path, capsys, protocol, old, new,
                                                   message):
        # a moved or resized target used to be trained on as written
        out = tmp_path / "ds"
        argv = ["gen", "--protocol", protocol, "--n", "2", "--out", str(out)]
        assert main(argv + (["--pitch", "1.0"] if protocol == "coverage" else [])) == 0
        labels = out / "labels.csv"
        lines = labels.read_text().splitlines(keepends=True)
        if old is None:    # the last row is a target of the resolution layout
            old, new = ",0.8,", ",0.7,"
            lines[-1] = lines[-1].replace(old, new)
        else:
            assert old in lines[1]
            lines[1] = lines[1].replace(old, new)
        labels.write_text("".join(lines))
        assert main(["train", "--data", str(out), "--task", "locate", "--epochs", "1",
                     "--out", str(tmp_path / "m.csnn")]) == EXIT_CONFIG
        assert_one_line_error(capsys, f"{labels}: ", message)
        assert not (tmp_path / "m.csnn").exists()

    @pytest.mark.parametrize("protocol,row,x,y,shown", [
        ("resolution", 3, "1_0.5", " -3 ", "(10.5, -3.0)"),    # as float() reads them
        ("positioning", 0, "0.1", "0.5", "(0.1, 0.5)"),       # in its bin, 0.1 m from a wall
    ])
    def test_target_off_the_margin_rule_exits_2(self, tmp_path, capsys, protocol, row, x, y,
                                                shown):
        # such a target used to be trained on as written
        out = tmp_path / "ds"
        argv = ["gen", "--protocol", protocol, "--n", "2", "--out", str(out)]
        assert main(argv + (["--pitch", "1.0", "--bin-jitter"] if row == 0 else [])) == 0
        labels = out / "labels.csv"
        lines = labels.read_text().splitlines(keepends=True)
        fields = lines[1 + row].split(",")
        assert fields[1] == "target"
        fields[2:4] = x, y
        lines[1 + row] = ",".join(fields)
        labels.write_text("".join(lines))
        assert main(["train", "--data", str(out), "--task", "locate", "--epochs", "1",
                     "--out", str(tmp_path / "m.csnn")]) == EXIT_CONFIG
        assert_one_line_error(capsys, f"{labels}: row {row}: target at {shown} breaks the "
                                      f"margin rule of a 0.8 m target")
        assert not (tmp_path / "m.csnn").exists()

    def test_jittered_target_outside_its_bin_exits_2(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["gen", "--protocol", "positioning", "--pitch", "1.0", "--n", "2",
                     "--bin-jitter", "--out", str(out)]) == 0
        labels = out / "labels.csv"
        lines = labels.read_text().splitlines(keepends=True)
        fields = lines[1].split(",")
        assert abs(float(fields[2]) - 0.5) <= 0.5
        fields[2] = "1.0000001"          # just past the edge of the bin at x 0..1
        lines[1] = ",".join(fields)
        labels.write_text("".join(lines))
        assert main(["train", "--data", str(out), "--task", "locate", "--epochs", "1",
                     "--out", str(tmp_path / "m.csnn")]) == EXIT_CONFIG
        assert_one_line_error(capsys, f"{labels}: row 0: target at (1.0000001, ",
                              "is outside the bin centred at (0.5, 0.5)")

    @pytest.mark.parametrize("change", [edit_manifest_n_per_hyp, relabel_first_target_null,
                                        drop_last_two_records],
                             ids=["n_per_hyp", "relabelled", "truncated"])
    def test_labels_off_the_manifest_layout_exit_2(self, tmp_path, binned_dir, capsys, change):
        # a binned set's bins are rebuilt from the manifest, so the labels must follow it
        path, message = change(self, binned_dir)
        assert self.train(tmp_path, binned_dir) == EXIT_CONFIG
        assert_one_line_error(capsys, f"{path}: ", message)
        assert not (tmp_path / "m.csnn").exists()
