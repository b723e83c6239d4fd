import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamgrid import channel as ch
from beamgrid import gridio as io
from beamgrid import predictor as pr
from beamgrid import scene as sc
from beamgrid.errors import GridParseError
from beamgrid.metrics import EvalReport


@st.composite
def bgrd_like_bytes(draw):
    """Grid files with a well-formed or garbled header; the payload length
    often matches what the header's dimensions multiply to."""
    if draw(st.booleans()):
        garbage = st.binary(max_size=4).map(lambda b: b.decode("latin-1"))
        tokens = draw(st.lists(st.one_of(st.integers(-3, 4).map(str),
                                         st.sampled_from(["u8", "f32", "f64", ""]),
                                         garbage), max_size=6))
        return (" ".join(["BGRD1", *tokens]) + "\n").encode() + draw(st.binary(max_size=80))
    rows, cols, ch = (draw(st.integers(-3, 4)) for _ in range(3))
    dtype = draw(st.sampled_from(["u8", "f32", "f64"]))
    size = abs(rows * cols * ch) * (1 if dtype == "u8" else 4)
    size = draw(st.sampled_from([size, draw(st.integers(0, 80))]))
    return f"BGRD1 {rows} {cols} {ch} {dtype}\n".encode() + bytes(size)


@st.composite
def paths_csv_like_bytes(draw):
    """Path tables whose lines have garbled, missing, extra, non-finite or
    non-ASCII fields, under a correct or damaged header."""
    field = st.one_of(st.integers(-2, 5).map(str), st.floats().map(repr),
                      st.sampled_from(["nan", "-inf", "1e999", "", " ", "x"]),
                      st.binary(max_size=3).map(lambda b: b.decode("latin-1")))
    lines = draw(st.lists(st.lists(field, max_size=8).map(",".join), max_size=5))
    header = draw(st.sampled_from([io.PATH_HEADER, io.PATH_HEADER[:-3], ""]))
    return "\n".join([header, *lines]).encode("latin-1")


# A fixed alphabet: hypothesis builds its table of all unicode characters
# on the first draw from the default one (~2.5 s), which fails its too_slow
# health check in a checkout that has no .hypothesis directory yet.
json_text = st.text(alphabet='aZ0 _-"\\\x00\x7f\u00e9\u2603', max_size=4)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), json_text),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(json_text, inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def config_docs(draw):
    """Config documents whose sections hold real keys with random JSON
    values (strings, bools, NaN, lists, ...), or any JSON value at all."""
    if draw(st.booleans()):
        return draw(json_values)
    doc = {}
    for section in dataclasses.fields(io.RunConfig):
        keys = [f.name for f in dataclasses.fields(getattr(io.RunConfig(), section.name))]
        if draw(st.booleans()):
            doc[section.name] = draw(st.dictionaries(
                st.sampled_from(keys), st.one_of(json_values, st.integers(-3, 40)),
                max_size=min(4, len(keys))))
    return doc


@pytest.fixture(scope="module")
def csv_file(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "p.csv"


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    return tmp_path_factory.mktemp("model") / "m.bgmdl"


@pytest.fixture(scope="module")
def report_file(tmp_path_factory):
    return tmp_path_factory.mktemp("report") / "r.json"


@pytest.fixture(scope="module")
def codebook_file(tmp_path_factory):
    return tmp_path_factory.mktemp("codebook") / "cb.json"


class TestGridFormat:
    def test_f32_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arr = rng.normal(0, 1, (5, 7, 3)).astype(np.float32)
        path = tmp_path / "a.bgrd"
        io.write_grid(path, arr, "f32")
        back = io.read_grid(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)
        io.write_grid(tmp_path / "b.bgrd", back, "f32")
        assert (tmp_path / "a.bgrd").read_bytes() == (tmp_path / "b.bgrd").read_bytes()

    def test_u8_round_trip(self, tmp_path):
        arr = np.arange(24, dtype=np.uint8).reshape(4, 6)
        path = tmp_path / "m.bgrd"
        io.write_grid(path, arr, "u8")
        back = io.read_grid(path)
        assert np.array_equal(back[:, :, 0], arr)

    def test_header_layout(self):
        data = io.grid_to_bytes(np.zeros((2, 3, 4), dtype=np.float32), "f32")
        head, payload = data.split(b"\n", 1)
        assert head == b"BGRD1 2 3 4 f32"
        assert len(payload) == 2 * 3 * 4 * 4

    def test_bad_magic_names_offset(self):
        with pytest.raises(GridParseError, match="offset 0"):
            io.grid_from_bytes(b"NOPE1 1 1 1 f32\x00")

    def test_truncated_payload_names_offset(self):
        data = io.grid_to_bytes(np.zeros((2, 2, 1), dtype=np.float32))
        with pytest.raises(GridParseError, match="expected 16 bytes"):
            io.grid_from_bytes(data[:-4])

    def test_negative_dimensions_rejected(self):
        with pytest.raises(GridParseError, match="negative dimension"):
            io.grid_from_bytes(b"BGRD1 -2 -2 1 u8\n" + bytes(4))

    @given(st.one_of(st.binary(max_size=80), bgrd_like_bytes()))
    @settings(max_examples=300)
    def test_garbage_raises_only_parse_error(self, data):
        try:
            io.grid_from_bytes(data)
        except GridParseError:
            pass

    @given(st.data())
    def test_truncated_file_rejected(self, data):
        arr = np.arange(2 * 3 * 2, dtype=np.float32).reshape(2, 3, 2)
        full = io.grid_to_bytes(arr, data.draw(st.sampled_from(["f32", "u8"])))
        with pytest.raises(GridParseError):
            io.grid_from_bytes(full[:data.draw(st.integers(0, len(full) - 1))])

    def test_unknown_dtype_rejected(self):
        with pytest.raises(ValueError):
            io.grid_to_bytes(np.zeros((1, 1)), "f64")


class TestPathCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        hm = sc.generate_city(32, 32, seed=2)
        tx = sc.place_tx(hm, seed=2)
        chans = sc.trace_paths(hm, tx, sc.SceneConfig())
        path = tmp_path / "p.csv"
        io.write_paths_csv(path, chans)
        back = io.read_paths_csv(path, 32, 32)
        assert np.array_equal(back.counts, chans.counts)
        assert np.array_equal(back.magnitude, chans.magnitude)
        assert np.array_equal(back.phase, chans.phase)
        assert np.array_equal(back.aoa_azimuth, chans.aoa_azimuth)
        assert back.has_direct is None  # metadata does not survive the CSV

    def test_out_of_grid_pixel_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(io.PATH_HEADER + "\n9,0,1.0,0.0,0.0,0.0,0.0\n")
        with pytest.raises(GridParseError, match=r"\(9,0\) outside"):
            io.read_paths_csv(path, 4, 4)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(GridParseError):
            io.read_paths_csv(path, 4, 4)

    def test_malformed_field_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(io.PATH_HEADER + "\n0,0,xyz,0.0,0.0,0.0,0.0\n")
        with pytest.raises(GridParseError, match="line 2"):
            io.read_paths_csv(path, 4, 4)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(io.PATH_HEADER + "\n0,0,1.0,0.0,0.0,0.0,-inf\n")
        with pytest.raises(GridParseError, match="line 2: non-finite"):
            io.read_paths_csv(path, 4, 4)

    def test_non_ascii_byte_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes((io.PATH_HEADER + "\n0,0,1.0,0.0,0.0,0.0,0.5\xb5\n").encode("latin-1"))
        with pytest.raises(GridParseError):
            io.read_paths_csv(path, 4, 4)

    @given(st.one_of(st.binary(max_size=120), paths_csv_like_bytes()))
    @settings(max_examples=300)
    def test_garbage_raises_only_parse_error(self, csv_file, data):
        csv_file.write_bytes(data)
        try:
            chans = io.read_paths_csv(csv_file, 4, 4)
        except GridParseError:
            return
        values = [chans.magnitude, chans.phase, chans.aod_azimuth,
                  chans.aod_elevation, chans.aoa_azimuth]
        assert all(np.isfinite(v).all() for v in values)

    @given(st.data())
    def test_truncated_file_raises_only_parse_error(self, csv_file, data):
        full = (io.PATH_HEADER + "\n0,0,0.001,0.25,1.0,-0.5,4.0\n"
                "3,1,2.5e-4,6.0,4.5,0.125,0.5\n").encode("ascii")
        csv_file.write_bytes(full[:data.draw(st.integers(0, len(full) - 1))])
        try:
            io.read_paths_csv(csv_file, 4, 4)
        except GridParseError:
            pass


class TestRunConfig:
    def test_defaults(self):
        cfg = io.parse_config({})
        assert cfg.codebook.dims == (8, 4, 4)
        assert cfg.eval.k_list == [1, 2, 4, 8, 16, 32]
        assert cfg.budget.exclusion_threshold_db == -147.0
        assert cfg.scene.carrier_hz == 3.9e9

    def test_unknown_section_rejected(self):
        with pytest.raises(GridParseError, match="unknown config section"):
            io.parse_config({"scnee": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(GridParseError, match="unknown key"):
            io.parse_config({"codebook": {"Na": 8, "nq": 1}})

    @pytest.mark.parametrize("value", [0.1, "0.1", None], ids=["number", "string", "null"])
    def test_loss_epsilon_rejected(self, value):
        # the WS loss has no solver temperature; the key is unknown
        with pytest.raises(GridParseError,
                           match=r"unknown key\(s\) in config section 'loss': \['epsilon'\]"):
            io.parse_config({"loss": {"epsilon": value}})

    def test_scene_seed_rejected(self):
        # generate takes its seed from --seed; the config key is unknown
        with pytest.raises(GridParseError,
                           match=r"unknown key\(s\) in config section 'scene': \['seed'\]"):
            io.parse_config({"scene": {"seed": 1}})

    def test_round_trip(self, tmp_path):
        cfg = io.parse_config({"scene": {"rows": 32, "cols": 48},
                               "loss": {"kind": "WS", "sep": True}})
        path = tmp_path / "cfg.json"
        io.save_config(path, cfg)
        again = io.load_config(path)
        assert again == cfg

    def test_invalid_json_offset(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(GridParseError, match="offset"):
            io.load_config(path)

    @pytest.mark.parametrize("doc", [
        {"scene": {"rows": "32"}},
        {"scene": {"rows": True}},
        {"scene": {"rows": 32.0}},
        {"scene": {"resolution_m": "1"}},
        {"scene": {"rx_height_m": float("nan")}},
        {"train": {"lr": float("inf")}},
        {"budget": {"tx_power_dbm": False}},
        {"loss": {"sep": 1}},
        {"loss": {"floor_db": "0.1"}},
        {"codebook": {"tx_weights": 3}},
        {"eval": {"k_list": [1, "2"]}},
        {"eval": {"k_list": 4}},
    ])
    def test_wrong_type_or_non_finite_rejected(self, doc):
        with pytest.raises(GridParseError, match="must be"):
            io.parse_config(doc)

    def test_ints_pass_for_floats(self):
        cfg = io.parse_config({"scene": {"rows": 128, "resolution_m": 2},
                               "train": {"epochs": 2}})
        assert cfg.scene.resolution_m == 2 and cfg.train.epochs == 2

    @given(config_docs())
    @settings(max_examples=300)
    def test_garbage_raises_only_parse_error(self, doc):
        try:
            cfg = io.parse_config(doc)
        except GridParseError:
            return
        defaults = io.RunConfig()
        for section in dataclasses.fields(cfg):
            got, default = getattr(cfg, section.name), getattr(defaults, section.name)
            for f in dataclasses.fields(got):
                value, base = getattr(got, f.name), getattr(default, f.name)
                if isinstance(base, float):
                    assert type(value) in (int, float) and math.isfinite(value)
                elif f.name == "tx_weights":
                    assert value is None or isinstance(value, str)
                elif isinstance(base, list):
                    assert all(type(k) is int for k in value)
                else:
                    assert type(value) is type(base)


class TestTxSiteJson:
    def test_round_trip(self, tmp_path):
        tx = sc.TxSite((3, 4), 21.5, ch.ArrayFrame(1.25, math.pi / 4))
        path = tmp_path / "tx.json"
        io.save_tx_site(path, tx)
        back = io.load_tx_site(path)
        assert back == tx


class TestModelFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        model = pr.SoftmaxModel.create(9, (8, 4, 4), loss_kind="WS",
                                       sep=False, seed=11)
        model.weights = rng.normal(0, 1, model.weights.shape)
        model.bias = rng.normal(0, 1, model.bias.shape)
        path = tmp_path / "m.bgmdl"
        io.save_model(path, model)
        back = io.load_model(path)
        assert back.dims == (8, 4, 4)
        assert back.loss_kind == "WS" and back.seed == 11
        np.testing.assert_array_equal(
            back.weights, model.weights.astype(np.float32).astype(np.float64))

    def test_detection(self, tmp_path):
        model = pr.SoftmaxModel.create(4, (2, 2, 2))
        mpath = tmp_path / "m.bgmdl"
        io.save_model(mpath, model)
        gpath = tmp_path / "g.bgrd"
        io.write_grid(gpath, np.zeros((2, 2, 8), dtype=np.float32))
        assert io.is_model_file(mpath)
        assert not io.is_model_file(gpath)

    def test_header_not_an_object_rejected(self, tmp_path):
        path = tmp_path / "m.bgmdl"
        path.write_bytes(b'["BGMDL1"]\n' + io.grid_to_bytes(np.zeros((5, 8))))
        assert io.is_model_file(path)
        with pytest.raises(GridParseError, match="not a JSON object"):
            io.load_model(path)

    @given(st.data())
    @settings(max_examples=300)
    def test_garbled_header_raises_only_parse_error(self, model_file, data):
        model = pr.SoftmaxModel.create(4, (2, 2, 2), loss_kind="WS")
        io.save_model(model_file, model)
        head, payload = model_file.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        how = data.draw(st.sampled_from(["drop", "replace", "whole", "cut"]))
        key = data.draw(st.sampled_from(sorted(header)))
        if how == "drop":
            del header[key]
        elif how == "replace":
            header[key] = data.draw(st.one_of(json_values, st.integers(-2, 9)))
        elif how == "whole":
            header = data.draw(json_values)
        head = json.dumps(header).encode("ascii")
        if how == "cut":
            head = head[:data.draw(st.integers(0, len(head) - 1))]
        model_file.write_bytes(head + b"\n" + payload)
        try:
            back = io.load_model(model_file)
        except GridParseError:
            return
        assert len(back.dims) == 3 and min(back.dims) >= 1
        assert back.loss_kind in pr.LOSS_KINDS
        assert back.weights.shape[1] == back.bias.shape[0]

    @given(st.data())
    def test_truncated_file_rejected(self, model_file, data):
        io.save_model(model_file, pr.SoftmaxModel.create(3, (2, 2, 2)))
        full = model_file.read_bytes()
        model_file.write_bytes(full[:data.draw(st.integers(0, len(full) - 1))])
        with pytest.raises(GridParseError):
            io.load_model(model_file)

    def test_epsilon_key_written_null_and_ignored(self, tmp_path):
        # the header keeps the key of the old WS solver temperature so that
        # model bytes stay as they were; a number there still loads
        path = tmp_path / "m.bgmdl"
        io.save_model(path, pr.SoftmaxModel.create(4, (2, 2, 2), loss_kind="WS"))
        head, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        assert list(header)[5] == "epsilon" and header["epsilon"] is None
        header["epsilon"] = 0.002
        path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
        assert not hasattr(io.load_model(path), "epsilon")
        del header["epsilon"]
        path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
        with pytest.raises(GridParseError, match="lacks key"):
            io.load_model(path)

    def test_save_is_deterministic(self, tmp_path):
        model = pr.SoftmaxModel.create(4, (2, 2, 2), seed=5)
        io.save_model(tmp_path / "a", model)
        io.save_model(tmp_path / "b", model)
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


class TestCodebookFile:
    def test_round_trip_keeps_unitarity(self, tmp_path):
        cb = ch.dft_codebook(8, 4, 4)
        path = tmp_path / "cb.json"
        io.save_codebook(path, cb)
        back = io.load_codebook(path)
        assert np.array_equal(back.tx_azimuth, cb.tx_azimuth)
        assert np.array_equal(back.tx_elevation, cb.tx_elevation)
        assert back.nr == 4

    def test_config_selects_custom_weights(self, tmp_path):
        cb = ch.dft_codebook(4, 2, 2)
        path = tmp_path / "cb.json"
        io.save_codebook(path, cb)
        cfg = io.parse_config({"codebook": {"Na": 4, "Ne": 2, "Nr": 2,
                                            "tx_weights": str(path)}})
        loaded = io.codebook_from_config(cfg)
        assert np.array_equal(loaded.tx_azimuth, cb.tx_azimuth)

    def test_dim_mismatch_rejected(self, tmp_path):
        cb = ch.dft_codebook(4, 2, 2)
        path = tmp_path / "cb.json"
        io.save_codebook(path, cb)
        cfg = io.parse_config({"codebook": {"Na": 8, "Ne": 4, "Nr": 4,
                                            "tx_weights": str(path)}})
        with pytest.raises(GridParseError, match="do not match"):
            io.codebook_from_config(cfg)

    def test_default_is_dft(self):
        cfg = io.parse_config({})
        cb = io.codebook_from_config(cfg)
        assert np.array_equal(cb.tx_azimuth, ch.dft_codebook(8, 4, 4).tx_azimuth)

    @pytest.mark.parametrize("text, match", [
        ("[]", "not a JSON object"),
        ("{nope", "codebook file"),
        ('{"azimuth_re": "x"}', "azimuth_re must be rows"),
        ('{"azimuth_re": [[1.0], [0.0, 1.0]]}', "azimuth_re must be rows"),
        ('{"azimuth_im": [[0.0]]}', "azimuth real and imaginary parts differ"),
        ('{"nr": 4.0}', "nr must be an integer"),
        ('{"nr": 0}', "at least one receive sector"),
        ('{"elevation_re": [[1.0, 1.0], [0.0, 0.0]]}', "not unitary"),
        ('{"na": 99}', "na 99 does not match the 2 azimuth beams"),
        ('{"ne": 1}', "ne 1 does not match the 2 elevation beams"),
        ('{"ne": "x"}', "ne must be an integer"),
        ('{"na": 2.0}', "na must be an integer"),
        ('{"na": true}', "na must be an integer"),
        ('{"na": null}', r"lacks key\(s\) \['na'\]"),
        ('{"ne": null}', r"lacks key\(s\) \['ne'\]"),
    ], ids=["list", "invalid_json", "string", "ragged", "im_shape", "float_nr", "zero_nr",
            "not_unitary", "wrong_na", "wrong_ne", "string_ne", "float_na", "bool_na",
            "no_na", "no_ne"])
    def test_malformed_file_rejected(self, codebook_file, text, match):
        # a key given as null is dropped from the file save_codebook writes
        doc = json.loads(text) if text.startswith("{\"") else None
        if isinstance(doc, dict):
            io.save_codebook(codebook_file, ch.dft_codebook(2, 2, 2))
            merged = {**json.loads(codebook_file.read_text()), **doc}
            text = json.dumps({k: v for k, v in merged.items() if v is not None})
        codebook_file.write_text(text)
        with pytest.raises(GridParseError, match=match):
            io.load_codebook(codebook_file)

    @given(st.data())
    @settings(max_examples=300)
    def test_garbled_file_raises_only_parse_error(self, codebook_file, data):
        io.save_codebook(codebook_file, ch.dft_codebook(2, 2, 2))
        doc = json.loads(codebook_file.read_text())
        how = data.draw(st.sampled_from(["drop", "replace", "row", "entry", "whole", "cut"]))
        key = data.draw(st.sampled_from(sorted(doc)))
        value = data.draw(st.one_of(json_values, st.integers(-2, 9), st.floats()))
        if how == "drop":
            del doc[key]
        elif how == "replace":
            doc[key] = value
        elif how == "row" and isinstance(doc[key], list):
            doc[key].append(value)
        elif how == "entry" and isinstance(doc[key], list):
            doc[key][data.draw(st.integers(0, 1))][data.draw(st.integers(0, 1))] = value
        elif how == "whole":
            doc = value
        text = json.dumps(doc)
        if how == "cut":
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        codebook_file.write_text(text)
        try:
            cb = io.load_codebook(codebook_file)
        except GridParseError:
            return
        assert cb.tx_azimuth.dtype == cb.tx_elevation.dtype == np.complex128
        assert type(cb.n_rx_sectors) is int and cb.nr >= 1


class TestReport:
    def test_round_trip(self, tmp_path):
        rep = EvalReport(k_list=[1, 2], accuracy=[0.5, 0.75],
                         tpr=[0.8, 0.9], samples=100, excluded=20)
        path = tmp_path / "r.json"
        io.save_report(path, rep)
        back = io.load_report(path)
        assert back == rep

    @given(st.data())
    @settings(max_examples=300)
    def test_garbled_report_raises_only_parse_error(self, report_file, data):
        doc = io.report_to_dict(EvalReport([1, 4], [0.5, 0.75], [0.8, 0.9], 10, 2))
        how = data.draw(st.sampled_from(["drop", "replace", "append", "whole", "cut"]))
        key = data.draw(st.sampled_from(sorted(doc)))
        if how == "drop":
            del doc[key]
        elif how == "replace":
            doc[key] = data.draw(st.one_of(json_values, st.integers(-2, 9)))
        elif how == "append" and isinstance(doc[key], list):
            doc[key].append(data.draw(st.one_of(json_values, st.integers(-2, 9))))
        elif how == "whole":
            doc = data.draw(json_values)
        text = json.dumps(doc)
        if how == "cut":
            text = text[:data.draw(st.integers(0, len(text) - 1))]
        report_file.write_text(text)
        try:
            back = io.load_report(report_file)
        except GridParseError:
            return
        assert len(back.k_list) == len(back.accuracy) == len(back.tpr)
        assert all(type(k) is int for k in back.k_list + [back.samples, back.excluded])
        assert all(type(v) in (int, float) and math.isfinite(v)
                   for v in back.accuracy + back.tpr)
        io.render_table(back)

    def test_table_layout(self):
        rep = EvalReport(k_list=[1, 8], accuracy=[0.25, 0.875],
                         tpr=[0.5, 1.0], samples=64, excluded=0)
        table = io.render_table(rep)
        lines = table.splitlines()
        assert lines[0].startswith("metric")
        assert "top-1" in lines[0] and "top-8" in lines[0]
        assert "0.2500" in lines[1] and "1.0000" in lines[2]
        assert "samples: 64" in lines[3]


class TestPgm:
    def test_binary_graymap(self, tmp_path):
        img = np.array([[0, 128], [255, 64]], dtype=np.uint8)
        path = tmp_path / "x.pgm"
        io.write_pgm(path, img)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[-4:] == bytes([0, 128, 255, 64])
