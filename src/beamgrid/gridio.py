"""File formats: binary grid rasters, path CSVs, run configs, models,
reports, and portable graymaps.

Grid raster ("BGRD1"): one ASCII header line `BGRD1 <rows> <cols> <channels>
<dtype>` with dtype f32 or u8, a single newline, then the little-endian
row-major channel-minor payload. Round-trips are bit-exact.

Path CSV: header `pixel_row,pixel_col,c,psi,aod_az,aod_el,aoa_az`, one row
per path, angles in radians, amplitudes linear. Floats are written with
repr so parsing reproduces the exact doubles.

Run config: a JSON object of sections. The `scene`, `budget`, `loss` and
`train` sections are the objects their stages take (scene.SceneConfig,
metrics.LinkBudget, predictor.LossConfig, predictor.TrainConfig);
parse_config checks each value's JSON type and each section's own
__post_init__ checks the values (`codebook` and `eval` included), so every
stage that loads a config rejects a bad value in any section.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import ArrayFrame
from .errors import GridParseError
from .metrics import EvalReport, LinkBudget
from .predictor import FEATURE_VERSION, LossConfig, SoftmaxModel, TrainConfig, \
    score_columns
from .scene import SceneChannels, SceneConfig, TxSite

GRID_MAGIC = b"BGRD1"
MODEL_MAGIC = b"BGMDL1"
_DTYPES = {"f32": np.dtype("<f4"), "u8": np.dtype("u1")}
PATH_HEADER = "pixel_row,pixel_col,c,psi,aod_az,aod_el,aoa_az"


def _encode_grid(array, dtype):
    """The BGRD1 header line of a grid and its payload: the array as a
    C-contiguous (rows, cols, channels) array of the file dtype."""
    arr = np.asarray(array)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError(f"grids are (rows, cols[, channels]); got shape {arr.shape}")
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be one of {sorted(_DTYPES)}, got {dtype!r}")
    rows, cols, ch = arr.shape
    header = f"BGRD1 {rows} {cols} {ch} {dtype}\n".encode("ascii")
    return header, np.ascontiguousarray(arr, dtype=_DTYPES[dtype])


def _write_grid_to(fh, array, dtype):
    """Write a grid to an open binary file; the payload goes straight from
    the array's buffer, with no bytes copy of it."""
    header, payload = _encode_grid(array, dtype)
    fh.write(header)
    fh.write(payload.data)


def _read_grid_from(fh):
    """The grid at the position of a binary file: its header line, then a
    payload read straight into the array, with no bytes copy of it.

    A bad magic or header, a negative dimension, or a payload that is not
    exactly the header's size up to the end of the file raises
    GridParseError.
    """
    head = fh.readline()
    if not head.startswith(GRID_MAGIC):
        raise GridParseError(
            f"bad magic at byte offset 0: expected {GRID_MAGIC!r}, got {head[:5]!r}")
    nl = len(head) - 1
    if not head.endswith(b"\n"):
        raise GridParseError(f"header newline missing within {len(head)} bytes")
    try:
        tokens = head[:nl].decode("ascii").split()
        _, rows, cols, ch, dtype = tokens
        rows, cols, ch = int(rows), int(cols), int(ch)
        itemsize = _DTYPES[dtype].itemsize
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise GridParseError(f"malformed header before byte offset {nl}: {exc}") from exc
    if min(rows, cols, ch) < 0:
        raise GridParseError(
            f"negative dimension in header before byte offset {nl}: {rows}x{cols}x{ch}")
    expected = rows * cols * ch * itemsize
    start = fh.tell()
    size = fh.seek(0, 2) - start
    if size == expected:  # checked before the payload is allocated
        fh.seek(start)
        try:
            arr = np.empty((rows, cols, ch), dtype=_DTYPES[dtype])
        except ValueError as exc:  # no payload, but a dimension beyond NumPy's range
            raise GridParseError(
                f"malformed header before byte offset {nl}: {exc}") from exc
        size = fh.readinto(arr)  # short only if the file shrank meanwhile
    if size != expected:
        raise GridParseError(
            f"payload at byte offset {nl + 1}: expected {expected} bytes, got {size}")
    return arr


def write_grid(path, array, dtype="f32"):
    with open(path, "wb") as fh:
        _write_grid_to(fh, array, dtype)


def read_grid(path):
    with open(path, "rb") as fh:
        return _read_grid_from(fh)


def write_paths_csv(path, channels):
    """Write a SceneChannels path table; row order is pixel-major with the
    tracer's per-pixel path order preserved."""
    rows = channels.pixel // channels.cols
    cols = channels.pixel % channels.cols
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(PATH_HEADER + "\n")
        for i in range(channels.n_paths):
            fh.write(f"{rows[i]},{cols[i]},{float(channels.magnitude[i])!r},"
                     f"{float(channels.phase[i])!r},{float(channels.aod_azimuth[i])!r},"
                     f"{float(channels.aod_elevation[i])!r},{float(channels.aoa_azimuth[i])!r}\n")


def read_paths_csv(path, rows, cols):
    """Parse a path table back into SceneChannels (no direct-path metadata).

    A malformed line, a pixel off the grid, a non-finite value or a
    non-ASCII byte raises GridParseError.
    """
    pr, pc, vals = [], [], [[], [], [], [], []]
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != PATH_HEADER:
                raise GridParseError(
                    f"path file header mismatch at byte offset 0: {header!r}")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 7:
                    raise GridParseError(f"line {lineno}: expected 7 fields, got {len(parts)}")
                try:
                    r, c = int(parts[0]), int(parts[1])
                    nums = [float(x) for x in parts[2:]]
                except ValueError as exc:
                    raise GridParseError(f"line {lineno}: {exc}") from exc
                if not all(map(math.isfinite, nums)):
                    raise GridParseError(f"line {lineno}: non-finite value in {line!r}")
                if not (0 <= r < rows and 0 <= c < cols):
                    raise GridParseError(
                        f"line {lineno}: pixel ({r},{c}) outside the {rows}x{cols} grid")
                pr.append(r)
                pc.append(c)
                for v, x in zip(vals, nums):
                    v.append(x)
    except UnicodeDecodeError as exc:
        raise GridParseError(f"path file {path}: {exc}") from exc
    pixel = np.asarray(pr, dtype=np.int64) * cols + np.asarray(pc, dtype=np.int64)
    order = np.argsort(pixel, kind="stable")  # group by pixel, keep file order
    arrs = [np.asarray(v, dtype=np.float64)[order] for v in vals]
    return SceneChannels(
        rows=rows, cols=cols, pixel=pixel[order],
        magnitude=arrs[0], phase=arrs[1], aod_azimuth=arrs[2],
        aod_elevation=arrs[3], aoa_azimuth=arrs[4])


def write_pgm(path, gray):
    """Binary portable graymap (P5) from a uint8 array."""
    arr = np.asarray(gray, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(arr.tobytes())


# ---------------------------------------------------------------------------
# run configuration

@dataclass
class CodebookSection:
    Na: int = 8
    Ne: int = 4
    Nr: int = 4
    tx_weights: str | None = None  # optional custom beam weight file

    def __post_init__(self):
        if min(self.dims) < 1:
            raise ValueError(f"codebook dimensions must be >= 1, got "
                             f"Na={self.Na}, Ne={self.Ne}, Nr={self.Nr}")

    @property
    def dims(self):
        return (self.Na, self.Ne, self.Nr)


@dataclass
class EvalSection:
    k_list: list[int] = field(default_factory=lambda: [1, 2, 4, 8, 16, 32])

    def __post_init__(self):
        if not self.k_list:
            raise ValueError("k_list must not be empty")
        if self.k_list[0] < 1 or any(a >= b for a, b in zip(self.k_list, self.k_list[1:])):
            raise ValueError(f"k_list must be strictly increasing from k >= 1, "
                             f"got {self.k_list}")


@dataclass
class RunConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    codebook: CodebookSection = field(default_factory=CodebookSection)
    budget: LinkBudget = field(default_factory=LinkBudget)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalSection = field(default_factory=EvalSection)

    def __post_init__(self):
        # a candidate list cannot be longer than the codebook's beam count
        n_beams = math.prod(self.codebook.dims)
        if self.eval.k_list[-1] > n_beams:
            raise ValueError(f"eval.k_list reaches k={self.eval.k_list[-1]}, beyond "
                             f"the codebook's {n_beams} beams")


_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}


def parse_config(doc):
    """Build a RunConfig from a JSON document dict.

    Unknown keys, a value whose JSON type does not match its field (an int
    passes for a float, a bool never for a number), a non-finite number and
    a value its section's __post_init__ rejects raise GridParseError, as
    does a k in eval.k_list beyond the codebook's beam count.
    """
    if not isinstance(doc, dict):
        raise GridParseError("config root must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise GridParseError(f"unknown config section(s): {sorted(unknown)}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise GridParseError(f"config section {name!r} must be an object")
        allowed = {f.name for f in fields(cls)}
        bad = set(section) - allowed
        if bad:
            raise GridParseError(f"unknown key(s) in config section {name!r}: {sorted(bad)}")
        for f in fields(cls):
            if f.name in section and not _json_type_ok(f.type, section[f.name]):
                raise GridParseError(
                    f"config {name}.{f.name} must be {f.type} (finite numbers only), "
                    f"got {section[f.name]!r}")
        try:
            kwargs[name] = cls(**section)
        except ValueError as exc:
            raise GridParseError(f"config section {name!r}: {exc}") from exc
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise GridParseError(f"config: {exc}") from exc


def _json_type_ok(annotation, value):
    """Whether a JSON value fits a field annotation such as 'int',
    'float | None' or 'list[int]'."""
    if annotation.startswith("list["):
        return isinstance(value, list) and all(
            _json_type_ok(annotation[5:-1], v) for v in value)
    return any(_JSON_KINDS[kind.strip()](value) for kind in annotation.split("|"))


def _is_finite(number):
    try:
        return math.isfinite(number)
    except OverflowError:  # an int beyond the float range
        return False


_JSON_KINDS = {
    "float": lambda v: _is_number(v) and _is_finite(v),
    "int": lambda v: _is_number(v) and isinstance(v, int),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "None": lambda v: v is None,
}


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GridParseError(f"config {path}: invalid JSON at offset {exc.pos}") from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# codebooks: JSON keeps the exact doubles, so unitarity survives the trip

def save_codebook(path, codebook):
    doc = {"na": codebook.na, "ne": codebook.ne, "nr": codebook.nr}
    for name, m in (("azimuth", codebook.tx_azimuth),
                    ("elevation", codebook.tx_elevation)):
        doc[f"{name}_re"] = m.real.tolist()
        doc[f"{name}_im"] = m.imag.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


_CODEBOOK_WEIGHTS = ("azimuth_re", "azimuth_im", "elevation_re", "elevation_im")


def load_codebook(path):
    """Codebook from a codebook file. Anything but the object save_codebook
    writes (valid UTF-8 JSON, each weight part a list of rows of finite
    numbers, all rows of one length, the real and imaginary parts of one
    shape, integers na, ne and nr, with na and ne the azimuth and elevation
    beam counts of the weights) raises GridParseError, as do weights that
    Codebook rejects."""
    from .channel import Codebook

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # invalid JSON or UTF-8
        raise GridParseError(f"codebook file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise GridParseError(f"codebook file {path} is not a JSON object")
    missing = [k for k in (*_CODEBOOK_WEIGHTS, "na", "ne", "nr") if k not in doc]
    if missing:
        raise GridParseError(f"codebook file {path} lacks key(s) {missing}")
    for key in _CODEBOOK_WEIGHTS:
        rows = doc[key]
        if not _json_type_ok("list[list[float]]", rows) or len({len(r) for r in rows}) > 1:
            raise GridParseError(
                f"codebook {key} must be rows of finite numbers, all of one length")
    for key in ("na", "ne", "nr"):
        if not _json_type_ok("int", doc[key]):
            raise GridParseError(f"codebook {key} must be an integer, got {doc[key]!r}")
    parts = {key: np.asarray(doc[key], dtype=np.float64) for key in _CODEBOOK_WEIGHTS}
    for name in ("azimuth", "elevation"):
        if parts[f"{name}_re"].shape != parts[f"{name}_im"].shape:
            raise GridParseError(f"codebook {name} real and imaginary parts differ in shape")
    try:
        # huge weights overflow the Gram matrix; the unitarity check then
        # rejects them
        with np.errstate(over="ignore", invalid="ignore"):
            cb = Codebook(parts["azimuth_re"] + 1j * parts["azimuth_im"],
                          parts["elevation_re"] + 1j * parts["elevation_im"], doc["nr"])
    except ValueError as exc:
        raise GridParseError(f"codebook file {path}: {exc}") from exc
    for key, name in (("na", "azimuth"), ("ne", "elevation")):
        if doc[key] != getattr(cb, key):
            raise GridParseError(f"codebook {key} {doc[key]} does not match the "
                                 f"{getattr(cb, key)} {name} beams of its weights")
    return cb


def codebook_from_config(cfg):
    """The configured codebook: custom transmit weights when the config
    names a weight file, the discrete-Fourier default otherwise."""
    from .channel import dft_codebook

    if cfg.codebook.tx_weights:
        cb = load_codebook(cfg.codebook.tx_weights)
        if (cb.na, cb.ne, cb.nr) != cfg.codebook.dims:
            raise GridParseError(
                f"codebook file dims {(cb.na, cb.ne, cb.nr)} do not match "
                f"the configured {cfg.codebook.dims}")
        return cb
    return dft_codebook(*cfg.codebook.dims)


# ---------------------------------------------------------------------------
# transmitter site

def tx_site_to_dict(tx):
    return {"pixel": [int(tx.pixel[0]), int(tx.pixel[1])],
            "height_m": float(tx.height_m),
            "boresight_azimuth": float(tx.frame.boresight_azimuth),
            "downtilt": float(tx.frame.downtilt)}


def tx_site_from_dict(doc):
    """TxSite from its JSON form. A missing key, a pixel that is not two
    integers, a non-finite height or angle or a negative height raises
    GridParseError."""
    if not isinstance(doc, dict):
        raise GridParseError("tx site must be a JSON object")
    missing = [k for k in ("pixel", "height_m", "boresight_azimuth", "downtilt")
               if k not in doc]
    if missing:
        raise GridParseError(f"tx site lacks key(s) {missing}")
    pixel = doc["pixel"]
    if not (isinstance(pixel, list) and len(pixel) == 2
            and all(_is_number(p) and math.isfinite(p) and p == int(p) for p in pixel)):
        raise GridParseError(f"tx pixel must be two integers, got {pixel!r}")
    for key in ("height_m", "boresight_azimuth", "downtilt"):
        if not (_is_number(doc[key]) and math.isfinite(doc[key])):
            raise GridParseError(f"tx {key} must be a finite number, got {doc[key]!r}")
    if doc["height_m"] < 0.0:
        raise GridParseError(f"tx height_m must be >= 0, got {doc['height_m']!r}")
    return TxSite(pixel=(int(pixel[0]), int(pixel[1])),
                  height_m=float(doc["height_m"]),
                  frame=ArrayFrame(float(doc["boresight_azimuth"]),
                                   float(doc["downtilt"])))


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def save_tx_site(path, tx):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tx_site_to_dict(tx), fh, indent=2)
        fh.write("\n")


def load_tx_site(path):
    with open(path, "r", encoding="utf-8") as fh:
        return tx_site_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# model files: one JSON header line, then the weight grid (bias in last row)

def save_model(path, model):
    header = {
        "magic": MODEL_MAGIC.decode("ascii"),
        "dims": list(model.dims),
        "loss_kind": model.loss.kind,
        "sep": bool(model.loss.sep),
        "seed": int(model.seed),
        # the temperature of the entropic WS solver, which is gone; the key
        # stays, always null, because stagebench/reference.json pins the
        # model bytes
        "epsilon": None,
        "floor_db": model.loss.floor_db,
        "feature_version": FEATURE_VERSION,
        "features": int(model.weights.shape[0]),
        "outputs": int(model.weights.shape[1]),
    }
    stacked = np.vstack([model.weights, model.bias[None, :]])
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("ascii") + b"\n")
        _write_grid_to(fh, stacked, "f32")


# load_model checks "epsilon" and ignores it (see save_model)
_MODEL_KEYS = {"dims": "list[int]", "loss_kind": "str", "sep": "bool", "seed": "int",
               "epsilon": "float | None", "floor_db": "float", "features": "int",
               "outputs": "int"}


def load_model(path):
    """SoftmaxModel from a model file. A header that is not the object
    save_model writes, a header that disagrees with the weight grid, an
    outputs count that is not the score columns of the model's kind
    (predictor.score_columns), or a non-finite weight raises
    GridParseError."""
    with open(path, "rb") as fh:
        header, loss = _model_header(fh.readline())
        stacked = _read_grid_from(fh)
    expect = (header["features"] + 1, header["outputs"], 1)  # bias in the last row
    if header["features"] < 0 or stacked.shape != expect:
        raise GridParseError(
            f"model weight grid {stacked.shape} does not match the header's "
            f"{header['features']} features and {header['outputs']} outputs")
    if stacked.size and not (np.isfinite(stacked.min()) and np.isfinite(stacked.max())):
        raise GridParseError(f"model {path} holds a non-finite weight")
    stacked = stacked[:, :, 0].astype(np.float64)
    model = SoftmaxModel(weights=stacked[:-1], bias=stacked[-1], dims=tuple(header["dims"]),
                         loss=loss, seed=header["seed"])
    columns = score_columns(model.dims)[model.kind]
    if header["outputs"] != columns:
        raise GridParseError(
            f"model header outputs {header['outputs']} is not the {columns} score "
            f"columns of a {model.kind} model over dims {list(model.dims)}")
    return model


def _model_header(head_line):
    """The header object of a model file and its LossConfig, checked."""
    try:
        header = json.loads(head_line.decode("ascii"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise GridParseError(f"model header at byte offset 0: {exc}") from exc
    if not isinstance(header, dict):
        raise GridParseError("model header at byte offset 0 is not a JSON object")
    if header.get("magic") != MODEL_MAGIC.decode("ascii"):
        raise GridParseError("model header magic mismatch at byte offset 0")
    if header.get("feature_version") != FEATURE_VERSION:
        raise GridParseError(
            f"model feature schema v{header.get('feature_version')} "
            f"does not match v{FEATURE_VERSION}")
    missing = [k for k in _MODEL_KEYS if k not in header]
    if missing:
        raise GridParseError(f"model header lacks key(s) {missing}")
    for key, kind in _MODEL_KEYS.items():
        if not _json_type_ok(kind, header[key]):
            raise GridParseError(f"model header {key} must be {kind}, got {header[key]!r}")
    dims = header["dims"]
    if len(dims) != 3 or min(dims) < 1:
        raise GridParseError(f"model dims must be three positive ints, got {dims!r}")
    try:
        loss = LossConfig(header["loss_kind"], header["sep"], float(header["floor_db"]))
    except ValueError as exc:
        raise GridParseError(f"model header: {exc}") from exc
    return header, loss


def is_model_file(path):
    """Whether a prediction file is read as a model: any file that does not
    start with GRID_MAGIC. load_model's header checks reject a non-model."""
    with open(path, "rb") as fh:
        return fh.read(len(GRID_MAGIC)) != GRID_MAGIC


# ---------------------------------------------------------------------------
# evaluation reports

REPORT_SCHEMA = "beamgrid-report-v1"
_REPORT_KEYS = {"k_list": "list[int]", "accuracy": "list[float]", "tpr": "list[float]",
                "samples": "int", "excluded": "int"}


def report_to_dict(report):
    return {"schema": REPORT_SCHEMA,
            "k_list": [int(k) for k in report.k_list],
            "accuracy": [float(a) for a in report.accuracy],
            "tpr": [float(t) for t in report.tpr],
            "samples": int(report.samples),
            "excluded": int(report.excluded)}


def save_report(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


def load_report(path):
    """EvalReport from a report file. Anything but the object
    report_to_dict writes (its schema and keys, integer k_list, samples
    and excluded, finite accuracy and tpr with one value per k) raises
    GridParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # invalid JSON or UTF-8
        raise GridParseError(f"report {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise GridParseError(f"report {path} is not a JSON object")
    keys = {"schema", *_REPORT_KEYS}
    if set(doc) != keys:
        raise GridParseError(f"report {path} keys {sorted(doc)} are not {sorted(keys)}")
    if doc["schema"] != REPORT_SCHEMA:
        raise GridParseError(f"report schema {doc['schema']!r} is not {REPORT_SCHEMA!r}")
    for key, kind in _REPORT_KEYS.items():
        if not _json_type_ok(kind, doc[key]):
            raise GridParseError(
                f"report {key} must be {kind} (finite numbers only), got {doc[key]!r}")
    if not len(doc["k_list"]) == len(doc["accuracy"]) == len(doc["tpr"]):
        raise GridParseError(
            f"report has {len(doc['k_list'])} k values, {len(doc['accuracy'])} "
            f"accuracies and {len(doc['tpr'])} tpr values")
    return EvalReport(k_list=doc["k_list"], accuracy=doc["accuracy"],
                      tpr=doc["tpr"], samples=doc["samples"],
                      excluded=doc["excluded"])


def render_table(report):
    """Aligned text table of accuracy and throughput ratio per k."""
    ks = report.k_list
    head = "metric   " + "".join(f"  top-{k:<5d}" for k in ks)
    acc = "accuracy " + "".join(f"  {a:8.4f} " for a in report.accuracy)
    tpr = "tpr      " + "".join(f"  {t:8.4f} " for t in report.tpr)
    info = f"samples: {report.samples}   excluded: {report.excluded}"
    return "\n".join([head, acc, tpr, info])
