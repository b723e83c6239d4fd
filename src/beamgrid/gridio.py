"""File formats: binary grid rasters, path CSVs, and the JSON records (run
configs, tx sites, model headers, reports, codebooks), and portable
graymaps.

Grid raster ("BGRD1"): one ASCII header line `BGRD1 <rows> <cols> <channels>
<dtype>` with dtype f32 or u8, a single newline, then the little-endian
row-major channel-minor payload. Round-trips are bit-exact.

Path CSV: header `pixel_row,pixel_col,c,psi,aod_az,aod_el,aoa_az`, one row
per path, angles in radians, amplitudes linear. Floats are written with
repr so parsing reproduces the exact doubles.

JSON records: each is one dataclass whose fields are the file's keys, in
order. Writers emit its dataclasses.asdict; read_record is the one reader,
which checks the key set and each value's JSON type and runs the class's
__post_init__. A run config is a RunConfig, whose sections are the objects
their stages take (scene.SceneConfig, metrics.LinkBudget,
predictor.LossConfig, predictor.TrainConfig), so every stage that loads a
config rejects a bad value in any section.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

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


def _read_grid_from(fh, where):
    """The grid at the position of a binary file: its header line, then a
    payload read straight into the array, with no bytes copy of it.

    A bad magic or header, a negative dimension, or a payload that is not
    exactly the header's size up to the end of the file raises
    GridParseError naming where ("grid s.mask.bgrd").
    """
    head = fh.readline()
    magic = head[:len(GRID_MAGIC) + 1].rstrip()  # the whole first token
    if magic != GRID_MAGIC:
        raise GridParseError(
            f"{where}: bad magic at byte offset 0: expected {GRID_MAGIC!r}, got {magic[:8]!r}")
    nl = len(head) - 1
    if not head.endswith(b"\n"):
        raise GridParseError(f"{where}: header newline missing within {len(head)} bytes")
    try:
        tokens = head[:nl].decode("ascii").split()
        _, rows, cols, ch, dtype = tokens
        rows, cols, ch = int(rows), int(cols), int(ch)
        itemsize = _DTYPES[dtype].itemsize
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        raise GridParseError(
            f"{where}: malformed header before byte offset {nl}: {exc}") from exc
    if min(rows, cols, ch) < 0:
        raise GridParseError(f"{where}: negative dimension in header before byte "
                             f"offset {nl}: {rows}x{cols}x{ch}")
    expected = rows * cols * ch * itemsize
    start = fh.tell()
    size = fh.seek(0, 2) - start
    if size == expected:  # checked before the payload is allocated
        fh.seek(start)
        try:
            arr = np.empty((rows, cols, ch), dtype=_DTYPES[dtype])
        except ValueError as exc:  # no payload, but a dimension beyond NumPy's range
            raise GridParseError(
                f"{where}: malformed header before byte offset {nl}: {exc}") from exc
        size = fh.readinto(arr)  # short only if the file shrank meanwhile
    if size != expected:
        raise GridParseError(f"{where}: payload at byte offset {nl + 1}: expected "
                             f"{expected} bytes, got {size}")
    return arr


def write_grid(path, array, dtype="f32"):
    with open(path, "wb") as fh:
        _write_grid_to(fh, array, dtype)


def read_grid(path):
    with open(path, "rb") as fh:
        return _read_grid_from(fh, f"grid {path}")


def write_paths_csv(path, channels):
    """Write a SceneChannels path table; row order is pixel-major with the
    tracer's per-pixel path order preserved. Each value is its float's
    repr, so the table reads back bit for bit; the LoS grid is not in it."""
    rows, cols = np.divmod(channels.pixel, channels.cols)
    columns = (rows, cols, channels.magnitude, channels.phase, channels.aod_azimuth,
               channels.aod_elevation, channels.aoa_azimuth)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(PATH_HEADER + "\n")
        fh.writelines("%d,%d,%r,%r,%r,%r,%r\n" % line
                      for line in zip(*(column.tolist() for column in columns)))


def read_paths_csv(path, rows, cols):
    """Parse a path table back into SceneChannels, their los None: a path
    table carries no LoS grid.

    A malformed line, a pixel off the grid, a non-finite value or a
    non-ASCII byte raises GridParseError naming the file.
    """
    where = f"path file {path}"
    pr, pc, vals = [], [], [[], [], [], [], []]
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().strip()
            if header != PATH_HEADER:
                raise GridParseError(
                    f"{where}: header mismatch at byte offset 0: {header!r}")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 7:
                    raise GridParseError(
                        f"{where}: line {lineno}: expected 7 fields, got {len(parts)}")
                try:
                    r, c = int(parts[0]), int(parts[1])
                    nums = [float(x) for x in parts[2:]]
                except ValueError as exc:
                    raise GridParseError(f"{where}: line {lineno}: {exc}") from exc
                if not all(map(math.isfinite, nums)):
                    raise GridParseError(
                        f"{where}: line {lineno}: non-finite value in {line!r}")
                if not (0 <= r < rows and 0 <= c < cols):
                    raise GridParseError(f"{where}: line {lineno}: pixel ({r},{c}) "
                                         f"outside the {rows}x{cols} grid")
                pr.append(r)
                pc.append(c)
                for v, x in zip(vals, nums):
                    v.append(x)
    except UnicodeDecodeError as exc:
        raise GridParseError(f"{where}: {exc}") from exc
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
# JSON records

def read_record(cls, doc, where):
    """The dataclass cls built from the JSON object doc by its field
    annotations; where names the object in errors ("config cfg.json").

    doc must hold every field that has no default and no other key, and
    each value must have the JSON type of its field's annotation
    (_json_type_ok: an int passes for a float, a bool never for a number,
    numbers are finite). A field whose default is a dataclass is read as a
    nested record. cls's __post_init__ then checks the values. Any failure
    raises GridParseError naming where and the key.
    """
    if not isinstance(doc, dict):
        raise GridParseError(f"{where} is not a JSON object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise GridParseError(f"unknown key(s) in {where}: {unknown}")
    missing = [name for name, f in known.items() if name not in doc
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise GridParseError(f"{where} lacks key(s) {missing}")
    kwargs = {}
    for name, value in doc.items():
        f = known[name]
        if is_dataclass(f.default_factory):
            kwargs[name] = read_record(f.default_factory, value, f"{where} section {name!r}")
        elif _json_type_ok(f.type, value):
            kwargs[name] = value
        else:
            raise GridParseError(f"{where}: {name} must be {f.type} (finite numbers only), "
                                 f"got {value!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise GridParseError(f"{where}: {exc}") from exc


def _json_type_ok(annotation, value):
    """Whether a JSON value fits a field annotation such as 'int',
    'float | None' or 'list[int]'."""
    if annotation.startswith("list["):
        return isinstance(value, list) and all(
            _json_type_ok(annotation[5:-1], v) for v in value)
    return any(_JSON_KINDS[kind.strip()](value) for kind in annotation.split("|"))


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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


def _json_doc(data, where, encoding="utf-8"):
    """The JSON document in the bytes data; text that is not valid in the
    encoding, not JSON or with a key repeated in one object raises
    GridParseError naming where."""
    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise GridParseError(f"{where}: repeated key {key!r}")
            doc[key] = value
        return doc

    try:
        return json.loads(data.decode(encoding), object_pairs_hook=unique_keys)
    except UnicodeDecodeError as exc:
        raise GridParseError(f"{where}: invalid {encoding} at byte offset {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise GridParseError(f"{where}: invalid JSON at offset {exc.pos}: {exc.msg}") from exc


def _load_record(cls, path, what):
    """read_record of cls from the JSON file at path; errors name the file
    as what and the path ("tx site s.tx.json")."""
    where = f"{what} {path}"
    with open(path, "rb") as fh:
        return read_record(cls, _json_doc(fh.read(), where), where)


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


def parse_config(doc):
    """RunConfig from a JSON document (read_record); a section left out
    takes its defaults."""
    return read_record(RunConfig, doc, "config")


def load_config(path):
    return _load_record(RunConfig, path, "config")


# ---------------------------------------------------------------------------
# codebooks: JSON keeps the exact doubles, so unitarity survives the trip

@dataclass
class CodebookFile:
    """A codebook file's object. Each weight part is rows of one length,
    the real and imaginary parts of one shape; na and ne are the azimuth
    and elevation beam counts of the weights, which must pass Codebook's
    checks. __post_init__ builds the Codebook."""

    na: int
    ne: int
    nr: int
    azimuth_re: list[list[float]]
    azimuth_im: list[list[float]]
    elevation_re: list[list[float]]
    elevation_im: list[list[float]]

    def __post_init__(self):
        from .channel import Codebook

        weights = []
        for name in ("azimuth", "elevation"):
            parts = []
            for key in (f"{name}_re", f"{name}_im"):
                if len({len(row) for row in getattr(self, key)}) > 1:
                    raise ValueError(f"{key} must be rows all of one length")
                parts.append(np.asarray(getattr(self, key), dtype=np.float64))
            if parts[0].shape != parts[1].shape:
                raise ValueError(f"{name} real and imaginary parts differ in shape")
            weights.append(parts[0] + 1j * parts[1])
        # huge weights overflow the Gram matrix; the unitarity check then
        # rejects them
        with np.errstate(over="ignore", invalid="ignore"):
            self.codebook = Codebook(*weights, self.nr)
        for key, name in (("na", "azimuth"), ("ne", "elevation")):
            if getattr(self, key) != getattr(self.codebook, key):
                raise ValueError(f"{key} {getattr(self, key)} does not match the "
                                 f"{getattr(self.codebook, key)} {name} beams of its weights")


def save_codebook(path, codebook):
    az, el = codebook.tx_azimuth, codebook.tx_elevation
    record = CodebookFile(codebook.na, codebook.ne, codebook.nr, az.real.tolist(),
                          az.imag.tolist(), el.real.tolist(), el.imag.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(record), fh)
        fh.write("\n")


def load_codebook(path):
    return _load_record(CodebookFile, path, "codebook file").codebook


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

@dataclass
class TxSiteFile:
    """A tx site file's object: a TxSite with its frame's angles inline, a
    pixel of two integers and a height >= 0. __post_init__ builds the
    TxSite."""

    pixel: list[int]
    height_m: float
    boresight_azimuth: float
    downtilt: float

    def __post_init__(self):
        if len(self.pixel) != 2:
            raise ValueError(f"pixel must be two integers, got {self.pixel!r}")
        if self.height_m < 0.0:
            raise ValueError(f"height_m must be >= 0, got {self.height_m!r}")
        self.site = TxSite(tuple(self.pixel), float(self.height_m),
                           ArrayFrame(float(self.boresight_azimuth), float(self.downtilt)))


def tx_site_to_dict(tx):
    return asdict(TxSiteFile([int(tx.pixel[0]), int(tx.pixel[1])], float(tx.height_m),
                             float(tx.frame.boresight_azimuth), float(tx.frame.downtilt)))


def save_tx_site(path, tx):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tx_site_to_dict(tx), fh, indent=2)
        fh.write("\n")


def load_tx_site(path):
    return _load_record(TxSiteFile, path, "tx site").site


# ---------------------------------------------------------------------------
# model files: one JSON header line, then the weight grid (bias in last row)

@dataclass
class ModelHeader:
    """A model file's header line: the file's magic, the model's dims,
    loss settings and seed, the feature schema version and the weight
    grid's shape. __post_init__ builds the model's LossConfig, whose checks
    are the config's `loss` section's."""

    magic: str
    dims: list[int]
    loss_kind: str
    sep: bool
    seed: int
    # the temperature of the entropic WS solver, which is gone; the key
    # stays, written null and ignored on load, because
    # stagebench/reference.json pins the model bytes
    epsilon: float | None
    floor_db: float
    feature_version: int
    features: int
    outputs: int

    def __post_init__(self):
        if self.magic != MODEL_MAGIC.decode("ascii"):
            raise ValueError(f"magic {self.magic!r} is not {MODEL_MAGIC.decode('ascii')!r}")
        if self.feature_version != FEATURE_VERSION:
            raise ValueError(f"feature schema v{self.feature_version} "
                             f"does not match v{FEATURE_VERSION}")
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ValueError(f"dims must be three positive ints, got {self.dims!r}")
        self.loss = LossConfig(self.loss_kind, self.sep, float(self.floor_db))


def save_model(path, model):
    header = ModelHeader(MODEL_MAGIC.decode("ascii"), list(model.dims), model.loss.kind,
                         bool(model.loss.sep), int(model.seed), None, model.loss.floor_db,
                         FEATURE_VERSION, int(model.weights.shape[0]),
                         int(model.weights.shape[1]))
    stacked = np.vstack([model.weights, model.bias[None, :]])
    with open(path, "wb") as fh:
        fh.write(json.dumps(asdict(header)).encode("ascii") + b"\n")
        _write_grid_to(fh, stacked, "f32")


def load_model(path):
    """SoftmaxModel from a model file. A header that read_record rejects as
    a ModelHeader, a header that disagrees with the weight grid, an outputs
    count that is not the score columns of the model's kind
    (predictor.score_columns), or a non-finite weight raises
    GridParseError."""
    where = f"model {path} header"
    with open(path, "rb") as fh:
        header = read_record(ModelHeader, _json_doc(fh.readline(), where, "ascii"), where)
        stacked = _read_grid_from(fh, f"model {path} weight grid")
    expect = (header.features + 1, header.outputs, 1)  # bias in the last row
    if header.features < 0 or stacked.shape != expect:
        raise GridParseError(
            f"model {path} weight grid {stacked.shape} does not match the header's "
            f"{header.features} features and {header.outputs} outputs")
    if stacked.size and not (np.isfinite(stacked.min()) and np.isfinite(stacked.max())):
        raise GridParseError(f"model {path} holds a non-finite weight")
    stacked = stacked[:, :, 0].astype(np.float64)
    model = SoftmaxModel(weights=stacked[:-1], bias=stacked[-1], dims=tuple(header.dims),
                         loss=header.loss, seed=header.seed)
    columns = score_columns(model.dims)[model.kind]
    if header.outputs != columns:
        raise GridParseError(
            f"model header outputs {header.outputs} is not the {columns} score "
            f"columns of a {model.kind} model over dims {list(model.dims)}")
    return model


def is_model_file(path):
    """Whether a prediction file is read as a model: any file that does not
    start with GRID_MAGIC. load_model's header checks reject a non-model."""
    with open(path, "rb") as fh:
        return fh.read(len(GRID_MAGIC)) != GRID_MAGIC


# ---------------------------------------------------------------------------
# evaluation reports

REPORT_SCHEMA = "beamgrid-report-v1"


@dataclass
class _Schema:
    schema: str


@dataclass
class ReportFile(EvalReport, _Schema):
    """A report file's object: the schema tag, then the EvalReport fields
    (dataclass fields come from the bases in reverse order), with one
    accuracy and one tpr value per k."""

    def __post_init__(self):
        if self.schema != REPORT_SCHEMA:
            raise ValueError(f"schema {self.schema!r} is not {REPORT_SCHEMA!r}")
        if not len(self.k_list) == len(self.accuracy) == len(self.tpr):
            raise ValueError(f"{len(self.k_list)} k values, {len(self.accuracy)} "
                             f"accuracies and {len(self.tpr)} tpr values")


def report_to_dict(report):
    return asdict(ReportFile(REPORT_SCHEMA, **asdict(report)))


def save_report(path, report):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")


def load_report(path):
    record = _load_record(ReportFile, path, "report")
    return EvalReport(**{f.name: getattr(record, f.name) for f in fields(EvalReport)})


def render_table(report):
    """Aligned text table of accuracy and throughput ratio per k."""
    ks = report.k_list
    head = "metric   " + "".join(f"  top-{k:<5d}" for k in ks)
    acc = "accuracy " + "".join(f"  {a:8.4f} " for a in report.accuracy)
    tpr = "tpr      " + "".join(f"  {t:8.4f} " for t in report.tpr)
    info = f"samples: {report.samples}   excluded: {report.excluded}"
    return "\n".join([head, acc, tpr, info])
