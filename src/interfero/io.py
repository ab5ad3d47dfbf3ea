"""File formats: matrix/plan JSON, dataset bundles, and result reports.

All JSON emitted here is deterministic (sorted keys, fixed separators,
trailing newline) so that repeated runs with identical inputs produce
byte-identical artifacts.  Every schema carries a ``"schema": "v1"`` tag.

Formats
-------
matrix JSON     {"schema": "v1", "rows": R, "cols": C,
                 "re": [row-major reals], "im": [row-major reals]}
plan JSON       {"schema": "v1", "n_s", "n_p", "elements": [...]} where each
                element is {"kind": "BS", "mode"}, {"kind": "IU", "mode",
                "matrix": matrix JSON} or {"kind": "IP", "mode", "phases"}.
dataset bundle  directory with counts.csv ("i,j,b,count", each index once),
                one coincidence/<i>_<i'>_<j>_<j'>.csv ("tau,count") per
                curve, spectra/<j>.csv ("omega,value"), manifest.json
                with m, B (repetition blocks), units, the generating seed
                and "calibration", and, when that is true, calibration.csv
                ("record,i,j,b,tau,count" with "single" and "curve" rows).
                Counts are numbers in 0..2**53.
result JSON     {"schema": "v1", "w": matrix JSON, "gamma", "gamma_sigma",
                 "sigma_re"/"sigma_im": matrix JSON (bootstrap only),
                 "diagnostics": [...]}
"""

import csv
import json
import math
import os

import numpy as np

from . import csd
from .characterize import CharacterizationDataset
from .errors import ParseError
from .photonic import SpectralFunction

SCHEMA = "v1"


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------
def dump_json(obj, path):
    """Write JSON with a canonical byte representation."""
    with open(path, "w") as fh:
        fh.write(json_text(obj))


def json_text(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON file {path}: {exc}") from exc


def _as_object(obj, path):
    if not isinstance(obj, dict):
        raise ParseError(f"expected a JSON object in {path}",
                         found=type(obj).__name__)
    return obj


def _require(obj, key, path):
    if key not in _as_object(obj, path):
        raise ParseError(f"missing key {key!r} in {path}")
    return obj[key]


def _require_int(obj, key, path, minimum=None):
    value = _require(obj, key, path)
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    # int() would truncate 2.7 and accept "2" and true
    if out is None or out != value or isinstance(value, bool):
        raise ParseError(f"{key!r} must be an integer in {path}",
                         value=repr(value))
    if minimum is not None and out < minimum:
        raise ParseError(f"{key!r} must be >= {minimum} in {path}", value=out)
    return out


def _float_vector(value, key, path):
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{key!r} must be a list of numbers in {path}") from exc
    if out.ndim != 1:
        raise ParseError(f"{key!r} must be a flat list of numbers in {path}",
                         shape=list(out.shape))
    return out


def _check_schema(obj, path):
    if _as_object(obj, path).get("schema", SCHEMA) != SCHEMA:
        raise ParseError(f"unsupported schema {obj.get('schema')!r} in {path}")


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------
def matrix_to_json(m):
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {
        "schema": SCHEMA,
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [float(x) for x in np.real(m).ravel()],
        "im": [float(x) for x in np.imag(m).ravel()],
    }


def matrix_from_json(obj, path="<matrix>"):
    _check_schema(obj, path)
    rows = _require_int(obj, "rows", path, minimum=0)
    cols = _require_int(obj, "cols", path, minimum=0)
    re = _float_vector(_require(obj, "re", path), "re", path)
    im = _float_vector(obj.get("im", np.zeros(rows * cols)), "im", path)
    if re.size != rows * cols or im.size != rows * cols:
        raise ParseError(f"matrix entry count mismatch in {path}",
                         rows=rows, cols=cols, re=int(re.size),
                         im=int(im.size))
    # assign the parts: re + 1j·im would turn a −0.0 imaginary part into +0.0
    out = np.empty((rows, cols), dtype=complex)
    out.real = re.reshape(rows, cols)
    out.imag = im.reshape(rows, cols)
    return out


def read_matrix(path):
    return matrix_from_json(load_json(path), path)


def write_matrix(m, path):
    dump_json(matrix_to_json(m), path)


# ---------------------------------------------------------------------------
# decomposition plans
# ---------------------------------------------------------------------------
def plan_to_json(plan):
    elements = []
    for e in plan.elements:
        out = {"kind": e["kind"], "mode": int(e["mode"])}
        if e["kind"] == "IU":
            out["matrix"] = matrix_to_json(e["matrix"])
        elif e["kind"] == "IP":
            out["phases"] = [float(x) for x in e["phases"]]
        elements.append(out)
    return {"schema": SCHEMA, "n_s": plan.n_s, "n_p": plan.n_p,
            "elements": elements}


def plan_from_json(obj, path="<plan>"):
    _check_schema(obj, path)
    n_s = _require_int(obj, "n_s", path, minimum=1)
    n_p = _require_int(obj, "n_p", path, minimum=1)
    raw_elements = _require(obj, "elements", path)
    if not isinstance(raw_elements, list):
        raise ParseError(f"'elements' must be a list in {path}",
                         found=type(raw_elements).__name__)
    elements = []
    for raw in raw_elements:
        kind = _require(raw, "kind", path)
        mode = _require_int(raw, "mode", path)
        if kind == "BS":
            elements.append(csd.bs_element(mode))
        elif kind == "IU":
            elements.append(csd.iu_element(
                mode, matrix_from_json(_require(raw, "matrix", path), path)))
        elif kind == "IP":
            elements.append(csd.ip_element(mode, _float_vector(
                _require(raw, "phases", path), "phases", path)))
        else:
            raise ParseError(f"unknown element kind {kind!r} in {path}")
    return csd.DecompositionPlan(n_s, n_p, elements)


def read_plan(path):
    return plan_from_json(load_json(path), path)


def write_plan(plan, path):
    dump_json(plan_to_json(plan), path)


# ---------------------------------------------------------------------------
# dataset bundles
# ---------------------------------------------------------------------------
def _fmt(x):
    return repr(float(x))


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_bundle(dataset, path, seed=None, extra_manifest=None):
    """Write a CharacterizationDataset as a bundle directory."""
    os.makedirs(path, exist_ok=True)
    os.makedirs(os.path.join(path, "coincidence"), exist_ok=True)
    os.makedirs(os.path.join(path, "spectra"), exist_ok=True)

    singles = dataset.single_counts
    _write_csv(os.path.join(path, "counts.csv"), ["i", "j", "b", "count"],
               ([i + 1, j + 1, b + 1, _fmt(singles[i, j, b])]
                for i, j, b in np.ndindex(singles.shape)))

    for key in sorted(dataset.coincidence):
        tau, counts = dataset.coincidence[key]
        name = "_".join(str(k) for k in key) + ".csv"
        _write_csv(os.path.join(path, "coincidence", name), ["tau", "count"],
                   ([_fmt(t), _fmt(c)] for t, c in zip(tau, counts)))

    for j, spec in enumerate(dataset.spectra, start=1):
        _write_csv(os.path.join(path, "spectra", f"{j}.csv"),
                   ["omega", "value"],
                   ([_fmt(om), _fmt(val)]
                    for om, val in zip(spec.omega, spec.values)))

    has_cal = (dataset.calibration_single is not None
               and dataset.calibration_curve is not None)
    if has_cal:
        cal = dataset.calibration_single
        tau, counts = dataset.calibration_curve
        _write_csv(os.path.join(path, "calibration.csv"),
                   ["record", "i", "j", "b", "tau", "count"],
                   [["single", i + 1, j + 1, b + 1, "", _fmt(cal[i, j, b])]
                    for i, j, b in np.ndindex(cal.shape)]
                   + [["curve", "", "", "", _fmt(t), _fmt(c)]
                      for t, c in zip(tau, counts)])

    manifest = {
        "schema": SCHEMA,
        "m": dataset.m,
        "B": dataset.n_blocks,
        "units": {"tau": "ps", "omega": "rad/ps", "count": "events"},
        "seed": seed,
        "calibration": bool(has_cal),
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    dump_json(manifest, os.path.join(path, "manifest.json"))


def _read_csv(path, expect_header):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if not rows or rows[0] != expect_header:
        raise ParseError(f"bad header in {path}",
                         expected=expect_header,
                         found=rows[0] if rows else None)
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(expect_header):
            raise ParseError(f"wrong field count in {path}", line=line,
                             expected=len(expect_header), found=len(row))
    return rows[1:]


def _number(token, path, line):
    """A finite number on ``line`` of ``path``."""
    try:
        x = float(token)
    except ValueError as exc:
        raise ParseError(f"not a number: {token!r} in {path}",
                         line=line) from exc
    if not math.isfinite(x):
        raise ParseError(f"not a finite number: {token!r} in {path}",
                         line=line)
    return x


def _count(token, path, line):
    """A count on ``line``: a number in 0..2**53, where floats still hold
    every integer and products of four counts stay finite."""
    x = _number(token, path, line)
    if x < 0:
        raise ParseError(f"negative count {token!r} in {path}", line=line)
    if x > 2.0 ** 53:
        raise ParseError(f"count {token!r} above 2**53 in {path}", line=line)
    return x


def _index(token, upper, name, path, line):
    """Parse a 1-based index on ``line`` and check it lies in 1..upper."""
    try:
        k = int(token)
    except ValueError as exc:
        raise ParseError(f"{name} is not an integer: {token!r} in {path}",
                         line=line) from exc
    if not 1 <= k <= upper:
        raise ParseError(f"{name} out of range 1..{upper} in {path}",
                         line=line, **{name: k})
    return k


def _count_array(entries, shape, path):
    """The array of ``entries``, (i, j, b, count, line) tuples with 1-based
    indices, which must name each index of ``shape`` exactly once."""
    out = np.zeros(shape)
    lines = {}
    for i, j, b, count, line in entries:
        if (i, j, b) in lines:
            raise ParseError(f"repeated count index in {path}",
                             index=[i, j, b], line=line,
                             first_line=lines[i, j, b])
        lines[i, j, b] = line
        out[i - 1, j - 1, b - 1] = count
    for i, j, b in np.ndindex(shape):
        if (i + 1, j + 1, b + 1) not in lines:
            raise ParseError(f"missing count index in {path}",
                             index=[i + 1, j + 1, b + 1])
    return out


def read_bundle(path):
    """Load a bundle directory into a CharacterizationDataset."""
    manifest = load_json(os.path.join(path, "manifest.json"))
    _check_schema(manifest, path)
    m = _require_int(manifest, "m", path, minimum=2)
    n_blocks = _require_int(manifest, "B", path, minimum=1)

    counts_path = os.path.join(path, "counts.csv")
    singles = _count_array(
        [(_index(i, m, "i", counts_path, line),
          _index(j, m, "j", counts_path, line),
          _index(b, n_blocks, "b", counts_path, line),
          _count(count, counts_path, line), line)
         for line, (i, j, b, count) in enumerate(
             _read_csv(counts_path, ["i", "j", "b", "count"]), start=2)],
        (m, m, n_blocks), counts_path)

    curves = {}
    cdir = os.path.join(path, "coincidence")
    if not os.path.isdir(cdir):
        raise ParseError(f"missing coincidence directory in {path}")
    for name in sorted(os.listdir(cdir)):
        if not name.endswith(".csv"):
            continue
        try:
            key = tuple(int(tok) for tok in name[:-4].split("_"))
        except ValueError as exc:
            raise ParseError(f"bad coincidence file name {name!r}") from exc
        # outputs i ≠ i' and inputs j ≠ j', all in 1..m
        if (len(key) != 4 or not all(1 <= k <= m for k in key)
                or key[0] == key[1] or key[2] == key[3]):
            raise ParseError(f"bad coincidence file name {name!r}", m=m)
        curve_path = os.path.join(cdir, name)
        rows = _read_csv(curve_path, ["tau", "count"])
        tau = np.array([_number(r[0], curve_path, line)
                        for line, r in enumerate(rows, start=2)])
        counts = np.array([_count(r[1], curve_path, line)
                           for line, r in enumerate(rows, start=2)])
        curves[key] = (tau, counts)

    spectra = []
    for j in range(1, m + 1):
        spec_path = os.path.join(path, "spectra", f"{j}.csv")
        rows = _read_csv(spec_path, ["omega", "value"])
        omega = np.array([_number(r[0], spec_path, line)
                          for line, r in enumerate(rows, start=2)])
        values = np.array([_number(r[1], spec_path, line)
                           for line, r in enumerate(rows, start=2)])
        spectra.append(SpectralFunction(omega, values))

    cal_single = cal_curve = None
    cal_path = os.path.join(path, "calibration.csv")
    if manifest.get("calibration"):
        singles_entries, tau_list, count_list = [], [], []
        for line, (record, i, j, b, tau, count) in enumerate(_read_csv(
                cal_path, ["record", "i", "j", "b", "tau", "count"]), start=2):
            # the reference beam splitter has two ports
            if record == "single":
                singles_entries.append((
                    _index(i, 2, "i", cal_path, line),
                    _index(j, 2, "j", cal_path, line),
                    _index(b, n_blocks, "b", cal_path, line),
                    _count(count, cal_path, line), line))
            elif record == "curve":
                tau_list.append(_number(tau, cal_path, line))
                count_list.append(_count(count, cal_path, line))
            else:
                raise ParseError(
                    f"unknown calibration record {record!r} in {cal_path}",
                    line=line)
        # the manifest promises calibration: both record kinds must be there
        if not singles_entries or not tau_list:
            raise ParseError(f"calibration lacks single or curve records in "
                             f"{cal_path}", single=len(singles_entries),
                             curve=len(tau_list))
        cal_single = _count_array(
            singles_entries, (2, 2, max(e[2] for e in singles_entries)),
            cal_path)
        cal_curve = (np.array(tau_list), np.array(count_list))

    return CharacterizationDataset(singles, curves, spectra,
                                   calibration_single=cal_single,
                                   calibration_curve=cal_curve)


# ---------------------------------------------------------------------------
# characterization results
# ---------------------------------------------------------------------------
def result_to_json(est):
    """Serialize a characterize.Characterization, with σs once set."""
    out = {
        "schema": SCHEMA,
        "w": matrix_to_json(est.w),
        "gamma": float(est.gamma),
        "gamma_sigma": float(est.gamma_sigma),
        "diagnostics": est.diagnostics,
    }
    if est.sigma_re is not None:
        out["sigma_re"] = matrix_to_json(est.sigma_re)
        out["sigma_im"] = matrix_to_json(est.sigma_im)
    return out


def write_result(est, path):
    dump_json(result_to_json(est), path)


# ---------------------------------------------------------------------------
# plot-ready CSV (x, y, series)
# ---------------------------------------------------------------------------
def write_plot_csv(rows, path):
    """Write (x, y, series) triples for external plotting tools."""
    _write_csv(path, ["x", "y", "series"],
               ([_fmt(x), _fmt(y), series] for x, y, series in rows))
