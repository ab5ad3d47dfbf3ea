import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from interfero import characterize, cli, csd, harness, io, linalg


def run(argv):
    return cli.main(list(argv))


def _reject(constant):
    raise ValueError(f"{constant} is not strict JSON")


def strict_json(text):
    """One JSON document, as a strict parser reads it: NaN and Infinity
    are rejected."""
    return json.loads(text, parse_constant=_reject)


def write_unitary(path, m, seed):
    u = linalg.haar_random_unitary(m, seed=seed)
    io.write_matrix(u, path)
    return u


# ---------------------------------------------------------------------------
# decompose / reconstruct / cost
# ---------------------------------------------------------------------------
def test_decompose_reconstruct_round_trip(tmp_path, capsys):
    u = write_unitary(tmp_path / "u.json", 6, 1)
    assert run(["decompose", "--in", str(tmp_path / "u.json"),
                "--ns", "3", "--np", "2",
                "--out", str(tmp_path / "plan.json")]) == 0
    summary = strict_json(capsys.readouterr().out)
    assert summary["census"]["BS"] == 6
    assert run(["reconstruct", "--in", str(tmp_path / "plan.json"),
                "--out", str(tmp_path / "u2.json")]) == 0
    back = io.read_matrix(tmp_path / "u2.json")
    assert linalg.trace_distance(back, u) < 1e-9


def _plan_json():
    plan = csd.decompose(linalg.haar_random_unitary(4, seed=5), 2, 2)
    return io.plan_to_json(plan)


def _first(obj, kind):
    return next(e for e in obj["elements"] if e["kind"] == kind)


MALFORMED_PLANS = {
    "mode-not-integer": (
        lambda obj: obj["elements"][0].update(mode="x"), "ParseError"),
    "mode-fractional": (
        lambda obj: obj["elements"][0].update(mode=1.5), "ParseError"),
    "negative-n_s": (lambda obj: obj.update(n_s=-1), "ParseError"),
    "zero-n_p": (lambda obj: obj.update(n_p=0), "ParseError"),
    "infinite-n_s": (lambda obj: obj.update(n_s=float("inf")), "ParseError"),
    "elements-not-a-list": (lambda obj: obj.update(elements=5), "ParseError"),
    "element-not-an-object": (lambda obj: obj.update(elements=[5]),
                              "ParseError"),
    "phase-not-numeric": (lambda obj: _first(obj, "IP")["phases"].__setitem__(
        0, "half"), "ParseError"),
    "phases-nested": (lambda obj: _first(obj, "IP").update(phases=[[0.5]]),
                      "ParseError"),
    "matrix-rows-not-integer": (
        lambda obj: _first(obj, "IU")["matrix"].update(rows="two"),
        "ParseError"),
    # null and NaN parse as NaN; reconstruct refuses the non-finite product
    "phase-not-finite": (lambda obj: _first(obj, "IP")["phases"].__setitem__(
        0, float("nan")), "PlanCorrupt"),
    "matrix-entry-null": (
        lambda obj: _first(obj, "IU")["matrix"]["re"].__setitem__(0, None),
        "PlanCorrupt"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PLANS))
def test_reconstruct_malformed_plan_exit_1(case, tmp_path, capsys):
    obj = _plan_json()
    corrupt, expected = MALFORMED_PLANS[case]
    corrupt(obj)
    (tmp_path / "plan.json").write_text(json.dumps(obj))
    out = tmp_path / "u.json"
    assert run(["reconstruct", "--in", str(tmp_path / "plan.json"),
                "--out", str(out)]) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["schema"] == "v1"
    assert err["error"] == expected
    assert not out.exists()


def test_reconstruct_plan_that_is_not_an_object_exit_1(tmp_path, capsys):
    (tmp_path / "plan.json").write_text("[1, 2]")
    assert run(["reconstruct", "--in", str(tmp_path / "plan.json"),
                "--out", str(tmp_path / "u.json")]) == 1
    assert strict_json(capsys.readouterr().err)["error"] == "ParseError"
    assert not (tmp_path / "u.json").exists()


def test_cost_verb(tmp_path, capsys):
    assert run(["cost", "--ns", "4", "--np", "2"]) == 0
    report = strict_json(capsys.readouterr().out)
    assert report["beam_splitters"] == 12
    assert report["reduction_factor"] == pytest.approx(28 / 12)


def test_decompose_domain_error_exit_1(tmp_path, capsys):
    io.write_matrix(np.eye(6) * 2.0, tmp_path / "bad.json")
    rc = run(["decompose", "--in", str(tmp_path / "bad.json"),
              "--ns", "3", "--np", "2", "--out", str(tmp_path / "p.json")])
    assert rc == 1
    err = strict_json(capsys.readouterr().err)
    assert err["schema"] == "v1"
    assert err["error"] == "NotUnitary"


def test_reconstruct_corrupt_plan_exit_1(tmp_path, capsys):
    plan = csd.DecompositionPlan(2, 1, [csd.iu_element(5, np.eye(1))])
    io.write_plan(plan, tmp_path / "plan.json")
    rc = run(["reconstruct", "--in", str(tmp_path / "plan.json"),
              "--out", str(tmp_path / "u.json")])
    assert rc == 1
    assert strict_json(capsys.readouterr().err)["error"] == "PlanCorrupt"


@pytest.mark.parametrize("argv", [["--ns", "0", "--np", "2"],
                                  ["--ns", "3", "--np", "0"]])
def test_cost_invalid_dimension_exit_1(argv, capsys):
    assert run(["cost", *argv]) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["schema"] == "v1"
    assert err["error"] == "InvalidDimension"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--m", "3", "--out", "x"])  # missing --seed
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_one_parser_serves_every_main_call(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process; verbs run one after another,
    # with usage and domain errors between them, print what a parser built
    # afresh for each call prints
    io.write_matrix(np.eye(3), tmp_path / "m.json")
    calls = [["cost", "--ns", "3", "--np", "2"],
             ["immanant", "--in", str(tmp_path / "m.json"),
              "--partition", "2,1"],
             ["simulate", "--m", "3", "--out", "x"],  # missing --seed
             ["basis", "--n", "3", "--irrep", "1,1"],
             ["cost", "--ns", "0", "--np", "2"],
             ["frobnicate"],
             ["cost", "--help"],
             ["cost", "--ns", "4", "--np", "3"]]

    def outputs():
        seen = []
        for argv in calls:
            try:
                rc = run(argv)
            except SystemExit as exc:
                rc = f"exit {exc.code}"
            out = capsys.readouterr()
            seen.append((rc, out.out, out.err))
        return seen

    shared = outputs()
    assert cli._parser() is cli._parser()
    assert [rc for rc, _, _ in shared] == [0, 0, "exit 2", 0, 1, "exit 2",
                                          "exit 0", 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == shared


# ---------------------------------------------------------------------------
# simulate / characterize / trials
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("argv", [
    ["simulate", "--m", "3", "--gamma", "1.5", "--seed", "1"],
    ["simulate", "--m", "3", "--gamma", "-0.5", "--seed", "1"],
    ["trials", "--m", "3", "--variant", "full", "--trials", "1",
     "--seed", "1", "--gamma", "2"]])
def test_gamma_out_of_range_exit_1(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["schema"] == "v1"
    assert err["error"] == "InvalidGamma"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--m", "1", "--seed", "1"],
    ["trials", "--m", "1", "--variant", "full", "--trials", "1",
     "--seed", "1"]])
def test_single_port_exit_1(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["schema"] == "v1"
    assert err["error"] == "InvalidDimension"
    assert not out.exists()


def test_characterize_short_curve_exit_1(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    assert run(["simulate", "--m", "3", "--gamma", "0.9", "--seed", "3",
                "--out", str(bundle)]) == 0
    path = bundle / "coincidence" / "1_2_1_2.csv"
    path.write_text("".join(path.read_text().splitlines(True)[:5]))
    capsys.readouterr()
    rc = run(["characterize", "--data", str(bundle),
              "--out", str(tmp_path / "result.json")])
    assert rc == 1
    err = strict_json(capsys.readouterr().err)
    assert err["schema"] == "v1"
    assert err["error"] == "InsufficientData"


@pytest.fixture(scope="module")
def m4_bundle(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("bundle") / "m4"
    assert run(["simulate", "--m", "4", "--seed", "3",
                "--out", str(bundle)]) == 0
    return bundle


def _edit_line(relpath, line, edit):
    """Replace data line ``line`` (1 = first after the header)."""
    def apply(bundle):
        path = bundle / relpath
        lines = path.read_text().splitlines(True)
        lines[line] = edit(lines[line])
        path.write_text("".join(lines))
    return apply


def _field(k, value):
    def edit(text):
        fields = text.rstrip("\n").split(",")
        fields[k] = value
        return ",".join(fields) + "\n"
    return edit


def _swap_first_rows(relpath):
    def apply(bundle):
        path = bundle / relpath
        lines = path.read_text().splitlines(True)
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("".join(lines))
    return apply


def _zero_values(relpath):
    """Set the value column of every data line to 0.0."""
    def apply(bundle):
        path = bundle / relpath
        header, *rows = path.read_text().splitlines(True)
        path.write_text(header + "".join(_field(1, "0.0")(r) for r in rows))
    return apply


def _keep_rows(relpath, n):
    """Cut the file down to its header and first ``n`` data lines."""
    def apply(bundle):
        path = bundle / relpath
        path.write_text("".join(path.read_text().splitlines(True)[:n + 1]))
    return apply


def _drop(relpath, prefix):
    """Delete every data line of ``relpath`` that starts with ``prefix``."""
    def apply(bundle):
        path = bundle / relpath
        path.write_text("".join(text for text in path.read_text().splitlines(
            True) if not text.startswith(prefix)))
    return apply


def _copy(src, dst):
    return lambda bundle: shutil.copy(bundle / src, bundle / dst)


def _manifest(**changes):
    def apply(bundle):
        path = bundle / "manifest.json"
        manifest = strict_json(path.read_text())
        path.write_text(json.dumps({**manifest, **changes}))
    return apply


# (corruption, error code[, file line that details["line"] names])
MALFORMED_BUNDLES = {
    "omega-not-increasing": (_swap_first_rows("spectra/1.csv"), "ShapeError"),
    "negative-spectrum": (_edit_line("spectra/2.csv", 1, _field(1, "-0.5")),
                          "ShapeError"),
    "spectrum-all-zero": (_zero_values("spectra/2.csv"), "ShapeError"),
    "spectrum-one-row": (_keep_rows("spectra/2.csv", 1), "ShapeError"),
    "counts-i-above-m": (_edit_line("counts.csv", 1, _field(0, "5")),
                         "ParseError", 2),
    "counts-i-zero": (_edit_line("counts.csv", 1, _field(0, "0")),
                      "ParseError"),
    "counts-j-zero": (_edit_line("counts.csv", 1, _field(1, "0")),
                      "ParseError"),
    "counts-b-above-B": (_edit_line("counts.csv", 1, _field(2, "11")),
                         "ParseError"),
    "counts-i-not-integer": (_edit_line("counts.csv", 1, _field(0, "x")),
                             "ParseError", 2),
    "counts-count-not-numeric": (_edit_line("counts.csv", 1, _field(3, "n/a")),
                                 "ParseError"),
    "counts-negative": (_edit_line("counts.csv", 1, _field(3, "-8129.0")),
                        "ParseError"),
    "counts-nan": (_edit_line("counts.csv", 1, _field(3, "nan")),
                   "ParseError", 2),
    "calibration-count-negative": (
        _edit_line("calibration.csv", 1, _field(5, "-1.0")), "ParseError"),
    "curve-count-infinite": (_edit_line("coincidence/1_2_1_2.csv", 1,
                                        _field(1, "inf")), "ParseError", 2),
    "curve-count-negative-mid-column": (
        _edit_line("coincidence/1_2_1_2.csv", 20, _field(1, "-3.0")),
        "ParseError"),
    "counts-short-row": (_edit_line("counts.csv", 1, lambda t: "1,1,1\n"),
                         "ParseError"),
    "calibration-i-above-2": (_edit_line("calibration.csv", 1, _field(1, "3")),
                              "ParseError", 2),
    "calibration-unknown-record": (
        _edit_line("calibration.csv", 2, _field(0, "triple")), "ParseError", 3),
    "calibration-b-zero": (_edit_line("calibration.csv", 1, _field(3, "0")),
                           "ParseError"),
    "curve-tau-not-numeric": (_edit_line("coincidence/1_2_1_2.csv", 1,
                                         _field(0, "soon")), "ParseError", 2),
    "spectrum-value-not-numeric": (
        _edit_line("spectra/2.csv", 3, _field(1, "high")), "ParseError", 4),
    "curve-port-above-m": (_copy("coincidence/1_2_1_2.csv",
                                 "coincidence/1_9_1_2.csv"), "ParseError"),
    "curve-repeated-port": (_copy("coincidence/1_2_1_2.csv",
                                  "coincidence/1_1_1_2.csv"), "ParseError"),
    "curve-swapped-label-twin": (_copy("coincidence/1_2_1_3.csv",
                                       "coincidence/2_1_3_1.csv"),
                                 "ShapeError"),
    "manifest-m-not-integer": (_manifest(m="four"), "ParseError"),
    "manifest-B-zero": (_manifest(B=0), "ParseError"),
    # the manifest says "calibration": true
    "calibration-file-deleted": (
        lambda bundle: (bundle / "calibration.csv").unlink(), "ParseError"),
    "calibration-singles-deleted": (_drop("calibration.csv", "single,"),
                                    "ParseError"),
    "calibration-curve-deleted": (_drop("calibration.csv", "curve,"),
                                  "ParseError"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_BUNDLES))
def test_characterize_malformed_bundle_exit_1(case, m4_bundle, tmp_path,
                                              capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(m4_bundle, bundle)
    corrupt, expected, *line = MALFORMED_BUNDLES[case]
    corrupt(bundle)
    capsys.readouterr()
    out = tmp_path / "result.json"
    assert run(["characterize", "--data", str(bundle), "--out", str(out)]) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["schema"] == "v1"
    assert err["error"] == expected
    if line:
        assert err["details"]["line"] == line[0]
    assert not out.exists()


@pytest.fixture(scope="module")
def m3_bundle(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("bundle") / "m3"
    assert run(["simulate", "--m", "3", "--seed", "1",
                "--out", str(bundle)]) == 0
    return bundle


def _set_count(i, j, b, value):
    """Set the count of counts.csv row (i, j, b)."""
    def apply(bundle):
        path = bundle / "counts.csv"
        lines = path.read_text().splitlines(True)
        (k,) = [k for k, text in enumerate(lines)
                if text.startswith(f"{i},{j},{b},")]
        lines[k] = f"{i},{j},{b},{value}\n"
        path.write_text("".join(lines))
    return apply


def _copies(relpath, prefix, n):
    """Leave ``n`` copies, one after another, of the data line of
    ``relpath`` that starts with ``prefix``."""
    def apply(bundle):
        path = bundle / relpath
        lines = path.read_text().splitlines(True)
        (k,) = [k for k, text in enumerate(lines) if text.startswith(prefix)]
        lines[k:k + 1] = [lines[k]] * n
        path.write_text("".join(lines))
    return apply


@pytest.mark.parametrize("corrupt,name,details", [
    (_copies("counts.csv", "2,2,3,", 0), "counts.csv", {"index": [2, 2, 3]}),
    (_copies("counts.csv", "2,2,3,", 2), "counts.csv",
     {"index": [2, 2, 3], "line": 45, "first_line": 44}),
    (_copies("calibration.csv", "single,2,1,4,", 0), "calibration.csv",
     {"index": [2, 1, 4]})],
    ids=["count-dropped", "count-repeated", "calibration-single-dropped"])
def test_characterize_needs_each_single_count_once(corrupt, name, details,
                                                   m3_bundle, tmp_path,
                                                   capsys):
    # a missing count would be read as 0, and a repeated one would win
    bundle = tmp_path / "bundle"
    shutil.copytree(m3_bundle, bundle)
    corrupt(bundle)
    capsys.readouterr()
    out = tmp_path / "result.json"
    assert run(["characterize", "--data", str(bundle), "--out", str(out)]) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["error"] == "ParseError"
    assert err["message"].endswith(str(bundle / name))
    assert err["details"] == details
    assert not out.exists()


@pytest.mark.parametrize("corrupt,expected,details", [
    (_edit_line("spectra/2.csv", 1, _field(1, "1e308")), "ShapeError",
     {"norm_squared": "Infinity"}),
    (_set_count(1, 1, 5, "1e308"), "ParseError", {"line": 6})],
    ids=["spectrum-overflows", "count-overflows"])
def test_overflow_exit_1_writes_one_strict_json_document(
        corrupt, expected, details, m3_bundle, tmp_path):
    # stderr of a real process: numpy's floating-point warnings, were they
    # printed, would come before the error's JSON
    bundle = tmp_path / "bundle"
    shutil.copytree(m3_bundle, bundle)
    corrupt(bundle)
    proc = subprocess.run(
        [sys.executable, "-m", "interfero.cli", "characterize", "--data",
         str(bundle), "--out", str(tmp_path / "result.json")],
        capture_output=True, text=True)
    assert proc.returncode == 1
    err = strict_json(proc.stderr)
    assert err["error"] == expected
    if details is not None:
        assert err["details"] == details


def test_count_above_2_53_names_file_and_line(m3_bundle, tmp_path, capsys):
    # every counts.csv row, a coincidence count and two calibration counts
    bundle = tmp_path / "bundle"
    shutil.copytree(m3_bundle, bundle)
    cases = [("counts.csv", k, 3) for k in range(1, 91)]
    cases += [("coincidence/1_2_1_3.csv", 7, 1), ("calibration.csv", 40, 5),
              ("calibration.csv", 41, 5)]
    for relpath, line, field in cases:
        path = bundle / relpath
        text = path.read_text()
        _edit_line(relpath, line, _field(field, "1e308"))(bundle)
        assert run(["characterize", "--data", str(bundle),
                    "--out", str(tmp_path / "result.json")]) == 1
        path.write_text(text)
        err = strict_json(capsys.readouterr().err)
        assert err["error"] == "ParseError"
        assert err["message"].endswith(str(path))
        assert err["details"] == {"line": line + 1}


def test_characterize_bootstrap_unstable_exit_1(tmp_path, monkeypatch,
                                                capsys):
    # 1 of these 20 replicates fails calibration, above a rate of 0
    u = linalg.haar_random_unitary(3, seed=4)
    ds = harness.simulate_dataset(u, 0.9, seed=4, photons_per_input=2e3,
                                  pair_rate=4e2)
    io.write_bundle(ds, tmp_path / "bundle", seed=4)
    monkeypatch.setattr(characterize, "MAX_REPLICATE_FAILURE_RATE", 0.0)
    out = tmp_path / "result.json"
    assert run(["characterize", "--data", str(tmp_path / "bundle"),
                "--bootstrap", "20", "--seed", "3", "--out", str(out)]) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["error"] == "BootstrapUnstable"
    assert err["details"] == {"failure_rate": 0.05, "failures": [
        {"replicate": 9, "error": "fitted mode matching outside [0, 1]",
         "class": "CalibrationOutOfRange"}]}
    assert not out.exists()


def test_threads_flag_is_gone():
    with pytest.raises(SystemExit) as exc:
        run(["--threads", "2", "cost", "--ns", "2", "--np", "2"])
    assert exc.value.code == 2


def test_simulate_then_characterize(tmp_path):
    bundle = tmp_path / "bundle"
    assert run(["simulate", "--m", "3", "--gamma", "1.0", "--seed", "7",
                "--noiseless", "--out", str(bundle)]) == 0
    assert run(["characterize", "--data", str(bundle),
                "--out", str(tmp_path / "result.json")]) == 0
    res = strict_json((tmp_path / "result.json").read_text())
    w = io.matrix_from_json(res["w"])
    u = io.read_matrix(bundle / "unitary.json")
    assert harness.characterization_error(w, u) < 1e-6


def test_characterize_bootstrap_emits_sigmas(tmp_path):
    bundle = tmp_path / "bundle"
    run(["simulate", "--m", "3", "--gamma", "0.95", "--seed", "3",
         "--out", str(bundle)])
    assert run(["characterize", "--data", str(bundle),
                "--bootstrap", "8", "--seed", "1",
                "--out", str(tmp_path / "result.json"),
                "--plot-csv", str(tmp_path / "curves.csv")]) == 0
    res = strict_json((tmp_path / "result.json").read_text())
    assert "sigma_re" in res and "sigma_im" in res
    assert (tmp_path / "curves.csv").read_text().startswith("x,y,series")


def test_characterize_bootstrap_requires_seed(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    run(["simulate", "--m", "3", "--gamma", "0.95", "--seed", "3",
         "--out", str(bundle)])
    rc = run(["characterize", "--data", str(bundle), "--bootstrap", "4",
              "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "seed" in strict_json(capsys.readouterr().err)["message"]


def test_trials_verb(tmp_path):
    assert run(["trials", "--m", "3", "--variant", "full", "--trials", "2",
                "--seed", "5", "--out", str(tmp_path / "rep.json"),
                "--plot-csv", str(tmp_path / "t.csv")]) == 0
    rep = strict_json((tmp_path / "rep.json").read_text())
    assert rep["variant"] == "full" and len(rep["per_trial"]) == 2
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,series" and len(lines) == 3


# ---------------------------------------------------------------------------
# group-theory verbs
# ---------------------------------------------------------------------------
def test_basis_verb(tmp_path):
    assert run(["basis", "--n", "3", "--irrep", "1,1",
                "--out", str(tmp_path / "b.json")]) == 0
    out = strict_json((tmp_path / "b.json").read_text())
    assert out["dimension"] == 8
    assert len(out["states"]) == 8
    assert all(len(s["gt"]) == 3 for s in out["states"])


def test_dfunc_verb(tmp_path):
    v = linalg.haar_special_unitary(3, np.random.default_rng(9))
    io.write_matrix(v, tmp_path / "v.json")
    assert run(["dfunc", "--in", str(tmp_path / "v.json"), "--irrep", "1,1",
                "--out", str(tmp_path / "d.json")]) == 0
    out = strict_json((tmp_path / "d.json").read_text())
    d = io.matrix_from_json(out["matrix"])
    assert d.shape == (8, 8)
    assert linalg.unitarity_defect(d) < 1e-9


def test_dfunc_rejects_a_matrix_that_is_not_n_by_n(tmp_path, capsys):
    # three (p, q, alpha, beta, gamma) rows: not a group element
    rows = [[1, 2, 0.1, 0.5, 0.2], [2, 3, -0.3, 1.0, 0.0],
            [1, 3, 0.7, 0.2, -0.1]]
    io.write_matrix(np.array(rows), tmp_path / "rots.json")
    assert run(["dfunc", "--in", str(tmp_path / "rots.json"),
                "--irrep", "1,1"]) == 1
    assert strict_json(capsys.readouterr().err)["error"] == "ShapeError"


def test_dfunc_honours_interf_tol(tmp_path, monkeypatch, capsys):
    # unitarity defect about 2e-7: above the 1e-8 default, below 1e-5
    v = linalg.haar_special_unitary(3, np.random.default_rng(9)) * (1 + 1e-7)
    io.write_matrix(v, tmp_path / "v.json")
    argv = ["dfunc", "--in", str(tmp_path / "v.json"), "--irrep", "1,1",
            "--out", str(tmp_path / "d.json")]
    monkeypatch.setenv("INTERF_TOL", "1e-5")
    assert run(argv) == 0
    monkeypatch.delenv("INTERF_TOL")
    assert run(argv) == 1
    err = strict_json(capsys.readouterr().err)
    assert err["error"] == "NotUnitary"
    assert err["details"]["tol"] == 1e-8


def test_dfunc_rejects_non_unitary(tmp_path, capsys):
    io.write_matrix(2 * np.eye(3), tmp_path / "v.json")
    assert run(["dfunc", "--in", str(tmp_path / "v.json"),
                "--irrep", "1,1"]) == 1
    assert strict_json(capsys.readouterr().err)["error"] == "NotUnitary"


def test_immanant_verb(tmp_path, capsys):
    io.write_matrix(np.eye(3), tmp_path / "m.json")
    assert run(["immanant", "--in", str(tmp_path / "m.json"),
                "--partition", "2,1"]) == 0
    out = strict_json(capsys.readouterr().out)
    assert out["re"] == pytest.approx(2.0)  # character dimension of (2,1)
    assert out["im"] == pytest.approx(0.0)


def test_verify_identities_exit_0(tmp_path):
    assert run(["verify-identities", "--group", "su3", "--trials", "20",
                "--seed", "7", "--out", str(tmp_path / "v.json")]) == 0
    out = strict_json((tmp_path / "v.json").read_text())
    assert out["pass"] is True
    assert out["max_residual"] < 1e-10
    assert all(c["residual"] < 1e-10 for c in out["checks"])


def test_verify_identities_su4_su5_su2(tmp_path):
    for group in ("su2", "su4", "su5"):
        assert run(["verify-identities", "--group", group, "--trials", "2",
                    "--seed", "3", "--out", str(tmp_path / "v.json")]) == 0


def test_verify_identities_conjecture_probe(tmp_path):
    assert run(["verify-identities", "--group", "su4", "--trials", "1",
                "--seed", "9", "--conjecture",
                "--out", str(tmp_path / "v.json")]) == 0
    out = strict_json((tmp_path / "v.json").read_text())
    probes = out["conjecture"]
    assert len(probes) == 2
    for probe in probes:
        assert set(probe) >= {"partition", "rows", "cols", "holds",
                              "residual", "expected_terms"}
    # the probe is exploratory: the run succeeds whether or not it holds
    assert run(["verify-identities", "--group", "su2", "--trials", "1",
                "--seed", "9", "--conjecture",
                "--out", str(tmp_path / "v2.json")]) == 1


def test_interf_tol_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("INTERF_TOL", "1e-300")
    rc = run(["verify-identities", "--group", "su3", "--trials", "1",
              "--seed", "1", "--out", str(tmp_path / "v.json")])
    assert rc == 1
    capsys.readouterr()
    monkeypatch.setenv("INTERF_TOL", "not-a-number")
    rc = run(["verify-identities", "--group", "su3", "--trials", "1",
              "--seed", "1", "--out", str(tmp_path / "v.json")])
    assert rc == 1


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
def test_seeded_invocations_byte_reproducible(tmp_path):
    for args, artifact in [
        (["simulate", "--m", "3", "--gamma", "0.9", "--seed", "11",
          "--out", "{d}/bundle"], "bundle/counts.csv"),
        (["trials", "--m", "3", "--variant", "nocal", "--trials", "1",
          "--seed", "2", "--out", "{d}/rep.json"], "rep.json"),
        (["verify-identities", "--group", "su3", "--trials", "2",
          "--seed", "5", "--out", "{d}/v.json"], "v.json"),
    ]:
        outs = []
        for d in (tmp_path / "run1", tmp_path / "run2"):
            d.mkdir(exist_ok=True)
            argv = [a.format(d=d) for a in args]
            assert run(argv) == 0
            outs.append((d / artifact).read_bytes())
        assert outs[0] == outs[1]


def test_console_script_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "interfero.cli", "cost", "--ns", "3",
         "--np", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert strict_json(proc.stdout)["beam_splitters"] == 6


def test_every_verb_has_help():
    parser = cli.build_parser()
    for verb in ["decompose", "reconstruct", "characterize", "simulate",
                 "trials", "dfunc", "basis", "immanant",
                 "verify-identities", "cost"]:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([verb, "--help"])
        assert exc.value.code == 0
