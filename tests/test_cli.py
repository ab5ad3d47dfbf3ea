import json
import subprocess
import sys

import numpy as np
import pytest

from interfero import cli, csd, harness, io, linalg


def run(argv):
    return cli.main(list(argv))


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
    summary = json.loads(capsys.readouterr().out)
    assert summary["census"]["BS"] == 6
    assert run(["reconstruct", "--in", str(tmp_path / "plan.json"),
                "--out", str(tmp_path / "u2.json")]) == 0
    back = io.read_matrix(tmp_path / "u2.json")
    assert linalg.trace_distance(back, u) < 1e-9


def test_cost_verb(tmp_path, capsys):
    assert run(["cost", "--ns", "4", "--np", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["beam_splitters"] == 12
    assert report["reduction_factor"] == pytest.approx(28 / 12)


def test_decompose_domain_error_exit_1(tmp_path, capsys):
    io.write_matrix(np.eye(6) * 2.0, tmp_path / "bad.json")
    rc = run(["decompose", "--in", str(tmp_path / "bad.json"),
              "--ns", "3", "--np", "2", "--out", str(tmp_path / "p.json")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["schema"] == "v1"
    assert err["error"] == "NotUnitary"


def test_reconstruct_corrupt_plan_exit_1(tmp_path, capsys):
    plan = csd.DecompositionPlan(2, 1, [csd.iu_element(5, np.eye(1))])
    io.write_plan(plan, tmp_path / "plan.json")
    rc = run(["reconstruct", "--in", str(tmp_path / "plan.json"),
              "--out", str(tmp_path / "u.json")])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "PlanCorrupt"


@pytest.mark.parametrize("argv", [["--ns", "0", "--np", "2"],
                                  ["--ns", "3", "--np", "0"]])
def test_cost_invalid_dimension_exit_1(argv, capsys):
    assert run(["cost", *argv]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["schema"] == "v1"
    assert err["error"] == "InvalidDimension"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--m", "3", "--out", "x"])  # missing --seed
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


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
    err = json.loads(capsys.readouterr().err)
    assert err["schema"] == "v1"
    assert err["error"] == "InvalidGamma"
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
    err = json.loads(capsys.readouterr().err)
    assert err["schema"] == "v1"
    assert err["error"] == "InsufficientData"


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
    res = json.loads((tmp_path / "result.json").read_text())
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
    res = json.loads((tmp_path / "result.json").read_text())
    assert "sigma_re" in res and "sigma_im" in res
    assert (tmp_path / "curves.csv").read_text().startswith("x,y,series")


def test_characterize_bootstrap_requires_seed(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    run(["simulate", "--m", "3", "--gamma", "0.95", "--seed", "3",
         "--out", str(bundle)])
    rc = run(["characterize", "--data", str(bundle), "--bootstrap", "4",
              "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "seed" in json.loads(capsys.readouterr().err)["message"]


def test_trials_verb(tmp_path):
    assert run(["trials", "--m", "3", "--variant", "full", "--trials", "2",
                "--seed", "5", "--out", str(tmp_path / "rep.json"),
                "--plot-csv", str(tmp_path / "t.csv")]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["variant"] == "full" and len(rep["per_trial"]) == 2
    lines = (tmp_path / "t.csv").read_text().strip().splitlines()
    assert lines[0] == "x,y,series" and len(lines) == 3


# ---------------------------------------------------------------------------
# group-theory verbs
# ---------------------------------------------------------------------------
def test_basis_verb(tmp_path):
    assert run(["basis", "--n", "3", "--irrep", "1,1",
                "--out", str(tmp_path / "b.json")]) == 0
    out = json.loads((tmp_path / "b.json").read_text())
    assert out["dimension"] == 8
    assert len(out["states"]) == 8
    assert all(len(s["gt"]) == 3 for s in out["states"])


def test_dfunc_verb(tmp_path):
    v = linalg.haar_special_unitary(3, np.random.default_rng(9))
    io.write_matrix(v, tmp_path / "v.json")
    assert run(["dfunc", "--in", str(tmp_path / "v.json"), "--irrep", "1,1",
                "--out", str(tmp_path / "d.json")]) == 0
    out = json.loads((tmp_path / "d.json").read_text())
    d = io.matrix_from_json(out["matrix"])
    assert d.shape == (8, 8)
    assert linalg.unitarity_defect(d) < 1e-9


def test_immanant_verb(tmp_path, capsys):
    io.write_matrix(np.eye(3), tmp_path / "m.json")
    assert run(["immanant", "--in", str(tmp_path / "m.json"),
                "--partition", "2,1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["re"] == pytest.approx(2.0)  # character dimension of (2,1)
    assert out["im"] == pytest.approx(0.0)


def test_verify_identities_exit_0(tmp_path):
    assert run(["verify-identities", "--group", "su3", "--trials", "20",
                "--seed", "7", "--out", str(tmp_path / "v.json")]) == 0
    out = json.loads((tmp_path / "v.json").read_text())
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
    out = json.loads((tmp_path / "v.json").read_text())
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
    assert json.loads(proc.stdout)["beam_splitters"] == 6


def test_every_verb_has_help():
    parser = cli.build_parser()
    for verb in ["decompose", "reconstruct", "characterize", "simulate",
                 "trials", "dfunc", "basis", "immanant",
                 "verify-identities", "cost"]:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([verb, "--help"])
        assert exc.value.code == 0
