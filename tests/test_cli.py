import json
import math
import warnings

import pytest

from vharvest import cli, harvesting
from vharvest.atoms import SwitchingKind
from vharvest.cli import main
from vharvest.harvesting import ModelKind, compute_terms
from vharvest.specfun import QuadratureConvergenceError
from vharvest.survey import pair_from_params


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def parse_record(out):
    rec = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(" = ")
        rec[key] = val
    return rec


def test_compute_figure5_point(capsys):
    code, out, _ = run_cli(["compute", "--model", "em", "--a0-omega", "0.001",
                            "--omega-T", "12", "--d", "11", "--tba", "10",
                            "--theta", "0"], capsys)
    assert code == 0
    rec = parse_record(out)
    assert float(rec["n"]) >= 0.0
    assert float(rec["n2_scaled"]) > 0.0
    assert "err_m_scaled" in rec
    assert rec["harvestable"] == "1"


def test_compute_perpendicular_orbitals(capsys):
    code, out, _ = run_cli(["compute", "--model", "em", "--omega-T", "1",
                            "--d", "1", "--tba", "1",
                            "--theta", repr(math.pi / 2)], capsys)
    assert code == 0
    rec = parse_record(out)
    # |M| collapses to the cos(theta) rounding floor; N clamps to zero
    assert float(rec["n"]) == 0.0
    assert float(rec["abs_m"]) <= 1e-15 * max(float(rec["l_aa"]), 1e-300)


def test_compute_missing_required_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--model", "em"])
    assert exc.value.code == 2


def test_compute_invalid_value(capsys):
    code, _, err = run_cli(["compute", "--model", "em", "--d", "1",
                            "--a0-omega", "-0.5"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("a0_omega", ["1e30", "1e200", "1e-200"])
def test_compute_rejects_an_a0_out_of_range_by_name(capsys, a0_omega):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run_cli(["compute", "--d", "1", "--a0-omega", a0_omega], capsys)
    assert code == 2
    assert "a0" in err


@pytest.mark.parametrize("extra", [[], ["--a0-omega", "1e-90"]])
def test_compute_rejects_an_m_no_state_has(capsys, extra):
    # at d = 0 the default coupling gives |M| ~ 2, beyond the 1/2 that any
    # density matrix allows off its diagonal
    code, out, err = run_cli(["compute", "--d", "0", *extra], capsys)
    assert code == 2
    assert "|M| = " in err and "coupling" in err
    assert out == ""


def test_compute_accepts_small_separations_at_a_small_coupling(capsys):
    code, out, _ = run_cli(["compute", "--d", "0.001", "--coupling", "0.3",
                            "--format", "json"], capsys)
    assert code == 0
    assert 0.1 < json.loads(out)["abs_m"] < 0.5


def test_scan_rejects_the_states_compute_rejects(capsys):
    # the rows at d = 0, 0.001 and 0.002 T have |M| of 2.07, 1.88 and 1.46:
    # scan names the first and prints no rows, as compute --d 0 does
    code, out, err = run_cli(["scan", "--axis", "d_over_T:0:0.002:3"], capsys)
    assert code == 2
    assert "at d_over_T = 0: |M| = 2.07 > 1/2" in err and "coupling" in err
    assert out == ""


@pytest.mark.parametrize("flag,value,field", [
    ("--d", "inf", "position"), ("--tba", "nan", "switching_center"),
    ("--omega-T", "inf", "omega"), ("--coupling", "inf", "coupling")])
def test_compute_rejects_non_finite_inputs_by_name(capsys, flag, value, field):
    code, _, err = run_cli(["compute", "--d", "1", flag, value], capsys)
    assert code == 2
    assert field in err


@pytest.mark.parametrize("flag,value,name", [
    ("--tol-rel", "nan", "rtol"), ("--tol-rel", "-1", "rtol"),
    ("--tol-abs", "-1", "atol"), ("--tol-abs", "inf", "atol")])
def test_compute_rejects_invalid_tolerances_by_name(capsys, flag, value, name):
    code, out, err = run_cli(["compute", "--d", "1", flag, value], capsys)
    assert code == 2
    assert f"{name} must be finite and >= 0" in err
    assert out == ""


@pytest.mark.parametrize("axis,reason", [
    ("d_over_T:0:inf:3", "lo and hi must be finite"),
    ("d_over_T:nan:1:3", "lo and hi must be finite"),
    ("foo:0:1:3", "unknown axis 'foo'"),
    ("d_over_T:0:x:3", "could not convert string to float: 'x'")])
def test_scan_rejects_invalid_axis_with_its_reason(capsys, axis, reason):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--axis", axis])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert reason in err
    assert "invalid _parse_axis value" not in err


def test_compute_json_format(capsys):
    code, out, _ = run_cli(["compute", "--model", "udw", "--d", "2",
                            "--tba", "1", "--omega-T", "2",
                            "--format", "json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["model"] == "udw"
    assert rec["n"] >= 0.0


def test_compute_prints_the_negativity_of_its_terms(capsys):
    # at this point N^(2) from the unscaled terms differs in its last bits
    code, out, _ = run_cli(["compute", "--d", "2", "--tba", "2",
                            "--format", "json"], capsys)
    assert code == 0
    rec = json.loads(out)
    pair = pair_from_params({"d_over_T": 2.0, "tba_over_T": 2.0}, ModelKind.EM_DIPOLE)
    terms = compute_terms(pair, switching=SwitchingKind("auto"))
    assert (rec["n2"], rec["n"], rec["concurrence"]) == (
        terms.negativity2, terms.negativity, terms.concurrence)


def test_scan_structure_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "scan1.csv"
    out2 = tmp_path / "scan2.csv"
    base = ["scan", "--model", "udw", "--omega-T", "1.5", "--tba", "1",
            "--axis", "d_over_T:0.5:3.0:10",
            "--axis", "theta:0:1.0:10"]
    assert main(base + ["--output", str(out1)]) == 0
    assert main(base + ["--output", str(out2)]) == 0
    capsys.readouterr()
    text1 = out1.read_text()
    assert len([l for l in text1.splitlines() if not l.startswith("#")]) == 100
    assert out2.read_text() == text1  # byte-identical rerun


def test_scan_csv_header_metadata(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert main(["scan", "--model", "em", "--axis", "theta:0:3.14:5",
                 "--d", "1", "--tba", "1", "--omega-T", "1",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    assert any("model" in h for h in header)
    assert any("columns" in h for h in header)
    assert any("rtol" in h for h in header)
    # locale-independent floats with '.' decimals
    row = [l for l in lines if not l.startswith("#")][0]
    assert "," in row and ";" not in row


def test_scan_json(tmp_path, capsys):
    code, out, _ = run_cli(["scan", "--model", "em", "--axis", "theta:0:3:4",
                            "--d", "1", "--tba", "1", "--omega-T", "1",
                            "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 4


def test_figure_fig3(tmp_path, capsys):
    code, _, _ = run_cli(["figure", "fig3", "--points", "9",
                          "--output-dir", str(tmp_path)], capsys)
    assert code == 0
    csv = (tmp_path / "fig3.csv").read_text()
    assert csv.count("# block:") == 3
    assert (tmp_path / "fig3.plt").exists()
    data = [l for l in csv.splitlines() if not l.startswith("#")]
    assert len(data) == 27
    assert all(len(l.split(",")) == 3 for l in data)


def test_figure_fig4_columns(tmp_path, capsys):
    code, _, _ = run_cli(["figure", "fig4", "--nx", "4", "--ny", "4",
                          "--output-dir", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "fig4.csv").read_text().splitlines()
    assert any("omega_T,d_over_T,n,harvestable" in l for l in lines)
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 16
    assert all(l.split(",")[3] in ("0", "1") for l in data)


def test_figure_fig7_columns(tmp_path, capsys):
    code, _, _ = run_cli(["figure", "fig7", "--points", "6",
                          "--output-dir", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "fig7.csv").read_text().splitlines()
    assert any("d_over_T,n_em,n_udw,n_derivative" in l for l in lines)
    assert len([l for l in lines if not l.startswith("#")]) == 6


@pytest.mark.parametrize("name,flag,value", [("fig4", "--omega-T", "3"),
                                              ("fig3", "--format", "json")])
def test_figure_takes_no_flag_it_would_ignore(tmp_path, name, flag, value):
    # every figure fixes its own gaps and writes CSV
    with pytest.raises(SystemExit) as exc:
        main(["figure", name, flag, value, "--output-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_figure_unknown_name(capsys):
    code, _, err = run_cli(["figure", "fig99"], capsys)
    assert code == 2
    assert "unknown figure" in err


def test_selfcheck_passes(capsys):
    code, out, _ = run_cli(["selfcheck"], capsys)
    assert code == 0
    assert "rel_err" in out
    assert "all oracles passed" in out


def test_selfcheck_mutated_fails(capsys):
    code, out, _ = run_cli(["selfcheck", "--mutate",
                            "harvesting.EM_NONLOCAL_COEFF"], capsys)
    assert code == 1
    assert "FAIL" in out


def test_compute_nonconvergence_exit_code(monkeypatch, capsys):
    from vharvest import cli, harvesting
    from vharvest.specfun import QuadratureConvergenceError, QuadratureResult

    def explode(*args, **kwargs):
        raise QuadratureConvergenceError(
            "stalled", QuadratureResult(0.0, 1.0, 1))

    monkeypatch.setattr(cli, "compute_terms", explode)
    code, _, err = run_cli(["compute", "--model", "em", "--d", "1"], capsys)
    assert code == 3
    assert "stalled" in err


# an out-of-band point: |d - |t_BA|| = 19 >= 8 sigma, so 'auto' crops it
OUT_OF_BAND = ["--omega-T", "12", "--tba", "1"]


def compute_n2_error(capsys, *extra):
    code, out, _ = run_cli(["compute", *OUT_OF_BAND, "--d", "20",
                            "--format", "json", *extra], capsys)
    assert code == 0
    rec = json.loads(out)
    err = (rec["err_m_scaled"] + 0.5 * (rec["err_l_aa_scaled"] + rec["err_l_bb_scaled"])
           + rec["err_crop_tail_scaled"])
    return rec["err_crop_tail_scaled"], math.exp(rec["log_scale"]) * err


def scan_n2_error(monkeypatch, capsys, *extra):
    results, run_grid = [], cli.run_grid

    def spy(*args, **kwargs):
        results.append(run_grid(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "run_grid", spy)
    code, _, _ = run_cli(["scan", *OUT_OF_BAND, "--axis", "d_over_T:20:21:2", *extra],
                         capsys)
    assert code == 0
    return results[0].rows[0].quad_error


def library_n2_error(ds, crop_sigmas=8.0):
    # the N^(2) error, crop tail included, that compute_terms_many gives the
    # first of the out-of-band pairs at d/T in ds, computed as one batch under
    # 'auto' switching
    pairs = [pair_from_params({"omega_T": 12.0, "tba_over_T": 1.0, "d_over_T": d},
                              ModelKind.EM_DIPOLE) for d in ds]
    terms = harvesting.compute_terms_many(pairs, SwitchingKind("auto", crop_sigmas),
                                          include_cross=False)[0]
    return math.exp(terms.log_scale) * terms.negativity2_error_scaled()


def test_auto_switching_same_crop_for_compute_and_scan(monkeypatch, capsys):
    # 'auto' crops the out-of-band point in compute and in scan alike: each
    # reports the error the library gives its points, compute's pair alone
    # and scan's two points as one batch (whose M shares one panel set, so
    # its errors are not the pair's alone: ~1e-3 apart here)
    crop, compute_err = compute_n2_error(capsys)
    assert crop > 0.0
    assert compute_err == pytest.approx(library_n2_error((20.0,)), rel=1e-14, abs=0.0)
    assert scan_n2_error(monkeypatch, capsys) == pytest.approx(
        library_n2_error((20.0, 21.0)), rel=1e-14, abs=0.0)


def test_auto_switching_honours_crop_sigmas(monkeypatch, capsys):
    crop8, err8 = compute_n2_error(capsys)
    crop3, err3 = compute_n2_error(capsys, "--crop-sigmas", "3")
    assert crop3 > 1e6 * crop8
    assert err3 == pytest.approx(library_n2_error((20.0,), 3.0), rel=1e-14, abs=0.0)
    assert scan_n2_error(monkeypatch, capsys, "--crop-sigmas", "3") == pytest.approx(
        library_n2_error((20.0, 21.0), 3.0), rel=1e-14, abs=0.0)
    assert err3 > err8


def test_figure_header_records_the_switching_used(tmp_path, capsys):
    assert main(["figure", "fig5a", "--nx", "2", "--ny", "2", "--switching",
                 "gaussian", "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert "# switching: gaussian" in (tmp_path / "fig5a.csv").read_text().splitlines()


def test_figure_fig4_honours_coupling(tmp_path, capsys):
    def n_column(*extra):
        outdir = tmp_path / "_".join(("run",) + extra)
        assert main(["figure", "fig4", "--nx", "4", "--ny", "4",
                     "--output-dir", str(outdir), *extra]) == 0
        lines = (outdir / "fig4.csv").read_text().splitlines()
        return [float(l.split(",")[2]) for l in lines if not l.startswith("#")]

    plain, doubled = n_column(), n_column("--coupling", "2")
    capsys.readouterr()
    assert any(n > 0.0 for n in plain)
    assert doubled == pytest.approx([4.0 * n for n in plain], rel=1e-12, abs=0.0)


def test_json_booleans(capsys):
    code, out, _ = run_cli(["compute", "--d", "1", "--format", "json"], capsys)
    assert code == 0
    rec = json.loads(out)
    assert rec["harvestable"] is True
    assert rec["positivity_ok"] is True
    code, out, _ = run_cli(["scan", "--axis", "theta:0:3:2", "--d", "1", "--tba", "1",
                            "--format", "json"], capsys)
    assert code == 0
    assert all(isinstance(r["harvestable"], bool) for r in json.loads(out)["rows"])


@pytest.mark.parametrize("name,model", [("fig3", "udw"), ("fig7", "derivative")])
def test_figure_with_fixed_models_rejects_model(tmp_path, capsys, name, model):
    code, _, err = run_cli(["figure", name, "--points", "3", "--model", model,
                            "--output-dir", str(tmp_path)], capsys)
    assert code == 2
    assert f"figure {name} fixes its own models" in err
    assert not (tmp_path / f"{name}.csv").exists()


def test_figure_header_records_coupling_tolerances_and_crop(tmp_path, capsys):
    def header(*extra):
        outdir = tmp_path / "_".join(("run",) + extra)
        assert main(["figure", "fig4", "--nx", "2", "--ny", "2",
                     "--output-dir", str(outdir), *extra]) == 0
        return [l for l in (outdir / "fig4.csv").read_text().splitlines()
                if l.startswith("#")]

    plain, doubled = header(), header("--coupling", "2")
    capsys.readouterr()
    for line in ("# coupling: 1.0", "# tol_rel: 1e-10", "# tol_abs: 1e-16",
                 "# crop_sigmas: 8.0"):
        assert line in plain
    assert "# coupling: 2.0" in doubled
    assert plain != doubled


def test_scan_header_records_coupling_and_crop(tmp_path, capsys):
    def header(*extra):
        out = tmp_path / ("_".join(("scan",) + extra) + ".csv")
        assert main(["scan", "--model", "udw", "--axis", "d_over_T:1:2:2",
                     "--output", str(out), *extra]) == 0
        return [l for l in out.read_text().splitlines() if l.startswith("#")]

    plain = header()
    capsys.readouterr()
    assert "# coupling: 1.0" in plain and "# crop_sigmas: 8.0" in plain
    assert "# coupling: 2.0" in header("--coupling", "2")
    assert "# crop_sigmas: 3.0" in header("--crop-sigmas", "3")
    capsys.readouterr()


def test_scan_json_writes_a_twice_failed_row_as_null(monkeypatch, capsys):
    # the point at d = 2 T misses at both tolerances, a row of NaN: JSON has
    # no NaN, so its JSON row is null and parses strictly; CSV keeps nan
    real = harvesting.integrate_group

    def group(f, edges, kernel, members, *args):
        # M's group is the one with wings
        return [QuadratureConvergenceError("forced miss", getattr(q, "result", q))
                if d == 2.0 and args[-1] is not None else q
                for q, (_, d) in zip(real(f, edges, kernel, members, *args), members)]

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    monkeypatch.setattr(harvesting, "integrate_group", group)
    scan = ["scan", "--axis", "d_over_T:1:3:3"]
    code, out, _ = run_cli([*scan, "--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out, parse_constant=reject)["rows"]
    assert [r["converged"] for r in rows] == [True, False, True]
    assert all(rows[1][f] is None and isinstance(rows[0][f], float)
               for f in ("l_aa", "l_bb", "abs_m", "n2", "n"))
    code, out, _ = run_cli(scan, capsys)
    assert code == 0 and out.splitlines()[-2] == "2,nan,nan,nan,nan,nan,0,0"


@pytest.mark.parametrize("command", ["scan", "figure"])
def test_an_unwritable_output_path_is_invalid_configuration(tmp_path, capsys, command):
    # exit 2 with an error line, as for any invalid configuration; exit 1
    # means a failed self-check
    taken = tmp_path / "a_file"
    taken.write_text("")
    args = (["scan", "--axis", "d_over_T:0.5:1:2", "--output", str(tmp_path / "missing" / "x.csv")]
            if command == "scan" else ["figure", "fig7", "--points", "2", "--output-dir", str(taken)])
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_scan_rejects_an_unwritable_output_path_before_it_runs(tmp_path, capsys, monkeypatch):
    # the path is checked first, so the grid never runs
    def no_run(*args, **kwargs):
        raise AssertionError("run_grid ran before the output path was checked")

    monkeypatch.setattr(cli, "run_grid", no_run)
    code, out, err = run_cli(["scan", "--axis", "d_over_T:0.5:1:2",
                              "--output", str(tmp_path / "missing" / "x.csv")], capsys)
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("command", ["compute", "scan"])
@pytest.mark.parametrize("flags, message", [
    (["--d", "1e155"], "a separation d of 1e+155 oscillates"),
    (["--omega-T", "1e160", "--a0-omega", "1e157", "--d", "1"],
     "= exp(-inf): outside double range")])
def test_a_separation_or_gap_past_the_squares_range_is_invalid_configuration(
        capsys, command, flags, message):
    # d^2 and (Omega T)^2 overflow past ~1.34e154: exit 2 with the error of
    # d = 1e150 and Omega T = 1e150, and no warning on the way
    args = ["compute", "--model", "udw", *flags] if command == "compute" else [
        "scan", "--model", "udw", *flags, "--axis", "tba_over_T:0:1:2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("args", [["compute", "--d", "1"], ["scan", "--axis", "d_over_T:1:2:2"]])
def test_a_coupling_whose_square_overflows_is_invalid_configuration(capsys, args):
    # exit 2 with the pair's error, not a traceback and the self-check's exit 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli([*args, "--coupling", "1e200"], capsys)
    assert code == 2 and out == ""
    assert err == ("error: coupling 1e+200 is too large: its square, the terms' factor e^2, "
                   "overflows\n")


def test_a_coupling_whose_scaled_terms_square_past_double_range_is_computed(capsys):
    # at Omega T = 30 and coupling 1e90 the terms are ~1e151 to 1e170 in
    # units of exp(log_scale) = e^-450, so their squares overflow: compute
    # and scan print the finite N^(2) = |M| - L (L_AA = L_BB), within its
    # error, positivity holds, and no warning is raised on the way
    flags = ["--omega-T", "30", "--coupling", "1e90"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, _ = run_cli(["compute", *flags, "--d", "1"], capsys)
        assert code == 0
        rec = {key: float(val) for key, val in parse_record(out).items() if key != "model"}
        code, out, _ = run_cli(["scan", *flags, "--axis", "d_over_T:1:2:2"], capsys)
    assert code == 0
    err = math.exp(rec["log_scale"]) * (rec["err_m_scaled"] + rec["err_l_aa_scaled"])
    assert math.isfinite(rec["n2"]) and abs(rec["n2"] - (rec["abs_m"] - rec["l_aa"])) <= err
    assert rec["n2"] == pytest.approx(5.747e-26, rel=1e-3, abs=0.0)
    assert rec["positivity_ok"] == 1.0 and rec["harvestable"] == 1.0
    first = out.splitlines()[-2].split(",")  # d = T
    assert first[0] == "1" and abs(float(first[4]) - rec["n2"]) <= err
    assert first[6:] == ["1", "1"]


def test_figure_fig5b_is_the_cropped_window_outside_light_contact(tmp_path, capsys):
    # cropped whatever --switching says, t_BA/T over 0..8 and d/T over 4..14
    code, _, _ = run_cli(["figure", "fig5b", "--nx", "3", "--ny", "2", "--switching", "gaussian",
                          "--output-dir", str(tmp_path)], capsys)
    assert code == 0
    lines = (tmp_path / "fig5b.csv").read_text().splitlines()
    assert "# switching: cropped_gaussian" in lines
    assert lines[lines.index("# switching: cropped_gaussian") - 1] == "# omega_T: 12"
    rows = [[float(x) for x in line.split(",")] for line in lines if not line.startswith("#")]
    assert [row[:2] for row in rows] == [[t, d] for t in (0.0, 8.0) for d in (4.0, 9.0, 14.0)]


def test_strict_scan_exits_3_on_a_twice_failed_row(monkeypatch, capsys):
    # the point at d = 2 T misses at both tolerances (forced, as in the JSON
    # test above): --strict exits 3 and names the count, without a table
    real = harvesting.integrate_group

    def group(f, edges, kernel, members, *args):
        # M's group is the one with wings
        return [QuadratureConvergenceError("forced miss", getattr(q, "result", q))
                if d == 2.0 and args[-1] is not None else q
                for q, (_, d) in zip(real(f, edges, kernel, members, *args), members)]

    monkeypatch.setattr(harvesting, "integrate_group", group)
    code, out, err = run_cli(["scan", "--strict", "--axis", "d_over_T:1:3:3"], capsys)
    assert code == 3 and out == ""
    assert err == "error: 1 rows failed to converge\n"


def test_scan_rejects_a_malformed_axis(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--axis", "d_over_T:0:1"])
    assert exc.value.code == 2
    assert "axis must be name:lo:hi:count[:log|linear]" in capsys.readouterr().err
