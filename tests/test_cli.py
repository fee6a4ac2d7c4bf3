"""End-to-end checks of the command-line interface."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hyperband
from hyperband import cli
from hyperband.covers_quivers import UnbranchedCover, cover_to_json
from hyperband.tight_binding import TightBindingModel, write_model


@pytest.fixture
def single_site_model(tmp_path):
    # one state, zero on-site, both hops = 1: the standard graph Laplacian
    # minus degree, spectrum 2 cos(ka) + 2 cos(kb) in [-4, 4]
    model = TightBindingModel(1, [[0.0]], [[[1.0]], [[1.0]]])
    path = tmp_path / "single.json"
    write_model(model, path)
    return path


@pytest.fixture
def two_state_model(tmp_path):
    rng = np.random.default_rng(7)
    onsite = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    onsite = onsite + onsite.conj().T
    hops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
    model = TightBindingModel(1, onsite, hops)
    path = tmp_path / "pair.json"
    write_model(model, path)
    return path


@pytest.fixture
def swap_cover(tmp_path):
    cover = UnbranchedCover(sheets=2, perms=((2, 1), (1, 2)))
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(cover_to_json(cover)), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# bands
# ---------------------------------------------------------------------------


def test_bands_csv_shape_and_extremes(single_site_model, tmp_path):
    out = tmp_path / "bands.csv"
    code = cli.main(
        ["bands", "--model", str(single_site_model), "--grid", "16,16", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert comments and "model_hash" in comments[1]
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "i0,i1,band,re,im"
    rows = data[1:]
    assert len(rows) == 16 * 16
    energies = [float(r.split(",")[-2]) for r in rows]
    assert abs(max(energies) - 4.0) < 1e-12
    assert abs(min(energies) + 4.0) < 1e-12


def csv_rows(text):
    return [l for l in text.strip().splitlines() if l and not l.startswith("#")][1:]


def test_bands_to_stdout(single_site_model, capsys):
    code = cli.main(["bands", "--model", str(single_site_model), "--grid", "4,4"])
    assert code == 0
    captured = capsys.readouterr()
    assert len(csv_rows(captured.out)) == 16


def test_bands_deterministic(two_state_model, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert (
            cli.main(["bands", "--model", str(two_state_model), "--grid", "6,6", "--out", str(out)])
            == 0
        )
    assert out1.read_bytes() == out2.read_bytes()


def test_bands_region_grid(two_state_model, tmp_path):
    out = tmp_path / "bands.csv"
    code = cli.main(
        [
            "bands",
            "--model",
            str(two_state_model),
            "--grid",
            "4,4",
            "--region=-0.1:0.1:3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = csv_rows(out.read_text())
    # 3 moduli shells per axis: (4*3) * (4*3) points, 2 bands each
    assert len(rows) == 144 * 2


def test_bands_missing_model_is_usage_error(capsys):
    code = cli.main(["bands"])
    assert code == 2
    assert "model" in capsys.readouterr().err


def test_bands_nonexistent_file(tmp_path, capsys):
    code = cli.main(["bands", "--model", str(tmp_path / "nope.json")])
    assert code == 2


def test_bands_bad_grid(single_site_model, capsys):
    code = cli.main(["bands", "--model", str(single_site_model), "--grid", "a,b"])
    assert code == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_bands_overflowing_region_is_refused(tmp_path, capsys):
    # |chi| = exp(709) times a hop of 3 overflows to inf: refused before the solve
    path = tmp_path / "strong.json"
    write_model(TightBindingModel(1, [[0.0]], [[[3.0]], [[3.0]]]), path)
    code = cli.main(["bands", "--model", str(path), "--grid", "4,4", "--region=-709:709:2"])
    assert code == 2
    errors = [l for l in capsys.readouterr().err.splitlines() if l.startswith("error:")]
    assert len(errors) == 1 and "non-finite" in errors[0]


# ---------------------------------------------------------------------------
# bloch-variety
# ---------------------------------------------------------------------------


def test_bloch_variety_json(two_state_model, tmp_path):
    out = tmp_path / "var.json"
    code = cli.main(["bloch-variety", "--model", str(two_state_model), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["hyperband_bloch_variety"] == 1
    assert doc["genus"] == 1
    assert doc["dim"] == 2
    assert doc["holdout_residual"] <= 1e-8


def test_bloch_variety_impossible_tolerance(two_state_model, capsys):
    code = cli.main(
        ["bloch-variety", "--model", str(two_state_model), "--tol", "1e-30"]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# euclidean
# ---------------------------------------------------------------------------


def test_euclidean_square_lattice_degeneracy(tmp_path):
    out = tmp_path / "e.json"
    code = cli.main(
        ["euclidean", "--tau", "0,1", "--k", "0.5,0.5", "--bands", "8", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["hyperband_euclidean"] == 1
    groups = doc["band_groups"]
    assert abs(groups[0][0] - 0.5) < 1e-12 and groups[0][1] == 4
    lam = doc["modular_lambda"]
    assert abs(complex(lam[0], lam[1]) - 0.5) < 1e-12
    assert doc["formula_discrepancy"] < 1e-12


def test_euclidean_lower_half_plane_rejected(capsys):
    code = cli.main(["euclidean", "--tau", "0,-1"])
    assert code == 2


def test_euclidean_bad_tau_string(capsys):
    code = cli.main(["euclidean", "--tau", "one"])
    assert code == 2
    assert "tau" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# higgs-toy
# ---------------------------------------------------------------------------


def test_higgs_toy_invariant_value(tmp_path):
    out = tmp_path / "h.json"
    code = cli.main(
        ["higgs-toy", "--u", "2", "--m", "3", "--B", "1", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    c = complex(*doc["hitchin"])
    assert abs(c - 2.0) < 1e-10
    closed = complex(*doc["hitchin_closed_form"])
    assert abs(c - closed) < 1e-10
    assert set(doc["connection_residues"]) == {"0", "1", "m", "infinity"}
    mono_inf = [complex(*v) for v in doc["connection_monodromy"]["infinity"]]
    assert all(abs(v + 1.0) < 1e-12 for v in mono_inf)


def test_higgs_toy_colliding_puncture_rejected(capsys):
    code = cli.main(["higgs-toy", "--u", "2", "--m", "1"])
    assert code == 2
    assert "m must stay away" in capsys.readouterr().err


def test_higgs_toy_requires_u_and_m(capsys):
    code = cli.main(["higgs-toy", "--u", "2"])
    assert code == 2
    assert "--m" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# spectral-curve
# ---------------------------------------------------------------------------


def test_spectral_curve_from_toy_point(tmp_path):
    out = tmp_path / "c.json"
    code = cli.main(["spectral-curve", "--u", "2", "--m", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["degenerate"] is False
    assert doc["smooth"] is True
    assert doc["genus"] == 1
    finite = sorted(
        complex(*b["point"]).real for b in doc["branch_points"] if b["point"] != "infinity"
    )
    assert np.allclose(finite, [0.0, 1.0, 3.0], atol=1e-7)


def test_spectral_curve_degenerate_point_still_succeeds(tmp_path):
    # u at a puncture: the curve degenerates but the report is still data
    out = tmp_path / "c.json"
    code = cli.main(["spectral-curve", "--u", "1", "--m", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["degenerate"] is True


def test_spectral_curve_input_exclusivity(tmp_path, capsys):
    code = cli.main(["spectral-curve"])
    assert code == 2
    assert "exactly one" in capsys.readouterr().err
    code = cli.main(
        ["spectral-curve", "--u", "2", "--m", "3", "--higgs", str(tmp_path / "x.json")]
    )
    assert code == 2


def test_spectral_curve_from_higgs_file(tmp_path):
    from hyperband.higgs_toy import ToyModelPoint
    from hyperband.spectral_curve import higgs_to_json, toy_to_twisted

    phi = toy_to_twisted(ToyModelPoint(m=3.0, u=2.0, B=1.0))
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(higgs_to_json(phi)), encoding="utf-8")
    out = tmp_path / "c.json"
    assert cli.main(["spectral-curve", "--higgs", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["genus"] == 1


def test_spectral_curve_rejects_non_higgs_json(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"something": "else"}', encoding="utf-8")
    assert cli.main(["spectral-curve", "--higgs", str(path)]) == 2


# ---------------------------------------------------------------------------
# cover-check
# ---------------------------------------------------------------------------


def test_cover_check_pass_line(two_state_model, swap_cover, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(
        [
            "cover-check",
            "--model",
            str(two_state_model),
            "--cover",
            str(swap_cover),
            "--trials",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out
    assert line.startswith("PASS: 5 characters, 4 states")
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert doc["genus_cover"] == 1
    assert doc["max_spectral_distance"] <= 1e-9 * doc["spectral_radius"]


def test_cover_check_impossible_tolerance_fails(two_state_model, swap_cover, capsys):
    code = cli.main(
        [
            "cover-check",
            "--model",
            str(two_state_model),
            "--cover",
            str(swap_cover),
            "--trials",
            "5",
            "--tol",
            "1e-30",
        ]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("FAIL")
    assert "numerical failure" in captured.err


def test_cover_check_unsupported_cover(two_state_model, tmp_path, capsys):
    cover = UnbranchedCover(sheets=3, perms=((3, 1, 2), (2, 3, 1)))
    path = tmp_path / "bad_cover.json"
    path.write_text(json.dumps(cover_to_json(cover)), encoding="utf-8")
    code = cli.main(
        ["cover-check", "--model", str(two_state_model), "--cover", str(path)]
    )
    # a structurally unsupported cover is a failed check, not a usage error
    assert code == 3
    assert "directions" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_cover_check_rejects_fewer_than_one_trial(two_state_model, swap_cover, trials, capsys):
    code = cli.main(
        [
            "cover-check",
            "--model",
            str(two_state_model),
            "--cover",
            str(swap_cover),
            "--trials",
            trials,
        ]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "--trials" in captured.err


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def test_config_supplies_options(single_site_model, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"model": str(single_site_model), "grid": "4,4"}), encoding="utf-8"
    )
    out = tmp_path / "bands.csv"
    code = cli.main(["bands", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert len(csv_rows(out.read_text())) == 16


def test_flags_override_config(single_site_model, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"model": str(single_site_model), "grid": "4,4"}), encoding="utf-8"
    )
    out = tmp_path / "bands.csv"
    code = cli.main(
        ["bands", "--config", str(cfg), "--grid", "2,2", "--out", str(out)]
    )
    assert code == 0
    assert len(csv_rows(out.read_text())) == 4


def test_config_native_json_types(single_site_model, tmp_path):
    # config may use JSON-native values, not just strings
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"model": str(single_site_model), "grid": [4, 4]}), encoding="utf-8"
    )
    out = tmp_path / "bands.csv"
    assert cli.main(["bands", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(csv_rows(out.read_text())) == 16


def test_config_must_be_object(single_site_model, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2, 3]", encoding="utf-8")
    code = cli.main(["bands", "--config", str(cfg), "--model", str(single_site_model)])
    assert code == 2


def test_config_rejects_unknown_keys(single_site_model, tmp_path, capsys):
    # a typo must not fall back to the default 8x8 grid
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"model": str(single_site_model), "gird": "64,64"}), encoding="utf-8"
    )
    out = tmp_path / "bands.csv"
    code = cli.main(["bands", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'gird'" in err
    assert all(name in err for name in ("grid", "model", "out", "region"))


def test_no_subcommand_prints_help(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# installed entry points
# ---------------------------------------------------------------------------


def test_module_entry_point(single_site_model):
    # the child imports the same hyperband as this process, installed or not
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(hyperband.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hyperband", "euclidean", "--tau", "0,1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["hyperband_euclidean"] == 1
