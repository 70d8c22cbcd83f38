import csv
import json
import os
import warnings

import numpy as np
import pytest

from nlcurv import functionals
from nlcurv.cli import main, parse_config
from nlcurv.errors import UsageError
from nlcurv.quadrature import build_scheme
from nlcurv.surface import EnergyParameters, make_primitive


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not standard JSON")


def read_report(out):
    with open(os.path.join(out, "report.json")) as fh:
        return json.load(fh, parse_constant=_reject_constant)


class TestParseConfig:
    def test_defaults_applied(self):
        cfg = parse_config(["eval", "--primitive", "sphere_icosub"])
        o = cfg.options
        assert o["s"] == 0.5 and o["p"] == 4.0
        assert o["order"] == "gauss3" and o["policy"] == "skip_vertex_star"

    def test_flag_beats_config_beats_default(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"s": 0.25, "p": 6.0}))
        cfg = parse_config(["eval", "--primitive", "circle",
                            "--config", str(cfgfile), "--s", "0.75"])
        assert cfg.options["s"] == 0.75   # flag wins
        assert cfg.options["p"] == 6.0    # file beats default
        assert cfg.options["order"] == "gauss3"

    def test_bad_config_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(UsageError):
            parse_config(["eval", "--primitive", "circle",
                          "--config", str(bad)])

    @pytest.mark.parametrize("argv", [
        ["eval", "--primitive", "circle", "--s", "1.5"],
        ["eval", "--primitive", "circle", "--p", "-2"],
        ["eval", "--primitive", "circle", "--workers", "0"],
        ["eval"],
        ["eval", "--primitive", "circle", "--mesh", "x.off"],
    ])
    def test_usage_errors(self, argv):
        with pytest.raises(UsageError):
            parse_config(argv)

    def test_schema_version_embedded(self):
        d = parse_config(["eval", "--primitive", "circle"]).to_dict()
        assert d["schema_version"] == 1


class TestCommands:
    def test_eval_sphere(self, tmp_path, capsys):
        rc = main(["eval", "--primitive", "sphere_icosub", "--sub", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = read_report(tmp_path)
        assert doc["schema_version"] == 1
        assert doc["results"]["bending"]["energy"] > 0
        assert doc["results"]["willmore"]["energy"] > 0
        assert "eval: B=" in capsys.readouterr().out

    def test_eval_tangent_point(self, tmp_path):
        rc = main(["eval", "--primitive", "circle", "--n", "64",
                   "--tangent-point", "--p", "2", "--q", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = read_report(tmp_path)
        assert doc["results"]["tangent_point"]["energy"] > 0

    def test_eval_tangent_point_ignores_normalization(self, tmp_path):
        # T_{p,q} carries no c_s, so the normalization must not scale it
        energies = {}
        for norm in ("raw", "limit_normalized"):
            out = tmp_path / norm
            rc = main(["eval", "--primitive", "circle", "--n", "128",
                       "--tangent-point", "--p", "2", "--q", "4",
                       "--normalization", norm, "--out", str(out)])
            assert rc == 0
            tp = read_report(out)["results"]["tangent_point"]
            assert tp["normalization"] is None
            energies[norm] = tp["energy"]
        assert energies["raw"] == energies["limit_normalized"]

    def test_eval_tangent_point_needs_q(self, tmp_path):
        rc = main(["eval", "--primitive", "circle", "--tangent-point",
                   "--out", str(tmp_path)])
        assert rc == 2

    def test_eval_validates_before_the_pass(self, tmp_path, capsys,
                                            monkeypatch):
        def fail(*args):
            raise AssertionError("kernel ran before validation")

        monkeypatch.setattr(functionals, "_kernel_sums", fail)
        rc = main(["eval", "--primitive", "sphere_icosub", "--sub", "1",
                   "--tangent-point", "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "UsageError"

    def test_eval_one_pass_matches_public_calls(self, tmp_path, monkeypatch):
        calls = []
        kernel = functionals._kernel_sums

        def counted(*args):
            calls.append(len(args[4]))
            return kernel(*args)

        monkeypatch.setattr(functionals, "_kernel_sums", counted)
        rc = main(["eval", "--primitive", "sphere_icosub", "--sub", "1",
                   "--p", "4", "--q", "6", "--tangent-point",
                   "--workers", "2", "--out", str(tmp_path)])
        assert rc == 0 and calls == [3]
        res = read_report(tmp_path)["results"]
        assert len({r["wall_time_s"] for r in res.values()}) == 1
        mesh = make_primitive("sphere_icosub", subdivisions=1)
        sc = build_scheme(mesh)
        params = EnergyParameters(s=0.5, p=4.0)
        assert res["bending"]["energy"] == functionals.bending_energy(
            mesh, sc, params, workers=2).energy
        assert res["willmore"]["energy"] == functionals.willmore_energy(
            mesh, sc, params, workers=2).energy
        assert res["tangent_point"]["energy"] == \
            functionals.tangent_point_energy(mesh, sc, 4.0, 6.0,
                                             workers=2).energy

    def test_eval_codim2_skips_willmore(self, tmp_path):
        rc = main(["eval", "--primitive", "circle", "--n", "64",
                   "--ambient", "3", "--out", str(tmp_path)])
        assert rc == 0
        assert "willmore" not in read_report(tmp_path)["results"]

    def test_eval_mesh_file(self, tmp_path, sphere1):
        from nlcurv.surface import save_off

        path = tmp_path / "m.off"
        save_off(sphere1, path)
        rc = main(["eval", "--mesh", str(path), "--out", str(tmp_path)])
        assert rc == 0

    def test_probe_ahlfors(self, tmp_path):
        rc = main(["probe", "--mode", "ahlfors", "--primitive",
                   "sphere_icosub", "--sub", "2", "--radii", "0.5,1.0",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = read_report(tmp_path)
        assert len(doc["ratios"]) == 2

    def test_probe_chordarc(self, tmp_path):
        rc = main(["probe", "--mode", "chordarc", "--primitive", "circle",
                   "--n", "128", "--pairs", "500", "--out", str(tmp_path)])
        assert rc == 0
        assert read_report(tmp_path)["gamma"] >= 1.0

    def test_probe_patch(self, tmp_path):
        rc = main(["probe", "--mode", "patch", "--primitive", "sphere_icosub",
                   "--sub", "3", "--vertex", "0", "--grid-step", "0.05",
                   "--out", str(tmp_path)])
        assert rc == 0
        rep = read_report(tmp_path)
        assert rep["radius"] > 0.1
        assert rep["refit_rounds"] >= 1 and rep["refit_residual"] >= 0.0

    def test_probe_patch_all_vertices(self, tmp_path):
        rc = main(["probe", "--mode", "patch", "--all-vertices",
                   "--primitive", "sphere_icosub", "--sub", "1",
                   "--grid-step", "0.1", "--workers", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        with open(os.path.join(tmp_path, "patch_radii.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["vertex", "radius"]
        assert len(rows) == 1 + 42

    def test_probe_patch_all_vertices_none_graphical(self, tmp_path, capsys):
        # a grid step as wide as the sphere leaves no vertex a patch; the
        # report must not carry NaN radii
        rc = main(["probe", "--mode", "patch", "--all-vertices",
                   "--primitive", "sphere_icosub", "--sub", "1",
                   "--grid-step", "0.5", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert json.loads(err)["error"]["kind"] == "NonGraphical"
        assert not os.path.exists(os.path.join(tmp_path, "report.json"))

    def test_probe_stability(self, tmp_path):
        rc = main(["probe", "--mode", "stability", "--primitive",
                   "sphere_icosub", "--sub", "2", "--out", str(tmp_path)])
        assert rc == 0
        doc = read_report(tmp_path)
        assert doc["starshaped"] is True and abs(doc["R0"] - 1.0) < 0.05

    def test_sobolev(self, tmp_path):
        rc = main(["sobolev", "--primitive", "sphere_icosub", "--sub", "1",
                   "--field", "z", "--out", str(tmp_path)])
        assert rc == 0
        doc = read_report(tmp_path)
        assert doc["sobolev"]["value"] > 0 and doc["holder"]["value"] > 0

    def test_sobolev_report_entries(self, tmp_path):
        from nlcurv import seminorms
        from nlcurv.surface import make_primitive

        rc = main(["sobolev", "--primitive", "sphere_icosub", "--sub", "1",
                   "--field", "y", "--fq", "3", "--alpha", "0.25",
                   "--beta", "0.75", "--distance", "intrinsic",
                   "--out", str(tmp_path)])
        assert rc == 0
        doc = read_report(tmp_path)
        mesh = make_primitive("sphere_icosub", subdivisions=1)
        f = seminorms.ScalarField(mesh, mesh.vertices[:, 1])
        assert doc["sobolev"] == {
            "kind": "sobolev", "alpha": 0.25, "q": 3.0,
            "distance_mode": "intrinsic",
            "value": seminorms.sobolev_seminorm(f, 0.25, 3.0, "intrinsic")}
        assert doc["lq"] == {"kind": "lq", "q": 3.0, "distance_mode": None,
                             "value": seminorms.lq_norm(f, 3.0)}
        assert doc["holder"] == {
            "kind": "holder", "beta": 0.75, "distance_mode": "intrinsic",
            "value": seminorms.holder_seminorm(f, 0.75, "intrinsic")}

    def test_sobolev_one_distance_pass(self, tmp_path, monkeypatch):
        from nlcurv import seminorms

        calls = []
        search = seminorms._search

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(seminorms, "_search", counted)
        rc = main(["sobolev", "--primitive", "sphere_icosub", "--sub", "1",
                   "--distance", "intrinsic", "--out", str(tmp_path)])
        assert rc == 0 and len(calls) == 1

    def test_sobolev_validates_before_the_distance_pass(self, tmp_path, capsys,
                                                        monkeypatch):
        from nlcurv import seminorms

        def fail(*args):
            raise AssertionError("distances built before validation")

        monkeypatch.setattr(seminorms, "_search", fail)
        rc = main(["sobolev", "--primitive", "sphere_icosub", "--sub", "1",
                   "--distance", "intrinsic", "--beta", "2",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "InvalidParams"

    def test_sobolev_support_skips_the_distance_pass(self, tmp_path,
                                                     monkeypatch):
        from nlcurv import probes, seminorms

        mesh = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                              subdivisions=1)
        center = probes.stability_probe(mesh).center
        u = np.einsum("ik,ik->i", mesh.vertices - center, mesh.vertex_normals)

        def fail(*args):
            raise AssertionError("the support field needs no distance pass")

        monkeypatch.setattr(probes, "_dist_to_surface", fail)
        rc = main(["sobolev", "--field", "support", "--primitive",
                   "perturbed_sphere", "--sub", "1", "--amp", "0.05",
                   "--seed", "3", "--out", str(tmp_path)])
        assert rc == 0
        doc = read_report(tmp_path)
        f = seminorms.ScalarField(mesh, u)
        sob, lq, hol = doc["sobolev"], doc["lq"], doc["holder"]
        assert sob["value"] == seminorms.sobolev_seminorm(
            f, sob["alpha"], sob["q"], sob["distance_mode"])
        assert lq["value"] == seminorms.lq_norm(f, lq["q"])
        assert hol["value"] == seminorms.holder_seminorm(
            f, hol["beta"], hol["distance_mode"])

    def test_flow_writes_trajectory_and_snapshots(self, tmp_path):
        rc = main(["flow", "--primitive", "perturbed_sphere", "--sub", "0",
                   "--amp", "0.05", "--seed", "3", "--p", "5",
                   "--max-iter", "3", "--step0", "1e-3", "--grad-tol", "1e-9",
                   "--snapshot-every", "1", "--out", str(tmp_path)])
        assert rc == 0
        with open(os.path.join(tmp_path, "trajectory.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "iteration"
        energies = [float(r[1]) for r in rows[1:]]
        assert all(b < a for a, b in zip(energies, energies[1:]))
        doc = read_report(tmp_path)
        assert len(doc["snapshots"]) >= 1
        assert os.path.exists(os.path.join(tmp_path, doc["snapshots"][0]))

    def test_flow_reports_subcritical_without_warning(self, tmp_path, capsys):
        # the default p = 4 sits on the critical line p = d/s of a surface;
        # a warning escaping main would reach stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["flow", "--primitive", "perturbed_sphere", "--sub", "0",
                       "--max-iter", "1", "--out", str(tmp_path)])
        assert rc == 0 and capsys.readouterr().err == ""
        assert read_report(tmp_path)["subcritical"] is False

    def test_oracle_stdout_json(self, capsys):
        rc = main(["oracle", "circle_fmc", "--R", "1", "--s", "0.5"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["value"] + 3.7081493546) < 1e-6

    def test_oracle_scaling(self, capsys):
        rc = main(["oracle", "scaling_exponent", "--d", "2", "--s", "0.5",
                   "--p", "4"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def test_usage_error_exit_code(self, capsys):
        rc = main(["eval", "--primitive", "circle", "--s", "2.0"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "UsageError"

    def test_computation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.off"
        bad.write_text("garbage\n")
        rc = main(["eval", "--mesh", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ParseError"

    def test_gauss3_same_element_triangles_rejected(self, tmp_path, capsys):
        rc = main(["eval", "--primitive", "sphere_icosub", "--sub", "1",
                   "--policy", "skip_same_element", "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "InvalidParams"

    @pytest.mark.parametrize("argv", [
        ["probe", "--mode", "ahlfors", "--radii", "a,b"],
        ["probe", "--mode", "ahlfors", "--radii", ","],
        ["eval", "--semi-axes", "1,x,2"],
    ])
    def test_bad_number_list_exit_code(self, tmp_path, capsys, argv):
        rc = main(argv + ["--primitive", "ellipsoid", "--sub", "1",
                          "--out", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "UsageError"

    @pytest.mark.parametrize("argv", [
        ["--mode", "ahlfors", "--radii", "nan,0.5"],
        ["--mode", "ahlfors", "--vertex", "9999"],
        ["--mode", "ahlfors", "--vertex", "-1"],
        ["--mode", "patch", "--vertex", "9999"],
        ["--mode", "patch", "--grid-step", "nan"],
        ["--mode", "patch", "--grad-bound", "nan"],
        ["--mode", "chordarc", "--pairs", "-5"],
        ["--mode", "chordarc", "--seed", "-1"],
    ])
    def test_bad_probe_input_exit_code(self, tmp_path, capsys, argv):
        rc = main(["probe", "--primitive", "sphere_icosub", "--sub", "1"]
                  + argv + ["--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "InvalidParams"

    @pytest.mark.parametrize("argv", [
        ["--primitive", "perturbed_sphere", "--amp", "0.1", "--seed", "-1"],
        ["--primitive", "perturbed_sphere", "--sub", "-1"],
        ["--primitive", "ellipsoid", "--sub", "-1"],
        ["--primitive", "sphere_icosub", "--radius", "inf"],
        ["--primitive", "ellipsoid", "--semi-axes", "1,inf,2"],
    ])
    def test_bad_primitive_exit_code(self, tmp_path, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["eval", *argv, "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "InvalidParams"

    @pytest.mark.parametrize("argv", [
        ["eval", "--p", "nan"],
        ["eval", "--p", "inf"],
        ["sobolev", "--fq", "nan"],
        ["flow", "--step0", "nan"],
    ])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, argv):
        rc = main(argv + ["--primitive", "sphere_icosub", "--sub", "1",
                          "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "InvalidParams"

    @pytest.mark.parametrize("argv", [
        ["probe", "--mode", "ahlfors", "--primitive", "sphere_icosub",
         "--vertex", "abc"],
        ["probe", "--primitive", "sphere_icosub"],
        ["frobnicate"],
    ])
    def test_argparse_error_exit_code(self, capsys, argv):
        rc = main(argv)
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "UsageError"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: nlcurv" in capsys.readouterr().out

    def test_workers_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLCURV_WORKERS", "4")
        rc = main(["eval", "--primitive", "sphere_icosub", "--sub", "1",
                   "--out", str(tmp_path)])
        assert rc == 0

    def test_malformed_workers_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NLCURV_WORKERS", "abc")
        rc = main(["eval", "--primitive", "sphere_icosub", "--sub", "1",
                   "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "InvalidParams"
