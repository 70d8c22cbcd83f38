import csv
import json
import os
import warnings

import numpy as np
import pytest

from conftest import make_bowtie, save_off_with_stray_vertex
from nlcurv import cli, functionals
from nlcurv.cli import (_MODE_READS, _ORACLE_READS, _PRIMITIVE_READS,
                        _build_parser, main, parse_config)
from nlcurv.errors import UsageError
from nlcurv.quadrature import build_scheme
from nlcurv.surface import EnergyParameters, make_primitive, save_off


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

    @pytest.mark.parametrize("workers", [2.5, True, 0, "two"])
    def test_config_worker_count_validated(self, tmp_path, capsys, workers):
        # a config value is not truncated: 2.5 and true exit 2 unrun
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"workers": workers}))
        argv = ["eval", "--primitive", "sphere_icosub", "--sub", "1",
                "--config", str(cfgfile), "--out", str(tmp_path)]
        with pytest.raises(UsageError):
            parse_config(argv)
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "UsageError"
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("argv, content", [
        (["flow"], {"smoothing": "false"}),
        (["flow"], {"smoothing": 0}),
        (["flow"], {"smoothing": None}),
        (["probe", "--mode", "patch"], {"all_vertices": "no"}),
        (["eval"], {"tangent_point": "yes", "q": 6}),
    ])
    def test_config_switch_takes_only_a_bool(self, tmp_path, capsys, argv,
                                             content):
        # "false" and "no" are truthy: taken as given, they would turn
        # the switch on
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(content))
        argv = [*argv, "--primitive", "sphere_icosub", "--sub", "1",
                "--config", str(cfgfile), "--out", str(tmp_path)]
        switch = next(iter(content))
        with pytest.raises(UsageError,
                           match=f"config {switch}=.*a switch takes true"):
            parse_config(argv)
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "UsageError"
        assert not (tmp_path / "report.json").exists()

    def test_schema_version_embedded(self):
        d = parse_config(["eval", "--primitive", "circle"]).to_dict()
        assert d["schema_version"] == 1


def _assert_usage_error(argv, tmp_path, capsys):
    """argv exits 2 with a JSON UsageError and writes no report."""
    assert main([*argv, "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == \
        "UsageError"
    assert not (tmp_path / "report.json").exists()


# an off-default value of each mesh and probe flag
MESH_VALUES = {"radius": "2", "sub": "1", "n": "64", "amp": "0.1",
               "semi_axes": "1,2,3", "major": "3", "minor": "0.25",
               "neck": "0.3", "ambient": "3"}
PROBE_VALUES = {"vertex": ["1"], "radii": ["0.5"], "pairs": ["100"],
                "grad_bound": ["0.25"], "grid_step": ["0.05"],
                "alpha": ["0.25"], "hq": ["3"], "all_vertices": []}
MODE_ARGV = {"ahlfors": ["--mode", "ahlfors"],
             "chordarc": ["--mode", "chordarc"],
             "patch": ["--mode", "patch"],
             "patch_all": ["--mode", "patch", "--all-vertices"],
             "stability": ["--mode", "stability"]}


def _flag(name):
    return "--" + name.replace("_", "-")


class TestOptionsApply:
    """Each command takes only the options it reads (exit 2 otherwise)."""

    @pytest.mark.parametrize("command, argv", [
        (command, [flag, value])
        for command in ("probe", "sobolev")
        for flag, value in [("--s", "0.7"), ("--p", "5"), ("--q", "6"),
                            ("--normalization", "limit_normalized"),
                            ("--order", "gauss7"),
                            ("--policy", "skip_same_element")]
    ] + [("flow", ["--q", "6"])])
    def test_removed_option(self, tmp_path, capsys, command, argv):
        mode = ["--mode", "stability"] if command == "probe" else []
        _assert_usage_error([command, *mode, "--primitive", "sphere_icosub",
                             "--sub", "1", *argv], tmp_path, capsys)

    @pytest.mark.parametrize("source, flag", [
        (kind, flag) for kind in sorted(_PRIMITIVE_READS)
        for flag in MESH_VALUES if flag not in _PRIMITIVE_READS[kind]
    ] + [("mesh", flag) for flag in MESH_VALUES])
    def test_unread_mesh_flag(self, tmp_path, capsys, source, flag):
        mesh = (["--mesh", str(tmp_path / "m.off")] if source == "mesh"
                else ["--primitive", source])
        _assert_usage_error(["eval", *mesh, _flag(flag), MESH_VALUES[flag]],
                            tmp_path, capsys)

    @pytest.mark.parametrize("kind", sorted(_PRIMITIVE_READS))
    def test_read_mesh_flags_accepted(self, kind):
        argv = [a for flag in _PRIMITIVE_READS[kind] if flag in MESH_VALUES
                for a in (_flag(flag), MESH_VALUES[flag])]
        o = parse_config(["eval", "--primitive", kind, *argv]).options
        assert o["primitive"] == kind

    @pytest.mark.parametrize("mode, flag", [
        (mode, flag) for mode in sorted(MODE_ARGV) for flag in PROBE_VALUES
        if flag not in _MODE_READS[mode]
        and (mode, flag) != ("patch", "all_vertices")])  # that is patch_all
    def test_unread_probe_flag(self, tmp_path, capsys, mode, flag):
        _assert_usage_error(["probe", *MODE_ARGV[mode], "--primitive",
                             "sphere_icosub", "--sub", "1", _flag(flag),
                             *PROBE_VALUES[flag]], tmp_path, capsys)

    @pytest.mark.parametrize("mode", sorted(MODE_ARGV))
    def test_read_probe_flags_accepted(self, mode):
        argv = [a for flag in _MODE_READS[mode] if flag != "all_vertices"
                for a in (_flag(flag), *PROBE_VALUES[flag])]
        parse_config(["probe", *MODE_ARGV[mode], "--primitive",
                      "sphere_icosub", "--workers", "2", "--seed", "3",
                      *argv])

    @pytest.mark.parametrize("argv", [
        ["oracle", "circle_fmc", "--d", "3"],
        ["oracle", "sphere_fmc", "--p", "5"],
        ["oracle", "tangent_radius_circle", "--s", "0.25"],
        ["oracle", "scaling_exponent", "--R", "2"],
    ])
    def test_unread_oracle_input(self, capsys, argv):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == \
            "UsageError"

    def test_sobolev_field_needs_its_axis(self, tmp_path, capsys):
        _assert_usage_error(["sobolev", "--primitive", "circle", "--field",
                             "z"], tmp_path, capsys)

    def test_q_needs_tangent_point(self, tmp_path, capsys):
        _assert_usage_error(["eval", "--primitive", "sphere_icosub", "--sub",
                             "1", "--q", "6"], tmp_path, capsys)

    def test_config_sets_any_option(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"sub": 1, "tangent_point": True,
                                       "q": 6, "out": "elsewhere"}))
        o = parse_config(["eval", "--primitive", "sphere_icosub",
                          "--config", str(cfgfile), "--out", "here"]).options
        assert (o["sub"], o["tangent_point"], o["q"]) == (1, True, 6)
        assert o["out"] == "here"   # flag wins
        assert "config" not in o

    def test_config_supplies_probe_mode(self, tmp_path):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps({"mode": "patch", "vertex": 2,
                                       "primitive": "sphere_icosub"}))
        o = parse_config(["probe", "--config", str(cfgfile)]).options
        assert (o["mode"], o["vertex"]) == ("patch", 2)

    @pytest.mark.parametrize("content", [
        {"bogus_key": 5}, {"config": "other.json"}, {"help": True},
        {"s": 0.25, "hq": 3}, {"field": "z"}, {"order": "gauss5"},
        {"primitive": "cube"}, {"sub": 1, "ambient": 3}, {"sub": 1.5},
        {"s": [0.25]}, {"semi_axes": [1, 1, 2]}, {"workers": True},
        [1, 2], 3, "sub",
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, content):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(content))
        _assert_usage_error(["eval", "--primitive", "sphere_icosub",
                             "--config", str(cfgfile)], tmp_path, capsys)


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

    @pytest.mark.parametrize("mesh", [
        ["--primitive", "circle"], ["--primitive", "circle", "--n", "8"],
        ["--primitive", "sphere_icosub", "--sub", "0"]])
    def test_flow_stops_at_a_constrained_critical_point(self, tmp_path,
                                                         mesh):
        # the gradient of a regular polygon or polyhedron is all along the
        # area gradient, which the projection undoes: no step can descend
        rc = main(["flow", *mesh, "--p", "5", "--out", str(tmp_path)])
        assert rc == 0
        assert read_report(tmp_path)["iterations"] == 1
        with open(os.path.join(tmp_path, "trajectory.csv")) as fh:
            assert len(list(csv.reader(fh))) == 2  # header and iteration 0

    @pytest.mark.parametrize("argv, code, kind", [
        (["--max-iter", "0"], 1, "InvalidParams"),
        (["--max-iter", "-1"], 1, "InvalidParams"),
        (["--snapshot-every", "-2"], 2, "UsageError"),
    ])
    def test_flow_bad_iteration_options(self, tmp_path, capsys, argv, code,
                                        kind):
        # a run of no iterations would write "grad_norm": Infinity, which
        # is not JSON, and a negative snapshot period would write nothing
        rc = main(["flow", "--primitive", "perturbed_sphere", "--sub", "0",
                   *argv, "--out", str(tmp_path)])
        assert rc == code
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == kind
        assert not os.path.exists(os.path.join(tmp_path, "report.json"))

    @pytest.mark.parametrize("step0", ["1e100", "1e30"])
    def test_flow_backtracks_from_steps_that_break_the_mesh(self, tmp_path,
                                                            step0):
        # trials out of the coordinate range, with degenerate elements or
        # with coincident samples are rejected, not mesh input errors
        rc = main(["flow", "--primitive", "sphere_icosub", "--sub", "1",
                   "--max-iter", "1", "--step0", step0, "--out",
                   str(tmp_path)])
        assert rc == 0
        with open(os.path.join(tmp_path, "trajectory.csv")) as fh:
            energies = [float(r[1]) for r in list(csv.reader(fh))[1:]]
        assert len(energies) == 2 and energies[1] < energies[0]

    def test_mesh_preconditions_end_typed(self, tmp_path, capfd):
        # a vertex on no element fails in load_mesh, an undefined vertex
        # normal where the command reads it; no command ends in a traceback
        stray, bowtie = tmp_path / "stray.off", tmp_path / "bowtie.off"
        save_off_with_stray_vertex(make_primitive(
            "perturbed_sphere", amplitude=0.05, seed=3, subdivisions=1), stray)
        save_off(make_bowtie(), bowtie)
        commands = [["eval"], ["eval", "--order", "centroid"],
                    ["eval", "--tangent-point", "--q", "6"],
                    ["probe", "--mode", "ahlfors", "--radii", "0.5"],
                    ["probe", "--mode", "chordarc", "--pairs", "100"],
                    ["probe", "--mode", "patch", "--vertex", "2"],
                    ["probe", "--mode", "patch", "--all-vertices"],
                    ["probe", "--mode", "stability"],
                    ["sobolev"], ["sobolev", "--distance", "intrinsic"],
                    ["sobolev", "--field", "support"],
                    ["flow", "--max-iter", "1"],
                    ["flow", "--max-iter", "1", "--smoothing", "--order",
                     "centroid"]]
        for mesh in (stray, bowtie):
            for argv in commands:
                rc = main([*argv, "--mesh", str(mesh), "--out",
                           str(tmp_path / "out")])
                err = capfd.readouterr().err
                if rc == 0 and mesh == bowtie:
                    assert err == "", argv
                    continue
                assert rc == 1, argv
                kind = json.loads(err)["error"]["kind"]
                assert (kind == "NonManifoldError" if mesh == stray
                        else kind in ("DegenerateGeometry", "StallError")), \
                    (argv, kind)

    def test_flow_reports_subcritical_without_warning(self, tmp_path, capsys):
        # the default p = 4 sits on the critical line p = d/s of a surface;
        # a warning escaping main would reach stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["flow", "--primitive", "perturbed_sphere", "--sub", "0",
                       "--max-iter", "1", "--out", str(tmp_path)])
        assert rc == 0 and capsys.readouterr().err == ""
        assert read_report(tmp_path)["subcritical"] is False

    def test_flow_smoothing_a_space_curve_fails_unrun(self, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setattr("nlcurv.flow._energies", lambda *args, **kw:
                            pytest.fail("flow ran an energy pass"))
        rc = main(["flow", "--primitive", "circle", "--ambient", "3",
                   "--smoothing", "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "UnsupportedMode"
        assert "tangential smoothing" in err["message"]

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

    @pytest.mark.parametrize("argv", [["--s", "5", "--p", "4"], ["--d", "-3"],
                                      ["--d", "0"], ["--p", "inf"]])
    def test_oracle_scaling_bad_inputs(self, capsys, argv):
        assert main(["oracle", "scaling_exponent", *argv]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "InvalidParams"

    def test_usage_error_exit_code(self, capsys):
        rc = main(["eval", "--primitive", "circle", "--s", "2.0"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "UsageError"

    @pytest.mark.parametrize("text", [
        "v 0 0 x\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 a\n",
    ], ids=["vertex", "face"])
    def test_malformed_obj_exit_code(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.obj"
        bad.write_text(text)
        rc = main(["eval", "--mesh", str(bad), "--out", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ParseError"
        assert not (tmp_path / "report.json").exists()

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
        ["--primitive", "circle", "--ambient", "5"],
        ["--primitive", "circle", "--ambient", "0"],
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

    @pytest.mark.parametrize("argv", [
        ["sobolev", "--p", "sphere_icosub", "--sub", "1"],
        ["eval", "--prim", "sphere_icosub", "--sub", "1", "--tang", "--q",
         "6"],
        ["probe", "--mode", "stability", "--prim", "sphere_icosub", "--sub",
         "1", "--work", "2"],
        ["flow", "--primitive", "sphere_icosub", "--sub", "1", "--max", "1"],
        ["probe", "--mo", "patch", "--primitive", "sphere_icosub"],
    ], ids=lambda argv: " ".join(argv[:3]))
    def test_option_prefix_rejected(self, tmp_path, capsys, argv):
        # only whole option names: --p is not --primitive on sobolev
        _assert_usage_error(argv, tmp_path, capsys)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: nlcurv" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["eval", "--primitive", "sphere_icosub", "--sub", "1",
         "--tangent-point", "--q", "6"],
        ["probe", "--mode", "patch", "--primitive", "perturbed_sphere",
         "--amp", "0.05", "--sub", "1", "--all-vertices"],
        ["sobolev", "--distance", "intrinsic", "--primitive", "circle"],
        ["flow", "--primitive", "perturbed_sphere", "--sub", "1", "--p", "5",
         "--smoothing", "--max-iter", "1", "--workers", "2"],
        ["oracle", "sphere_fmc", "--R", "2"],
        ["flow", "--primitive", "perturbed_sphere", "--config", "CONFIG"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_one_command_parser_matches_the_full_one(self, tmp_path,
                                                     monkeypatch, argv):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"sub": 1, "p": 5, "smoothing": True,
                                      "policy": "skip_same_element"}))
        argv = [str(config) if a == "CONFIG" else a for a in argv]
        built = []

        def spied(command=None):
            top, commands = _build_parser(command)
            built.append(sorted(commands))
            return top, commands

        monkeypatch.setattr(cli, "_build_parser", spied)
        one = parse_config(argv)
        assert built == [[argv[0]]]
        monkeypatch.setattr(cli, "_build_parser", lambda command=None:
                            _build_parser())
        assert one == parse_config(argv)

    def test_help_and_unknown_command_list_every_command(self, capsys):
        commands = ["eval", "probe", "sobolev", "flow", "oracle"]
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "{" + ",".join(commands) + "}" in out
        assert all(f"\n    {c} " in out for c in commands)
        assert main(["frobnicate", "--sub", "1"]) == 2
        err = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "choose from " + ", ".join(map(repr, commands)) in err

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


# every float option of every command, and the two comma-separated number
# lists, each with the arguments of a primitive, probe mode or oracle
# quantity that reads it
_SPHERE1 = ["--primitive", "sphere_icosub", "--sub", "1"]
_MESH_NUMBERS = {"radius": _SPHERE1,
                 "amp": ["--primitive", "perturbed_sphere", "--sub", "1"],
                 "major": ["--primitive", "torus"],
                 "minor": ["--primitive", "torus"],
                 "neck": ["--primitive", "dumbbell"],
                 "semi_axes": ["--primitive", "ellipsoid", "--sub", "1"]}
_MESH_COMMANDS = {"eval": [], "probe": ["--mode", "chordarc", "--pairs", "50"],
                  "sobolev": [], "flow": ["--max-iter", "1"]}
NUMBER_OPTIONS = [
    (command, name, [command, *mesh, *reads])
    for command, reads in _MESH_COMMANDS.items()
    for name, mesh in _MESH_NUMBERS.items()
] + [
    (command, name, [command, *_SPHERE1, *reads])
    for command, name, reads in [
        ("eval", "s", []), ("eval", "p", []),
        ("eval", "q", ["--tangent-point"]),
        ("probe", "grad_bound", ["--mode", "patch"]),
        ("probe", "grid_step", ["--mode", "patch"]),
        ("probe", "radii", ["--mode", "ahlfors"]),
        ("probe", "alpha", ["--mode", "stability"]),
        ("probe", "hq", ["--mode", "stability"]),
        ("sobolev", "alpha", []), ("sobolev", "fq", []),
        ("sobolev", "beta", []),
        ("flow", "s", ["--max-iter", "1"]), ("flow", "p", ["--max-iter", "1"]),
        ("flow", "step0", ["--max-iter", "1"]),
        ("flow", "grad_tol", ["--max-iter", "1"])]
] + [("oracle", name, ["oracle", quantity])
     for quantity, names in _ORACLE_READS.items() for name in names
     if name != "d"]
EXTREMES = ["nan", "inf", "-inf", "1e300", "1e-300"]


def test_number_sweep_covers_every_float_option():
    _, commands = _build_parser()
    floats = {(command, a.dest) for command, parser in commands.items()
              for a in parser._actions if a.type is float}
    assert floats <= {(command, name) for command, name, _ in NUMBER_OPTIONS}


@pytest.mark.parametrize("argv, name, value", [
    (argv, name, value) for _, name, argv in NUMBER_OPTIONS
    for value in EXTREMES
], ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_extreme_number(tmp_path, capsys, argv, name, value):
    # main returns: 0 with finite numbers only, otherwise a JSON error
    value = f"1,{value},2" if name == "semi_axes" else value
    out = [] if argv[0] == "oracle" else ["--out", str(tmp_path)]
    rc = main([*argv, f"{_flag(name)}={value}", *out])
    stdout, stderr = capsys.readouterr()
    if rc != 0:
        assert rc in (1, 2) and json.loads(stderr)["error"]["kind"]
    elif out:
        read_report(tmp_path)
    else:
        json.loads(stdout, parse_constant=_reject_constant)


@pytest.mark.parametrize("argv", [
    ["eval", *_SPHERE1, "--p", "1e300"],
    ["eval", *_SPHERE1, "--tangent-point", "--q", "1e300"],
    ["probe", *_SPHERE1, "--mode", "stability", "--hq", "1e300"],
    ["sobolev", *_SPHERE1, "--fq", "1e300"],
], ids=lambda argv: " ".join(argv[3:]))
def test_non_finite_result_writes_no_report(tmp_path, capsys, argv):
    assert main([*argv, "--out", str(tmp_path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == \
        "InvalidParams"
    assert not (tmp_path / "report.json").exists()
