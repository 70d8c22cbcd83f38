"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import shutil
import subprocess
import sys

import pytest

import run
from tracer import Span, Tracer, covered, layer_metrics, self_times
from workloads import WORKLOADS, identical, load_references

nlcurv = run.import_nlcurv()


@pytest.fixture
def client(tmp_path):
    def make(name):
        return run.Client(nlcurv, WORKLOADS[name], 3, str(tmp_path))
    return make


def test_self_time_subtracts_union_of_children():
    spans = [Span("flow.gradient", None, 0.0, 10.0),
             Span("functionals.energy", 0, 1.0, 3.0),
             Span("functionals.energy", 0, 2.0, 5.0),  # overlaps: a pool
             Span("surface.build", 0, 8.0, 9.0)]
    assert covered([(s.start, s.end) for s in spans[1:]]) == 5.0
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0]


def test_linesearch_follows_the_acceptance_rule():
    spans = [Span("flow.minimize", None, 0.0, 10.0)]
    for i, e in enumerate([10.0, 12.0, 11.0, 9.0, 9.0]):
        spans.append(Span("functionals.energy", 0, i, i + 0.5,
                          {"pairs": 4, "energy": e}))
    m = layer_metrics(spans, 10.0)
    assert m["flow.linesearch.trials"] == 4
    assert m["flow.linesearch.rejections"] == 3
    assert m["flow.linesearch.s"] == 10.0
    assert m["functionals.pairs"] == 20


def test_tracer_restores_every_binding():
    originals = (nlcurv.flow.bending_energy, nlcurv.flow.build_scheme,
                 nlcurv.probes.sobolev_seminorm,
                 nlcurv.seminorms.intrinsic_distances)
    with Tracer():
        assert nlcurv.flow.bending_energy is not originals[0]
        assert nlcurv.probes.intrinsic_distances \
            is nlcurv.seminorms.intrinsic_distances
    assert (nlcurv.flow.bending_energy, nlcurv.flow.build_scheme,
            nlcurv.probes.sobolev_seminorm,
            nlcurv.seminorms.intrinsic_distances) == originals


@pytest.mark.parametrize("name", ["energy", "flow"])
def test_counts_repeat_and_workers_agree_bitwise(client, name):
    c = client(name)
    ops = [c.op(workers=w, tracer=Tracer()) for w in (1, 2, 2)]
    assert c.failures == []
    counts = [{k: layer_metrics(spans, t)[k] for k in run.COUNTS}
              for t, _, spans in ops]
    assert counts[0] == counts[1] == counts[2]
    assert identical(ops[0][1], ops[1][1]) and identical(ops[1][1], ops[2][1])
    if name == "energy":
        assert counts[0]["functionals.pairs"] == 3 * 3840 ** 2
    else:  # one FD gradient on sub1: 2 * V * n energy calls
        assert counts[0]["flow.gradient.energy_calls"] == 2 * 42 * 3
        assert counts[0]["flow.gradient.calls"] == 1


def test_probes_op_passes_its_checks(client):
    c = client("probes")
    t, result, spans = c.op(workers=2, tracer=Tracer())
    assert c.failures == []
    m = layer_metrics(spans, t)
    assert m["geodesics.distances.calls"] == 3
    assert m["functionals.energy.calls"] == 0
    assert m["cli.other.s"] >= 0


def test_checks_reject_outputs_off_by_more_than_roundoff():
    refs = load_references()
    energy, flow, probes = (WORKLOADS[n] for n in ("energy", "flow",
                                                    "probes"))
    ref = energy.reference(refs, 3)
    assert energy.check(dict(ref), ref) == []
    assert energy.check({**ref, "T": ref["T"] * (1 + 1e-8)}, ref) == ["T"]
    assert "B==W" in energy.check({**ref, "W": ref["W"] * 1.01}, ref)
    ref = flow.reference(refs, 3)
    climbing = {**ref, "energies": ref["energies"][::-1]}
    assert "energy decrease" in flow.check(climbing, ref)
    moved = {**ref, "energies": ref["energies"][:-1]
             + [ref["energies"][-1] * (1 + 1e-8)]}
    assert flow.check(moved, ref) == ["final energy"]
    ref = probes.reference(refs, 3)
    assert probes.check({**ref, "starshaped": False}, ref) == ["starshaped"]
    moved = {**ref, "seminorms": [v * (1 + 1e-6) for v in ref["seminorms"]]}
    assert probes.check(moved, ref) == ["seminorms"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "energy", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
