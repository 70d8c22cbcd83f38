"""Benchmark of the nlcurv CLI: end-to-end op timings and per-layer traces.

    python3 bench/run.py --workload energy|flow|probes|all \
        [--seed N] [--seconds S] [--trace 0|1]

One op of a workload is a fixed sequence of ``nlcurv.cli.main(argv)``
calls, run back to back by a single closed-loop client in this process
for ``--seconds``; every op's outputs are checked.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
a separate traced run.  The last line of standard output is the result
object; the line before it holds the details (environment, sample
count, op_tail_s, failures, informational values).
``--workload all`` runs every workload in a fresh process and prints
each metric by name and unit.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# Neither imports numpy, which must wait for pin_environment().
from tracer import (COUNTS, LAYER_METRICS, Tracer, energy_wall,
                    layer_metrics)
from workloads import (INPUT_SEEDS, REFERENCES, WORKERS, WORKLOADS,
                       identical, load_references)

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 10     # fresh processes timed per run for setup_s
TAIL_BEYOND = 10      # op_tail_s has at least this many samples above it

# op_tail_s and fail_frac are reported in the details line, not gated:
# a run holds too few ops for a tail, and fail_frac is 0 on correct code.
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def pin_environment():
    """At most --workers threads: no BLAS/OpenMP pools, no env override.

    Must run before numpy is first imported.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ.pop("NLCURV_WORKERS", None)


def import_nlcurv():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nlcurv
    import nlcurv.cli
    if src.resolve() not in Path(nlcurv.__file__).resolve().parents:
        sys.exit(f"bench: imported nlcurv from {nlcurv.__file__}, not {src}")
    return nlcurv


def environment():
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
            check=True).stdout.split()
        if Path(top).resolve() != ROOT:
            commit = None  # ROOT is not itself a repository
    except (OSError, subprocess.SubprocessError):
        commit = None  # a checkout without git metadata
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "workers": WORKERS, "git_commit": commit}


def run_steps(cli, steps, out_dir):
    """Run one op's CLI calls; returns their output directories."""
    outs = [os.path.join(out_dir, str(i)) for i in range(len(steps))]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main([*argv, "--out", out])
                 for argv, out in zip(steps, outs)]
    if any(codes):
        raise RuntimeError(f"exit codes {codes}")
    return outs


class Client:
    """Runs and checks ops of one workload; counts attempts and failures."""

    def __init__(self, nlcurv, workload, seed, out_dir):
        self.cli = nlcurv.cli
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.ref = workload.reference(load_references(), seed)
        self.attempted = 0
        self.failures = []

    def op(self, workers, tracer=None):
        """One op: (seconds, parsed outputs or None, spans or None)."""
        steps = self.workload.steps(self.seed, workers)
        self.attempted += 1
        result = None
        t0 = time.perf_counter()
        try:
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter()  # installing the tracer is not op time
                outs = run_steps(self.cli, steps, self.out_dir)
                seconds = time.perf_counter() - t0
            result = self.workload.parse(outs)
            bad = self.workload.check(result, self.ref)
        except Exception as exc:  # a failing op is counted, the run goes on
            traceback.print_exc()
            seconds = time.perf_counter() - t0
            bad = [f"{type(exc).__name__}: {exc}"]
        if bad:
            self.failures.append(bad)
        return seconds, result, (tracer.spans if tracer else None)


def tail(times):
    """Highest order statistic with TAIL_BEYOND samples above it (the
    slowest op when there are too few), and its percentile."""
    ordered = sorted(times)
    k = len(ordered) - 1 - TAIL_BEYOND
    return (ordered[k], 100.0 * (k + 1) / len(ordered)) if k >= 0 \
        else (ordered[-1], 100.0)


def setup_seconds(name, seed):
    """One setup_s sample: process start -> nlcurv imported and the
    workload's meshes and schemes built, in a fresh process."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", repr(t0),
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def measure(client, seconds):
    """Untraced run: the end-to-end metrics.

    The setup_s probes are spread between the ops over the whole run, so
    that they meet the same swings in host speed as the ops do.
    """
    times, setup = [], []
    busy = 0.0  # wall time of the ops and their checks, without the probes
    while busy < seconds:
        if len(setup) < SETUP_PROBES * busy / seconds:
            setup.append(setup_seconds(client.workload.name, client.seed))
        t0 = time.perf_counter()
        times.append(client.op(WORKERS)[0])
        busy += time.perf_counter() - t0
    while len(setup) < SETUP_PROBES:
        setup.append(setup_seconds(client.workload.name, client.seed))
    tail_s, pct = tail(times)
    metrics = {"op_s": statistics.median(times),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024,
               "setup_s": statistics.median(setup)}
    return metrics, {"samples": len(times), "op_tail_s": tail_s,
                     "op_tail_percentile": pct,
                     "op_times": times, "setup_samples": setup}


def measure_traced(nlcurv, client, seconds):
    """Traced run: per-layer metrics, exact-count and determinism checks."""
    start = time.perf_counter()
    traced, plain = [], []  # alternate traced and untraced ops at WORKERS
    while len(plain) < 2 or time.perf_counter() - start < seconds:
        if len(traced) <= len(plain):
            traced.append(client.op(WORKERS, Tracer()))
        else:
            plain.append(client.op(WORKERS)[0])
        if len(plain) == 1 and len(traced) == 1:  # warm, as the others are
            w1_time, w1_result, w1_spans = client.op(1, Tracer())
    per_op = [layer_metrics(spans, t) for t, _, spans in traced]
    w1 = layer_metrics(w1_spans, w1_time)
    problems = [k for k in COUNTS if any(m[k] != w1[k] for m in per_op)]
    if not all(identical(w1_result, r) for _, r, _ in traced):
        problems.append("workers=1 and workers=2 outputs differ")
    metrics = {k: w1[k] if k in COUNTS else
               statistics.median(m[k] for m in per_op)
               for k in LAYER_METRICS}
    wall2 = statistics.median(energy_wall(s) for _, _, s in traced)
    metrics["functionals.scaling_eff"] = (
        energy_wall(w1_spans) / (2 * wall2) if wall2 > 0 else 0.0)
    metrics["trace.overhead"] = (statistics.median(t for t, _, _ in traced)
                                 / statistics.median(plain))
    detail = {"traced_ops": len(traced), "untraced_ops": len(plain),
              "trace_problems": problems,
              "info": informational(nlcurv, client.workload, client.seed)}
    return metrics, detail


def min_pair_over_cutoff(mesh, scheme):
    """Closest pair of samples the skip_vertex_star policy keeps, over
    the package's pair cutoff * diameter: how far the mesh is from
    DegenerateGeometry."""
    import numpy as np
    from nlcurv.functionals import _PAIR_CUTOFF
    from scipy.sparse import csr_matrix
    el = mesh.elements
    inc = csr_matrix((np.ones(el.size), (np.repeat(np.arange(len(el)),
                                                   el.shape[1]), el.ravel())),
                     shape=(len(el), mesh.n_vertices))
    share = (inc @ inc.T).tocsr()
    Y, owner = scheme.points, scheme.element_of
    best = np.inf
    for a in range(0, len(Y), 256):
        d2 = ((Y[a:a + 256, None, :] - Y[None, :, :]) ** 2).sum(-1)
        d2[share[owner[a:a + 256]][:, owner].toarray() > 0] = np.inf
        best = min(best, float(d2.min()))
    return float(np.sqrt(best) / (_PAIR_CUTOFF * mesh.diameter))


def informational(nlcurv, workload, seed):
    """Values later work quotes; no gate rests on them."""
    loc = sum(len(p.read_text().splitlines())
              for p in (ROOT / "src" / "nlcurv").glob("*.py"))
    info = {"src_loc": loc}
    built = workload.setup(nlcurv, seed)
    ratios = [min_pair_over_cutoff(m, s) for m, s in built if s is not None]
    if ratios:
        info["min_pair_over_cutoff"] = min(ratios)
    if workload.name == "energy":
        mesh, scheme = built[0]
        h = nlcurv.pointwise_curvature(
            mesh, scheme, nlcurv.EnergyParameters(s=0.5, p=4.0), kind="H",
            workers=WORKERS)
        info["vertex_hs_spread_sub3"] = float((h.max() - h.min())
                                              / abs(h.mean()))
    return info


def run_workload(args):
    workload = WORKLOADS[args.workload]
    nlcurv = import_nlcurv()
    env = environment()
    out_root = ROOT / ".bench_out"
    out_root.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_root)
    try:
        client = Client(nlcurv, workload, args.seed, out_dir)
        if args.trace:
            metrics, detail = measure_traced(nlcurv, client, args.seconds)
            units = {k: u for k, (u, _) in LAYER_METRICS.items()}
        else:
            metrics, detail = measure(client, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failed = len(client.failures)
    problems = detail.get("trace_problems", [])
    detail.update({"workload": workload.name, "seed": args.seed,
                   "input_seed": args.seed % INPUT_SEEDS,
                   "fail_frac": failed / client.attempted,
                   "failures": client.failures[:5], "env": env})
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": client.attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0


def run_all(args):
    """Each workload in a fresh process; every metric by name and unit."""
    status = 0
    print(f"{'workload':<9} {'metric':<28} {'value':>14}  unit")
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            sys.stderr.write(proc.stderr)
            print(f"{name:<9} failed with exit code {proc.returncode}")
            status = 1
            continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        rows = [(k, m["value"], m["unit"])
                for k, m in result["metrics"].items()]
        if "op_tail_s" in detail:
            rows.append(("op_tail_s", detail["op_tail_s"], "s"))
        rows.append(("fail_frac", detail["fail_frac"], "ratio"))
        rows += [(k, v, "") for k, v in detail.get("info", {}).items()]
        for k, v, unit in rows:
            print(f"{name:<9} {k:<28} {v:>14.6g}  {unit}")
        extra = (f"samples={detail['samples']} (op_tail_s is "
                 f"p{detail['op_tail_percentile']:.0f})"
                 if "samples" in detail else
                 f"traced_ops={detail['traced_ops']}")
        print(f"{name:<9} correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} {extra}")
        if not result["correct"]:
            status = 1
    return status


def record_references():
    """Rewrite references.json from the current program's outputs."""
    nlcurv = import_nlcurv()
    refs = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as out:
        for name, workload in WORKLOADS.items():
            seeds = [0] if name == "energy" else range(INPUT_SEEDS)
            refs[name] = {str(seed): workload.parse(run_steps(
                nlcurv.cli, workload.steps(seed, WORKERS), out))
                for seed in seeds}
    refs["energy"] = refs["energy"]["0"]  # the icosphere takes no seed
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def setup_probe(args):
    nlcurv = import_nlcurv()
    WORKLOADS[args.workload].setup(nlcurv, args.seed)
    print(time.monotonic() - args.setup_probe)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["energy", "flow", "probes", "all"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="rewrite references.json from this program")
    parser.add_argument("--setup-probe", type=float, metavar="T0",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_environment()
    if not (ROOT / "src" / "nlcurv" / "__init__.py").is_file():
        sys.exit(f"bench: no nlcurv sources under {ROOT / 'src'}")
    if args.record_references:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe is not None:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
