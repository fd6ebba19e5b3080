"""faultfusion benchmark: end-to-end and per-layer metrics of three workloads.

One run (the form the benchmark contract uses):

    python3 perfbench/run.py --workload train-fusion --seed 1 --seconds 40 --trace 0

  --trace 0  runs the workload unwrapped in this process and reports the
             end-to-end metrics.
  --trace 1  runs a fixed amount of the workload twice, each in its own
             process: once untraced and once with spans around every layer
             instance and the package functions; reports the per-layer
             metrics and trace.overhead_frac.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. ``--out FILE`` also writes the full
result (environment, metrics, run details) as JSON.

Every workload, both trace modes, one table:

    python3 perfbench/run.py --all --seed 1 --out perfbench/out/all.json

Compare two result files, metric by metric, against BENCHMARK.json bounds:

    python3 perfbench/run.py --compare BASE.json NEW.json

OpenBLAS (and any OpenMP BLAS) runs on one thread: at these sizes a second
thread was measured slower, and one thread keeps runs comparable.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(HERE, ".work")
CHILD_TIMEOUT_S = 85

LAYER_CLASSES = ("Conv1D", "MaxPool1D", "ReLULayer", "LSTM", "Dense", "Flatten")
# Every run reports every per-layer metric, so per-instance rows name only the
# instances all three models have: the acoustic stack and the head. The
# vibration-branch rows are in the result's info.
SHARED_INSTANCES = (
    "ac.0.Conv1D",
    "ac.1.ReLULayer",
    "ac.2.MaxPool1D",
    "ac.3.Conv1D",
    "ac.4.ReLULayer",
    "ac.5.MaxPool1D",
    "ac.6.LSTM",
    "ac.7.LSTM",
    "ac.8.Flatten",
    "head.0.Dense",
    "head.1.ReLULayer",
    "head.2.Dense",
)
REPORTED_SPANS = (  # each reported as "<span>_ms", its per-call mean
    "model.forward",
    "model.backward",
    "training.adam_step",
    "training.batch_cross_entropy",
    "training.evaluate",
    "data.synth_dataset",
    "data.read_manifest",
    "data.build_dataset",
    "model.build_model",
    "model.load_model",
)
COVERAGE_FLOOR = 0.9  # layer rows must account for this share of the model passes


def _import_package():
    if not os.path.isdir(os.path.join(SRC, "faultfusion")):
        sys.exit(f"perfbench: no package source at {os.path.relpath(SRC)}/faultfusion")
    sys.path.insert(0, SRC)
    import faultfusion  # noqa: F401


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for fn in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def _child(name: str, seed: int, seconds: float, mode: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--child", mode]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: {mode} run of {name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _layer_metrics(plain: dict, traced: dict) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics from the traced child; overhead against the plain one."""
    spans = traced["spans"]
    problems: list[str] = []

    def mean(span: str, key: str = "mean_ms") -> float:
        if span not in spans:
            problems.append(f"span {span} never recorded")
            return 0.0
        return spans[span][key]

    instances = {s: v for s, v in spans.items() if s.startswith("layers.")}
    metrics: dict[str, tuple[float, str]] = {}
    for cls in LAYER_CLASSES:
        for p in ("fwd", "bwd"):
            rows = [v["mean_ms"] for s, v in instances.items() if s.endswith(f".{cls}.{p}")]
            if not rows:
                problems.append(f"no {cls} {p} spans")
            metrics[f"layers.{cls}.{p}_ms"] = (sum(rows), "ms")
    for inst in SHARED_INSTANCES:
        for p in ("fwd", "bwd"):
            metrics[f"layers.{inst}.{p}_ms"] = (mean(f"layers.{inst}.{p}"), "ms")
    for span in REPORTED_SPANS:
        metrics[f"{span}_ms"] = (mean(span), "ms")
    metrics["training.fit_self_ms"] = (mean("training.fit", "self_mean_ms"), "ms")
    metrics["model.forward_cache_mib"] = (traced["forward_cache_mib"], "MiB")
    overhead = traced["info"]["end_to_end_s"] / plain["info"]["end_to_end_s"] - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    coverage = {}
    for p, model_span in (("fwd", "model.forward"), ("bwd", "model.backward")):
        layer_sum = sum(v["mean_ms"] for s, v in instances.items() if s.endswith(f".{p}"))
        coverage[p] = layer_sum / mean(model_span) if mean(model_span) > 0 else 0.0
        metrics[f"trace.{p}_coverage"] = (coverage[p], "frac")
        if not COVERAGE_FLOOR <= coverage[p] <= 1.0:
            problems.append(f"layer {p} rows cover {coverage[p]:.3f} of {model_span}")
    info = {
        "instances": {s: round(v["mean_ms"], 4) for s, v in sorted(instances.items())},
        "calls": {s: v["calls"] for s, v in sorted(spans.items())},
        "plain": plain["info"],
        "traced": traced["info"],
    }
    return metrics, info, problems


def run_one(args) -> int:
    import workloads

    w = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    if args.child is not None:  # one half of a --trace 1 run
        tracer = None
        if args.child == "traced":
            import spans

            tracer = spans.Tracer()
        result = workloads.run(w, args.seed, args.seconds, workloads.FIXED_PLAN, WORK_ROOT, tracer)
        if tracer is not None:
            result["spans"] = tracer.summary()
            result["forward_cache_mib"] = tracer.max_forward_cache_mib
        print(json.dumps(result))
        return 0

    if args.trace == 0:
        result = workloads.run(w, args.seed, args.seconds, workloads.timed_plan(w), WORK_ROOT)
        metrics, info = result["metrics"], result["info"]
        attempted, failed, failures = result["attempted"], result["failed"], result["failures"]
    else:
        plain = _child(w.name, args.seed, args.seconds, "plain")
        traced = _child(w.name, args.seed, args.seconds, "traced")
        metrics, info, problems = _layer_metrics(plain, traced)
        attempted = plain["attempted"] + traced["attempted"] + 1
        failed = plain["failed"] + traced["failed"] + (1 if problems else 0)
        failures = plain["failures"] + traced["failures"] + problems
    _remove_work_root()

    env = environment(args.seed)
    print("# env " + json.dumps(env))
    print("# info " + json.dumps(info))
    for msg in failures:
        print(f"# FAILED {msg}")
    for name, (value, unit) in metrics.items():
        print(f"{w.name:20s} {name:34s} {value:14.6g} {unit}")
    as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if args.out:
        entry = {"metrics": as_json, "info": info}
        _write_json(args.out, {"env": env, "workloads": {w.name: entry}})
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": as_json}
    print(json.dumps(result))
    return 0


def _write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _remove_work_root() -> None:
    try:
        os.rmdir(WORK_ROOT)
    except OSError:  # another run still has files there
        pass


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args) -> int:
    """Every workload in both trace modes, each as its own benchmark process."""
    import workloads

    merged: dict = {"env": None, "workloads": {}}
    ok = True
    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        for name in workloads.WORKLOADS:
            entry = {"metrics": {}, "info": {}}
            for trace in (0, 1):
                out = os.path.join(tmp, f"{name}.{trace}.json")
                cmd = [sys.executable, os.path.abspath(__file__), "--workload", name]
                cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
                cmd += ["--trace", str(trace), "--out", out]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    return proc.returncode
                ok &= json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
                part = _read_json(out)
                merged["env"] = part["env"]
                entry["metrics"].update(part["workloads"][name]["metrics"])
                entry["info"][f"trace{trace}"] = part["workloads"][name]["info"]
            merged["workloads"][name] = entry
    _remove_work_root()
    print("# env " + json.dumps(merged["env"]))
    for name, entry in merged["workloads"].items():
        for metric, m in entry["metrics"].items():
            print(f"{name:20s} {metric:34s} {m['value']:14.6g} {m['unit']}")
    if args.out:
        _write_json(args.out, merged)
    print(f"# all checks passed: {ok}")
    return 0 if ok else 1


def compare(base_path: str, new_path: str) -> int:
    """Per workload and metric: base, new, new/base and the bound verdict."""
    base, new = _read_json(base_path), _read_json(new_path)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    declared = {}
    if os.path.exists(spec_path):
        spec = _read_json(spec_path)
        declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    outside = 0
    print(f"{'workload':20s} {'metric':34s} {'base':>12s} {'new':>12s} {'ratio':>8s}  verdict")
    for wname, b_entry in base["workloads"].items():
        n_entry = new["workloads"].get(wname)
        if n_entry is None:
            print(f"{wname:20s} missing from {new_path}")
            continue
        for metric, bm in b_entry["metrics"].items():
            nm = n_entry["metrics"].get(metric)
            if nm is None:
                print(f"{wname:20s} {metric:34s} missing from {new_path}")
                continue
            b, n = bm["value"], nm["value"]
            ratio = n / b if b else float("nan")
            d = declared.get(metric, {})
            verdict = ""
            if "bound" in d and b:
                worse = (n - b) / b if d["better"] == "lower" else (b - n) / b
                verdict = "ok" if worse <= d["bound"] else f"WORSE by {worse:.1%}"
                outside += verdict != "ok"
            print(f"{wname:20s} {metric:34s} {b:12.5g} {n:12.5g} {ratio:8.3f}  {verdict}")
    print(f"# {outside} end-to-end metric(s) outside their bound")
    return 1 if outside else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="faultfusion benchmark")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full result as JSON")
    parser.add_argument("--all", action="store_true", help="every workload, both trace modes")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--child", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.all:
        _import_package()
        return run_all(args)
    if args.workload is None:
        parser.error("one of --workload, --all or --compare is required")
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}: {', '.join(workloads.WORKLOADS)}")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
