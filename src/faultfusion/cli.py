"""Command-line front end: generate, train, evaluate, infer.

Runs are driven by an INI-style config file ([model], [train], [data],
[synth], [output] sections mirroring the library dataclasses); command-line
flags override file values. Exit codes: 0 success, 1 usage/config error,
2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import re
import sys

import numpy as np

from . import __version__
from .codec import parsers
from .data import (
    BRANCH_MODES,
    SENSORS,
    Manifest,
    SynthSpec,
    build_dataset,
    default_class_names,
    load_recording,
    normalize_window,
    read_manifest,
    segment,
    synth_dataset,
    synth_recordings,
    write_manifest,
)
from .errors import ConfigError, DataError, FaultFusionError, NumericError, ShapeError
from .metrics import per_class_metrics, render_csv, render_table
from .model import MODEL_KINDS, ModelSpec, build_model, kind_branches, load_model, save_model
from .tensor import Rng
from .training import TrainConfig, evaluate, fit, render_report, stratified_split

_INIT_TAG = 0x1217  # rng stream tag for weight init, distinct from training streams

# The keys of each config section: the fields of a dataclass, or these names.
_SECTIONS = {
    "model": ModelSpec,
    "train": TrainConfig,
    "data": ("source", "manifest", "window_len"),
    "synth": SynthSpec,
    "output": ("dir",),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise ConfigError(message)


def _one_line(exc: Exception) -> str:
    """configparser messages span lines; the CLI reports one."""
    return " ".join(str(exc).split())


def _read_config(path: str | None) -> configparser.ConfigParser:
    """The config file, parsed. A key set in a section that _SECTIONS lacks,
    or that its section does not take, is a ConfigError; keys inherited from
    [DEFAULT] are not checked, so a section that sets none of its own is allowed."""
    cp = configparser.ConfigParser()
    if path is not None:
        if not os.path.isfile(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            cp.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is not valid INI: {_one_line(exc)}") from exc
    for section in cp.sections():
        keys = [key for key in cp.options(section) if key not in cp.defaults()]
        if not keys:
            continue
        if section not in _SECTIONS:
            expected = ", ".join(_SECTIONS)
            raise ConfigError(f"[{section}]: unknown section, expected one of {expected}")
        takes, what = _SECTIONS[section], f"[{section}]"
        if isinstance(takes, type):
            takes, what = parsers(takes), takes.__name__
        for key in keys:
            if key not in takes:
                raise ConfigError(f"[{section}] {key}: unknown key, not a {what} field")
    return cp


def _get(cp, section: str, key: str, default, cast=str):
    if cp.has_option(section, key):
        try:
            raw = cp.get(section, key)
        except configparser.Error as exc:  # e.g. a bare '%' breaks interpolation
            raise ConfigError(f"[{section}] {key}: {_one_line(exc)}") from exc
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc
    return default


def _section(cp, section: str, cls, **fixed):
    """A ``cls`` dataclass from the keys of one INI section.

    A ``fixed`` value that is not None wins over the section's key; a field
    set by neither keeps its default.
    """
    fields = parsers(cls)
    fixed = {name: value for name, value in fixed.items() if value is not None}
    read = {
        name: _get(cp, section, name, None, parse)
        for name, parse in fields.items()
        if name not in fixed
    }
    return cls(**{name: value for name, value in read.items() if value is not None}, **fixed)


def _out_dir(cp, args) -> str:
    out = args.out if args.out is not None else _get(cp, "output", "dir", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-").lower()


def _dataset_for(cp, args, branches: tuple[str, ...], window_len: int):
    """Build the run's dataset from exactly one source: manifest or synth."""
    source = _get(cp, "data", "source", None)
    manifest_path = getattr(args, "manifest", None) or _get(cp, "data", "manifest", None)
    if getattr(args, "manifest", None):  # explicit flag beats the config source
        source = "manifest"
    elif source is None:
        source = "manifest" if manifest_path else "synth"
    if source == "manifest":
        if not manifest_path:
            raise ConfigError("data source is manifest but no manifest path was given")
        manifest = read_manifest(manifest_path)
        return build_dataset(manifest, BRANCH_MODES[branches], window_len=window_len)
    if source == "synth":
        return synth_dataset(_section(cp, "synth", SynthSpec, seed=getattr(args, "seed", None)))
    raise ConfigError(f"unknown data source {source!r} (expected manifest or synth)")


def cmd_generate(args) -> int:
    cp = _read_config(args.config)
    spec = _section(cp, "synth", SynthSpec, seed=args.seed)
    out = _out_dir(cp, args)
    rows = []
    for c, (name, recordings) in enumerate(zip(spec.class_names, synth_recordings(spec))):
        for rec in recordings:
            fname = f"{c:02d}_{_slug(name)}_{rec.modality}.f32"
            samples = rec.samples.astype("<f4")
            if not np.isfinite(samples).all():
                raise ConfigError(f"[synth] signal of {fname} exceeds the float32 range")
            with open(os.path.join(out, fname), "wb") as fh:
                fh.write(samples.tobytes())
            rows.append(
                {
                    "file_path": fname,
                    "modality": rec.modality,
                    "label_name": name,
                    "pair_key": f"c{c}",
                }
            )
    manifest_path = os.path.join(out, "manifest.csv")
    write_manifest(Manifest(rows=rows, class_names=list(spec.class_names)), manifest_path)
    print(f"wrote {len(rows)} recordings and {manifest_path}")
    return 0


def cmd_train(args) -> int:
    cp = _read_config(args.config)
    kind = args.kind if args.kind is not None else _get(cp, "model", "kind", None)
    if kind is None:
        raise ConfigError("model kind required: pass --kind or set [model] kind")
    default_len = _get(cp, "synth", "window_len", 1000, int)
    window_len = _get(cp, "data", "window_len", default_len, int)
    if window_len < 1:
        section = "data" if cp.has_option("data", "window_len") else "synth"
        raise ConfigError(f"[{section}] window_len must be >= 1, got {window_len}")
    dataset = _dataset_for(cp, args, kind_branches(kind), window_len)
    declared = _get(cp, "model", "num_classes", None, int)
    if declared is not None and declared != dataset.num_classes:
        raise DataError(
            f"[model] num_classes={declared} but the dataset has {dataset.num_classes}"
        )
    spec = _section(
        cp,
        "model",
        ModelSpec,
        kind=kind,
        num_classes=dataset.num_classes,
        input_len=dataset.window_len,
    )
    config = _section(cp, "train", TrainConfig, seed=args.seed)
    model = build_model(spec, Rng(config.seed).derive(_INIT_TAG))
    report = fit(model, dataset, config)

    out = _out_dir(cp, args)
    model_path = os.path.join(out, "model.fmdl")
    save_model(model, model_path)
    with open(os.path.join(out, "train_report.txt"), "w", encoding="utf-8") as fh:
        fh.write(render_report(report))
    stats = per_class_metrics(report.final_confusion)
    table = render_table(stats, dataset.class_names)
    with open(os.path.join(out, "metrics.txt"), "w", encoding="utf-8") as fh:
        fh.write(table)
    with open(os.path.join(out, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(render_csv(stats, dataset.class_names))
    print(table, end="")
    print(f"final validation accuracy: {report.final_val_accuracy:.4f}")
    print(f"model written to {model_path}")
    return 0


def cmd_evaluate(args) -> int:
    cp = _read_config(args.config)
    model = load_model(args.model)
    dataset = _dataset_for(cp, args, kind_branches(model.kind), model.spec.input_len)
    if dataset.num_classes != model.spec.num_classes:
        raise DataError(
            f"model has {model.spec.num_classes} classes, dataset has {dataset.num_classes}"
        )
    if dataset.window_len != model.spec.input_len:
        raise DataError(
            f"model input length {model.spec.input_len}, dataset windows {dataset.window_len}"
        )
    config = _section(cp, "train", TrainConfig)
    split_seed = args.split_seed if args.split_seed is not None else config.seed
    _, val_idx = stratified_split(dataset, config.split_ratio, split_seed, config.split_granularity)
    accuracy, cm = evaluate(model, dataset, val_idx)
    stats = per_class_metrics(cm)
    table = render_table(stats, dataset.class_names)
    print(table, end="")
    print(f"validation accuracy: {accuracy:.4f}")
    out = _out_dir(cp, args)
    with open(os.path.join(out, "evaluate_metrics.txt"), "w", encoding="utf-8") as fh:
        fh.write(table)
    with open(os.path.join(out, "evaluate_metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(render_csv(stats, dataset.class_names))
    return 0


def _read_window(path: str, input_len: int) -> np.ndarray:
    return normalize_window(segment(load_recording(path), input_len)[0])


def cmd_infer(args) -> int:
    model = load_model(args.model)
    files = {branch: getattr(args, SENSORS[branch]) for branch in kind_branches(model.kind)}
    for branch, path in files.items():
        if path is None:
            raise ConfigError(f"{model.kind} model needs --{SENSORS[branch]} FILE")
    windows = {f"x_{b}": _read_window(path, model.spec.input_len) for b, path in files.items()}
    probs, _ = model.forward(**windows, keep=False)
    if args.class_names is not None:
        names = [n.strip() for n in args.class_names.split(",")]
        if len(names) != model.spec.num_classes:
            raise ConfigError(
                f"--class-names has {len(names)} entries, model has {model.spec.num_classes}"
            )
    else:
        names = default_class_names(model.spec.num_classes)
    winner = int(np.argmax(probs))
    print(f"predicted: {names[winner]}")
    for name, p in zip(names, probs):
        print(f"  {name}: {p:.4f}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="faultfusion", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        p.add_argument("--out", default=None, help="output directory")

    p_gen = sub.add_parser("generate", help="write a synthetic dataset and its manifest")
    shared(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="train a model, write weights and reports")
    shared(p_train)
    p_train.add_argument("--kind", choices=MODEL_KINDS, default=None)
    p_train.add_argument("--manifest", default=None, help="train from this manifest")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="metrics table for a saved model")
    shared(p_eval)
    p_eval.add_argument("model", help="path to a .fmdl weight file")
    p_eval.add_argument("--manifest", default=None)
    p_eval.add_argument("--split-seed", type=int, default=None)
    p_eval.set_defaults(func=cmd_evaluate)

    p_infer = sub.add_parser("infer", help="classify the first window of a recording")
    shared(p_infer)
    p_infer.add_argument("model", help="path to a .fmdl weight file")
    p_infer.add_argument("--vibration", default=None, help="vibration recording (.csv or raw f32)")
    p_infer.add_argument("--acoustic", default=None, help="acoustic recording (.csv or raw f32)")
    p_infer.add_argument("--class-names", default=None, help="comma-separated class names")
    p_infer.set_defaults(func=cmd_infer)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # every non-finite result ends in a NumericError and its one line, so
        # numpy's floating-point warnings would only add lines before it
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DataError, ShapeError, FaultFusionError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
