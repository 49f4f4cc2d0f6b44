"""Command-line interface: simulate | decompose | tune | evaluate.

Every command writes its artifacts plus a ``manifest`` key=value file
(command, every option of the subcommand, input hashes, version,
timestamp).  Data outputs are byte-identical across reruns with the same
arguments; the manifest's timestamp line is the one exception.

Exit codes: 0 success, 2 usage, 3 validation, 4 numeric/degeneracy.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import os
import sys
import time

import numpy as np

from . import __version__
from .baselines import fastica
from .connmat import load_dataset, save_dataset, unvectorize
from .errors import DegeneracyError, LocusError, ValidationError
from .evaluate import bootstrap_replicates, match_sources, reliability_report
from .modelsel import tune
from .preprocess import unmix_to_subject_space, whiten
from .solver import (SolverConfig, fit, load_decomposition, read_meta,
                     read_sources, save_decomposition, save_model)
from .synth import SyntheticSpec, generate

SCENARIOS = {"I": "blocks_cross", "II": "triangle_circle_square",
             "blocks_cross": "blocks_cross",
             "triangle_circle_square": "triangle_circle_square"}
REGULARIZERS = {"uniform": "uniform_l1", "vector": "vector_l1",
                "nuclear": "nuclear"}
# allowed values of the choice options, on the command line and in config files
CHOICES = {"scenario": sorted(SCENARIOS), "regularizer": sorted(REGULARIZERS),
           "method": ["locus", "fastica"], "format": ["square", "edge"]}


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _hash_input(path: str) -> str:
    if os.path.isdir(path):
        digest = hashlib.sha256()
        for name in sorted(os.listdir(path)):
            full = os.path.join(path, name)
            if os.path.isfile(full):
                digest.update(name.encode())
                digest.update(_sha256_file(full).encode())
        return digest.hexdigest()
    return _sha256_file(path)


def write_manifest(out_dir: str, args: argparse.Namespace,
                   inputs: dict | None = None) -> None:
    """Record the subcommand, every one of its options with the value it
    ran with (lists joined by commas) and a sha256 per input."""
    lines = [f"command={args.command}", f"version={__version__}",
             f"timestamp={time.strftime('%Y-%m-%dT%H:%M:%S%z')}"]
    for dest in sorted(_command_options(build_parser(), args.command)):
        value = getattr(args, dest)
        if isinstance(value, list):
            value = ",".join(map(str, value))
        lines.append(f"{dest}={value}")
    for name, path in sorted((inputs or {}).items()):
        lines.append(f"input_{name}={path}")
        lines.append(f"input_{name}_sha256={_hash_input(path)}")
    with open(os.path.join(out_dir, "manifest"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_table(path: str, header: list[str], rows) -> None:
    """Write a CSV table; fields holding a comma or a quote are quoted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_pgm(matrix: np.ndarray, path: str) -> None:
    """8-bit grayscale PGM with a symmetric diverging mapping: zero maps to
    mid-gray 128, +-max|value| to 255/1."""
    m = np.asarray(matrix, dtype=float)
    scale = float(np.max(np.abs(m)))
    if scale == 0:
        scale = 1.0
    pixels = np.round(128.0 + 127.0 * m / scale).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())


def _command_options(parser: argparse.ArgumentParser,
                     command: str) -> dict[str, argparse.Action]:
    """The options of one subcommand by dest, without --help and --config."""
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    return {a.dest: a for a in commands[command]._actions
            if a.option_strings and a.dest not in ("help", "config")}


def _config_value(action: argparse.Action, key: str, text: str):
    """Parse a config value the way the option's flag would: with its type
    and choices, as a bool for a switch, and as a list of comma-separated
    items for a repeatable option."""
    if action.nargs == 0:
        return text.lower() in ("1", "true", "yes")
    repeatable = isinstance(action, argparse._AppendAction)
    values = []
    for item in (text.split(",") if repeatable else [text]):
        item = item.strip()
        try:
            value = action.type(item) if action.type else item
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise ValidationError("bad_config",
                                  f"config key {key!r}: {err}") from err
        if action.choices is not None and value not in action.choices:
            raise ValidationError("bad_config",
                                  f"config key {key!r}: {value!r} is not "
                                  f"one of {list(action.choices)}")
        values.append(value)
    return values if repeatable else values[0]


def _apply_config(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill options from a key=value config file; explicit flags win.

    Only the subcommand's own options (by dest) are read; other keys, such
    as positional arguments or parser internals, are skipped.  The explicit
    flags are those argparse itself finds in ``argv`` once the options'
    defaults are suppressed, abbreviations and ``--flag=value`` included."""
    parser = build_parser()
    options = _command_options(parser, args.command)
    for action in options.values():
        action.default = argparse.SUPPRESS
    explicit = set(vars(parser.parse_args(argv)))
    path = args.config
    if not os.path.isfile(path):
        raise ValidationError("bad_config", f"config file {path!r} not found")
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or "=" not in line:
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            dest = key.replace("-", "_")
            if dest in explicit or dest not in options:
                continue
            setattr(args, dest, _config_value(options[dest], key, value))


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(phi=args.phi, rho=args.rho, r_max=args.r_max,
                        eps1=args.eps1, eps2=args.eps2,
                        max_iter=args.max_iter,
                        regularizer=REGULARIZERS[args.regularizer],
                        seed=args.seed)


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--phi", type=float, default=0.0,
                     help="sparsity weight (default 0)")
    sub.add_argument("--rho", type=float, default=0.95,
                     help="rank-closeness level in (0,1) (default 0.95)")
    sub.add_argument("--r-max", type=int, default=10, dest="r_max",
                     help="per-source rank cap (default 10)")
    sub.add_argument("--eps1", type=float, default=1e-4,
                     help="mixing-matrix stopping tolerance")
    sub.add_argument("--eps2", type=float, default=1e-4,
                     help="source-matrix stopping tolerance")
    sub.add_argument("--max-iter", type=int, default=1000, dest="max_iter")
    sub.add_argument("--regularizer", choices=CHOICES["regularizer"],
                     default="uniform")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--config", help="key=value file supplying defaults "
                                      "(explicit flags win)")


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=CHOICES["format"], default=None,
                     help="input layout (default: inferred)")
    sub.add_argument("--fisher", action="store_true",
                     help="apply the Fisher-Z transform to input correlations")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _write_truth(out_dir: str, truth, node_count: int, spec: SyntheticSpec) -> None:
    truth_dir = os.path.join(out_dir, "truth")
    os.makedirs(truth_dir, exist_ok=True)
    for ell in range(truth.sources.shape[0]):
        np.savetxt(os.path.join(truth_dir, f"S_{ell + 1}.csv"),
                   unvectorize(truth.sources[ell], node_count),
                   delimiter=",", fmt="%.17g")
    np.savetxt(os.path.join(truth_dir, "loadings.csv"), truth.loadings,
               delimiter=",", fmt="%.17g")
    with open(os.path.join(truth_dir, "spec"), "w") as fh:
        fh.write(f"V={node_count}\nq={truth.sources.shape[0]}\n"
                 f"N={truth.loadings.shape[0]}\nsigma={truth.noise_sd}\n"
                 f"scenario={spec.scenario}\nseed={spec.seed}\n")


def cmd_simulate(args) -> int:
    spec = SyntheticSpec(node_count=args.V, q=args.q, n_subjects=args.N,
                         sigma=args.sigma, scenario=SCENARIOS[args.scenario],
                         seed=args.seed)
    dataset, truth = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    save_dataset(dataset, os.path.join(args.out, "dataset.csv"))
    _write_truth(args.out, truth, args.V, spec)
    write_manifest(args.out, args)
    return 0


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------

def cmd_decompose(args) -> int:
    dataset = load_dataset(args.data, format=args.format, fisher=args.fisher)
    whitened = whiten(dataset, args.q)
    os.makedirs(args.out, exist_ok=True)

    if args.method == "locus":
        config = _solver_config(args)
        model = fit(whitened, args.q, config)
        save_model(model, args.out, config)
        sources = model.source_matrix()
    else:
        ica = fastica(whitened, args.q, max_iter=args.max_iter, seed=args.seed)
        loadings = unmix_to_subject_space(ica.mixing, whitened, ica.sources)
        meta = {"q": args.q, "method": "fastica", "seed": args.seed,
                "iterations": ica.iterations, "converged": ica.converged}
        save_decomposition(args.out, ica.sources, dataset.node_count,
                           loadings, ica.mixing, meta)
        sources = ica.sources

    for ell in range(sources.shape[0]):
        write_pgm(unvectorize(sources[ell], dataset.node_count),
                  os.path.join(args.out, f"S_{ell + 1}.pgm"))
    write_manifest(args.out, args, inputs={"data": args.data})
    return 0


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------

def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def cmd_tune(args) -> int:
    dataset = load_dataset(args.data, format=args.format, fisher=args.fisher)
    config = _solver_config(args)
    result = tune(dataset, args.q, args.phi_grid, args.rho_grid, config)
    os.makedirs(args.out, exist_ok=True)
    write_table(os.path.join(args.out, "grid.csv"),
                ["phi", "rho", "bic", "iterations", "converged", "error"],
                ([f"{cell.phi:.17g}", f"{cell.rho:.17g}",
                  "" if cell.error is not None else f"{cell.bic:.17g}",
                  cell.iterations, str(cell.converged).lower(),
                  cell.error or ""] for cell in result.grid))
    best_cell = next(c for c in result.grid
                     if (c.phi, c.rho) == result.best)
    with open(os.path.join(args.out, "best"), "w") as fh:
        fh.write(f"phi={result.best[0]:.17g}\nrho={result.best[1]:.17g}\n"
                 f"bic={best_cell.bic:.17g}\n")
    write_manifest(args.out, args, inputs={"data": args.data})
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _read_truth(truth_dir: str) -> tuple[np.ndarray, np.ndarray | None]:
    spec = read_meta(os.path.join(truth_dir, "spec"))
    sources, _ = read_sources(truth_dir, int(spec["q"]))
    loadings_path = os.path.join(truth_dir, "loadings.csv")
    loadings = None
    if os.path.isfile(loadings_path):
        loadings = np.loadtxt(loadings_path, delimiter=",", ndmin=2)
    return sources, loadings


def _bootstrap_fit_fn(method: str, q: int, args):
    """One-replicate decomposition returning a (q, p) source matrix."""
    if method == "locus":
        base = _solver_config(args)

        def run(ds, seed):
            from dataclasses import replace
            model = fit(whiten(ds, q), q, replace(base, seed=seed))
            return model.source_matrix()
    else:
        def run(ds, seed):
            return fastica(whiten(ds, q), q, max_iter=args.max_iter,
                           seed=seed).sources
    return run


def cmd_evaluate(args) -> int:
    truth, truth_loadings = _read_truth(args.truth)
    os.makedirs(args.out, exist_ok=True)
    inputs = {"truth": args.truth}

    if args.fits:
        # a fit is named by its directory, or its path if two names clash
        labels = [os.path.basename(os.path.normpath(d)) for d in args.fits]
        if len(set(labels)) < len(labels):
            labels = args.fits
        rows = []
        for index, (fit_dir, label) in enumerate(zip(args.fits, labels), start=1):
            dec = load_decomposition(fit_dir)
            est_loadings = dec["a"]
            if (truth_loadings is None
                    or est_loadings.shape[0] != truth_loadings.shape[0]):
                est_loadings = None
            match = match_sources(truth, dec["sources"], truth_loadings,
                                  est_loadings)
            for ell in range(truth.shape[0]):
                lc = ("" if match.loading_corr is None
                      else f"{match.loading_corr[ell]:.6f}")
                rows.append([label, ell + 1, match.permutation[ell] + 1,
                             int(match.signs[ell]),
                             f"{match.per_source_corr[ell]:.6f}", lc])
            inputs[f"fit_{index}"] = fit_dir
        write_table(os.path.join(args.out, "match.csv"),
                    ["fit", "source", "matched", "sign", "source_corr",
                     "loading_corr"], rows)

    if args.bootstrap:
        if not args.data:
            raise ValidationError("missing_data",
                                  "--bootstrap needs --data to refit from")
        dataset = load_dataset(args.data, format=args.format,
                               fisher=args.fisher)
        q = truth.shape[0]
        methods = args.method or ["locus"]
        rows = []
        for method in methods:
            boot = bootstrap_replicates(dataset,
                                        _bootstrap_fit_fn(method, q, args),
                                        args.bootstrap, seed=args.seed)
            if boot.n_success < 2:
                raise DegeneracyError("bootstrap_failed",
                                      f"{method}: only {boot.n_success} "
                                      "replicates succeeded")
            pearson = reliability_report(truth, boot.estimates, "pearson")
            jaccard = reliability_report(truth, boot.estimates, "jaccard",
                                         args.top_fraction)
            rows.extend([method, ell + 1, f"{pearson.per_source_ri[ell]:.6f}",
                         f"{jaccard.per_source_ri[ell]:.6f}",
                         boot.n_success, args.bootstrap] for ell in range(q))
        write_table(os.path.join(args.out, "reliability.csv"),
                    ["method", "source", "ri_pearson", "ri_jaccard",
                     "n_success", "B"], rows)
        inputs["data"] = args.data

    write_manifest(args.out, args, inputs=inputs)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locus",
        description="Sparse low-rank source separation for connectivity matrices")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--scenario", choices=CHOICES["scenario"], default="I")
    sim.add_argument("--V", type=int, default=50)
    sim.add_argument("--q", type=int, default=3)
    sim.add_argument("--N", type=int, default=100)
    sim.add_argument("--sigma", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    dec = sub.add_parser("decompose", help="fit a decomposition to a dataset")
    dec.add_argument("data", help="edge CSV file or directory of square CSVs")
    dec.add_argument("--method", choices=CHOICES["method"], default="locus")
    dec.add_argument("--q", type=int, required=True)
    dec.add_argument("--out", required=True)
    _add_solver_flags(dec)
    _add_data_flags(dec)
    dec.set_defaults(func=cmd_decompose)

    tun = sub.add_parser("tune", help="BIC grid search over (phi, rho)")
    tun.add_argument("data")
    tun.add_argument("--q", type=int, required=True)
    tun.add_argument("--phi-grid", type=_float_list, required=True,
                     dest="phi_grid", help="comma-separated phi values")
    tun.add_argument("--rho-grid", type=_float_list, required=True,
                     dest="rho_grid", help="comma-separated rho values")
    tun.add_argument("--out", required=True)
    _add_solver_flags(tun)
    _add_data_flags(tun)
    tun.set_defaults(func=cmd_tune)

    ev = sub.add_parser("evaluate",
                        help="score fits against a truth directory")
    ev.add_argument("fits", nargs="*", help="fit directories to score")
    ev.add_argument("--truth", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--bootstrap", type=int, default=0,
                    help="number of bootstrap refits for reliability")
    ev.add_argument("--data", help="dataset to resample when bootstrapping")
    ev.add_argument("--method", action="append",
                    choices=CHOICES["method"],
                    help="method(s) to bootstrap (repeatable)")
    ev.add_argument("--top-fraction", type=float, default=0.01,
                    dest="top_fraction",
                    help="Jaccard support size as a fraction of edges")
    _add_solver_flags(ev)
    _add_data_flags(ev)
    ev.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            _apply_config(args, argv)
        return args.func(args)
    except (ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except LocusError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
