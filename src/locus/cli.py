"""Command-line interface: simulate | decompose | tune | evaluate.

Every command writes its artifacts plus a ``manifest`` key=value file
(command, every option of the subcommand, input hashes, version,
timestamp).  Data outputs are byte-identical across reruns with the same
arguments; the manifest's timestamp line is the one exception.

Exit codes: 0 success, 2 usage, 3 validation, 4 numeric/degeneracy.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .baselines import fastica
from .connmat import load_dataset, read_csv, save_dataset, unvectorize, write_csv
from .errors import DegeneracyError, DimensionError, LocusError, ValidationError
from .evaluate import (DEFAULT_TOP_FRACTION, bootstrap_replicates,
                       check_top_fraction, match_sources, reliability_report)
from .modelsel import tune
from .preprocess import unmix_to_subject_space, whiten
from .solver import (SolverConfig, fit, load_decomposition, read_meta,
                     read_sources, save_decomposition, save_model, write_meta,
                     write_sources)
from .synth import SyntheticSpec, generate

SCENARIOS = {"I": "blocks_cross", "II": "triangle_circle_square",
             "blocks_cross": "blocks_cross",
             "triangle_circle_square": "triangle_circle_square"}
REGULARIZERS = {"uniform": "uniform_l1", "vector": "vector_l1",
                "nuclear": "nuclear"}


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _hash_input(path: str) -> str:
    """sha256 of a file, or of a directory's sorted files other than its
    manifest, whose timestamp and paths change from run to run."""
    if os.path.isdir(path):
        digest = hashlib.sha256()
        for name in sorted(os.listdir(path)):
            full = os.path.join(path, name)
            if name != "manifest" and os.path.isfile(full):
                digest.update(name.encode())
                digest.update(_sha256_file(full).encode())
        return digest.hexdigest()
    return _sha256_file(path)


def write_manifest(out_dir: str, args: argparse.Namespace,
                   inputs: dict | None = None) -> None:
    """Record the subcommand, every one of its options with the value it
    ran with (lists joined by commas) and a sha256 per input."""
    meta = {"command": args.command, "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
    for dest in sorted(_command_options(build_parser(), args.command)):
        value = getattr(args, dest)
        if isinstance(value, list):
            value = ",".join(map(str, value))
        meta[dest] = value
    for name, path in sorted((inputs or {}).items()):
        meta[f"input_{name}"] = path
        meta[f"input_{name}_sha256"] = _hash_input(path)
    write_meta(os.path.join(out_dir, "manifest"), meta)


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


def _config_flags(path: str, options: dict[str, argparse.Action]) -> list[str]:
    """The flags a key=value config file stands for.

    Keys name options by dest (``max_iter`` or ``max-iter``, but not both);
    other keys are skipped.  A switch takes 1/true/yes or 0/false/no, and a
    repeatable option a comma-separated list, one ``--flag=item`` per item."""
    flags, keys = [], {}
    for key, value in read_meta(path).items():
        action = options.get(key.replace("-", "_"))
        if action is None:
            continue
        if keys.setdefault(action.dest, key) != key:
            raise ValidationError("bad_config", f"config file {path!r}: "
                                  f"{keys[action.dest]!r} and {key!r} name one option")
        flag = action.option_strings[0]
        if action.nargs == 0:
            if value.lower() in ("1", "true", "yes"):
                flags.append(flag)
            elif value.lower() not in ("0", "false", "no"):
                raise ValidationError("bad_config",
                                      f"config file {path!r}: {key}={value!r} "
                                      "is not true/false, yes/no or 1/0")
        elif isinstance(action, argparse._AppendAction):
            flags += [f"{flag}={item.strip()}" for item in value.split(",")]
        else:
            flags.append(f"{flag}={value}")
    return flags


def _parse_with_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                       argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` again with the config file's flags right after the
    subcommand, so flags given on the command line win; a repeatable option
    given there keeps the command line's list.  Global options such as
    --log-level may come before the subcommand."""
    options = _command_options(parser, args.command)
    flags = _config_flags(args.config, options)
    at = argv.index(args.command) + 1
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            merged = parser.parse_args([*argv[:at], *flags, *argv[at:]])
    except SystemExit:
        reason = stderr.getvalue().partition(": error: ")[2].strip()
        raise ValidationError("bad_config",
                              f"config file {args.config!r}: {reason}") from None
    for dest, action in options.items():
        if isinstance(action, argparse._AppendAction) and getattr(args, dest):
            setattr(merged, dest, getattr(args, dest))
    return merged


def _solver_config(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(phi=args.phi, rho=args.rho, r_max=args.r_max,
                        eps1=args.eps1, eps2=args.eps2,
                        max_iter=args.max_iter,
                        regularizer=REGULARIZERS[args.regularizer],
                        seed=args.seed)


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    """The solver's settings, defaulting to :class:`SolverConfig`'s."""
    sub.add_argument("--phi", type=float, default=SolverConfig.phi,
                     help="sparsity weight (default %(default)s)")
    sub.add_argument("--rho", type=float, default=SolverConfig.rho,
                     help="rank-closeness level in (0,1) "
                          "(default %(default)s)")
    sub.add_argument("--r-max", type=int, default=SolverConfig.r_max,
                     dest="r_max",
                     help="per-source rank cap (default %(default)s)")
    sub.add_argument("--eps1", type=float, default=SolverConfig.eps1,
                     help="mixing-matrix stopping tolerance "
                          "(default %(default)s)")
    sub.add_argument("--eps2", type=float, default=SolverConfig.eps2,
                     help="source-matrix stopping tolerance "
                          "(default %(default)s)")
    sub.add_argument("--max-iter", type=int, default=SolverConfig.max_iter,
                     dest="max_iter", help="iteration cap (default %(default)s)")
    sub.add_argument("--regularizer", choices=sorted(REGULARIZERS),
                     default="uniform", help="penalty (default %(default)s)")
    sub.add_argument("--seed", type=int, default=SolverConfig.seed,
                     help="start seed (default %(default)s)")


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--fisher", action="store_true",
                     help="apply the Fisher-Z transform to input correlations")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _write_truth(out_dir: str, truth, node_count: int, spec: SyntheticSpec) -> None:
    truth_dir = os.path.join(out_dir, "truth")
    os.makedirs(truth_dir, exist_ok=True)
    write_sources(truth_dir, truth.sources, node_count)
    write_csv(os.path.join(truth_dir, "loadings.csv"), truth.loadings)
    write_meta(os.path.join(truth_dir, "spec"),
               {"V": node_count, "q": truth.sources.shape[0],
                "N": truth.loadings.shape[0], "sigma": truth.noise_sd,
                "scenario": spec.scenario, "seed": spec.seed})


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
    dataset = load_dataset(args.data, fisher=args.fisher)
    whitened = whiten(dataset, args.q)
    os.makedirs(args.out, exist_ok=True)

    if args.method == "locus":
        config = _solver_config(args)
        model = fit(whitened, args.q, config)
        save_model(model, args.out, config)
        sources = model.source_matrix()
    else:
        ica = fastica(whitened, args.q, max_iter=args.max_iter, seed=args.seed)
        loadings = unmix_to_subject_space(whitened, ica.sources)
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
    dataset = load_dataset(args.data, fisher=args.fisher)
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
    write_meta(os.path.join(args.out, "best"),
               {"phi": f"{best_cell.phi:.17g}", "rho": f"{best_cell.rho:.17g}",
                "bic": f"{best_cell.bic:.17g}"})
    write_manifest(args.out, args, inputs={"data": args.data})
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def _read_truth(truth_dir: str) -> tuple[np.ndarray, np.ndarray | None]:
    _, sources, _ = read_sources(truth_dir, "spec")
    loadings_path = os.path.join(truth_dir, "loadings.csv")
    loadings = read_csv(loadings_path) if os.path.isfile(loadings_path) else None
    if loadings is not None and loadings.shape[1] != sources.shape[0]:
        raise DimensionError("dimension_mismatch", f"{loadings_path} has "
                             f"{loadings.shape[1]} columns, expected q={sources.shape[0]}")
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
    # the Jaccard support size is checked on every call, before any refit
    check_top_fraction(args.top_fraction)
    truth, truth_loadings = _read_truth(args.truth)
    os.makedirs(args.out, exist_ok=True)
    inputs = {"truth": args.truth}
    failed = None

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
        dataset = load_dataset(args.data, fisher=args.fisher)
        q = truth.shape[0]
        methods = args.method or ["locus"]
        inputs["data"] = args.data
        rows, failures = [], []
        for method in methods:
            boot = bootstrap_replicates(dataset,
                                        _bootstrap_fit_fn(method, q, args),
                                        args.bootstrap, seed=args.seed)
            failures.extend([method, rep + 1, error]
                            for rep, error in boot.failures)
            if boot.n_success < 2:
                # the methods before it and the failure reasons are kept
                failed = DegeneracyError("bootstrap_failed",
                                         f"{method}: only {boot.n_success} "
                                         "replicates succeeded")
                break
            pearson = reliability_report(truth, boot.estimates, "pearson")
            jaccard = reliability_report(truth, boot.estimates, "jaccard",
                                         args.top_fraction)
            rows.extend([method, ell + 1, f"{pearson.per_source_ri[ell]:.6f}",
                         f"{jaccard.per_source_ri[ell]:.6f}",
                         boot.n_success, args.bootstrap] for ell in range(q))
        if rows:
            write_table(os.path.join(args.out, "reliability.csv"),
                        ["method", "source", "ri_pearson", "ri_jaccard",
                         "n_success", "B"], rows)
        write_table(os.path.join(args.out, "failures.csv"),
                    ["method", "replicate", "error"], failures)

    write_manifest(args.out, args, inputs=inputs)
    if failed is not None:
        raise failed
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locus",
        description="Sparse low-rank source separation for connectivity matrices")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--log-level", dest="log_level",
                        choices=["DEBUG", "INFO", "WARNING", "ERROR"],
                        help="log the library's messages at this level and "
                             "above to stderr (DEBUG: per-step rank checks "
                             "and node-sweep solves)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    sim.add_argument("--scenario", choices=sorted(SCENARIOS), default="I")
    sim.add_argument("--V", type=int, default=50)
    sim.add_argument("--q", type=int, default=3)
    sim.add_argument("--N", type=int, default=100)
    sim.add_argument("--sigma", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    dec = sub.add_parser("decompose", help="fit a decomposition to a dataset")
    dec.add_argument("data", help="edge CSV file or directory of square CSVs")
    dec.add_argument("--method", choices=["locus", "fastica"], default="locus")
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
                    choices=["locus", "fastica"],
                    help="method(s) to bootstrap (repeatable)")
    ev.add_argument("--top-fraction", type=float, default=DEFAULT_TOP_FRACTION,
                    dest="top_fraction",
                    help="Jaccard support size as a fraction of edges "
                         "(default %(default)s)")
    _add_solver_flags(ev)
    _add_data_flags(ev)
    ev.set_defaults(func=cmd_evaluate)

    for command in sub.choices.values():
        command.add_argument("--config", help="key=value file supplying "
                                              "defaults (explicit flags win)")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("locus").setLevel(args.log_level)
    try:
        if args.config:
            args = _parse_with_config(parser, args, argv)
        return args.func(args)
    except (ValidationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except LocusError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
