"""Command-line front end.

Subcommands: gram (kernel Gram matrix + PSD certificate + manifest),
enumerate (stream a table set to CSV), nw (corner-rule vertices),
psd-check (certify a weight matrix), ot (exact transport baseline).

Exit codes: 0 success / certificate passed, 1 input or validation error,
2 certificate failed, 3 budget exceeded (tables streamed by enumerate,
row compositions visited by the volume and transport folds).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from . import fileio
from .errors import BudgetExceededError, TransportKernelError, ValidationError
from .histograms import Histogram, Permutation
from .northwest import nw_kernel, nw_permuted, nw_table, sample_permutations
from .ot import ot_cost, pseudo_kernel
from .polytope import (
    DEFAULT_MAX_TABLES,
    EnumerationBudget,
    enumerate_tables,
    weighted_volume,
)
from .psd import build_gram, certify_psd, psd_weight_check

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CERT_FAIL = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class RunConfig:
    """Complete, serializable description of one CLI run."""

    subcommand: str
    input: str | None = None
    weights: str | None = None
    weights_mode: str | None = None
    kernel: str | None = None
    seed: int = 0
    r_size: int = 8
    budget: int = DEFAULT_MAX_TABLES
    tolerance: float = 1e-8
    out: str | None = None
    sigma: str | None = None
    sigma_p: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> RunConfig:
        unknown = sorted(set(payload) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValidationError(f"unknown run config keys: {', '.join(unknown)}")
        return cls(**payload)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transportkernels",
        description="Kernels between integral histograms via transportation tables",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, *names: str) -> None:
        if "input" in names:
            p.add_argument("--input", required=True, help="histogram file")
        if "weights" in names:
            p.add_argument("--weights", required=True, help="weight/cost matrix file")
            p.add_argument(
                "--weights-mode",
                choices=("cost", "weight"),
                default=None,
                help="how to read the matrix when the file has no mode header",
            )
        if "budget" in names:
            p.add_argument("--budget", type=int, default=DEFAULT_MAX_TABLES)
        if "tolerance" in names:
            p.add_argument("--tolerance", type=float, default=1e-8)
        if "out" in names:
            p.add_argument("--out", help="output directory")

    g = sub.add_parser("gram", help="build a kernel Gram matrix and certify it")
    add_common(g, "input", "weights", "budget", "tolerance", "out")
    g.add_argument("--kernel", choices=("volume", "nw", "pseudo"), required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--r-size", type=int, default=8, help="permutation set size")
    g.set_defaults(out_required=True)

    e = sub.add_parser("enumerate", help="stream all tables for one margin pair")
    add_common(e, "input", "budget", "out")
    e.set_defaults(out_required=True)

    n = sub.add_parser("nw", help="print the corner-rule vertex for one margin pair")
    add_common(n, "input", "out")
    n.add_argument("--sigma", help="row relabelling, comma-separated image")
    n.add_argument("--sigma-p", help="column relabelling, comma-separated image")

    p = sub.add_parser("psd-check", help="certify a weight matrix")
    add_common(p, "weights", "tolerance")

    o = sub.add_parser("ot", help="exact minimum transport cost")
    add_common(o, "input", "weights", "budget", "out")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = RunConfig.__dataclass_fields__
    payload = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    return RunConfig(**payload)


def _load_pair(config: RunConfig) -> tuple[Histogram, Histogram]:
    histograms = fileio.parse_histograms(config.input)
    if len(histograms) != 2:
        raise TransportKernelError(
            f"{config.input}: expected exactly two histograms (margins), "
            f"found {len(histograms)}"
        )
    return histograms[0], histograms[1]


def _out_dir(config: RunConfig) -> Path:
    if not config.out:
        raise TransportKernelError("--out directory is required for this subcommand")
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_permutation(text: str) -> Permutation:
    return Permutation(tuple(int(f.strip()) for f in text.split(",")))


def cmd_gram(config: RunConfig) -> int:
    histograms = fileio.parse_histograms(config.input)
    w = fileio.parse_weights(config.weights, config.weights_mode)
    budget = EnumerationBudget(config.budget)
    d = histograms[0].d
    if config.kernel == "volume":
        kernel = lambda a, b: weighted_volume(a, b, w, budget)
    elif config.kernel == "pseudo":
        kernel = lambda a, b: pseudo_kernel(a, b, w, budget)
    elif config.kernel == "nw":
        rset = sample_permutations(d, config.r_size, config.seed)
        kernel = lambda a, b: nw_kernel(a, b, w, rset)
    else:
        raise TransportKernelError(f"unknown kernel {config.kernel!r}")
    gram = build_gram(histograms, kernel, kernel_id=config.kernel)
    certificate = certify_psd(gram, config.tolerance)
    out = _out_dir(config)
    fileio.write_gram_csv(out / "gram.csv", gram.values)
    fileio.write_json(out / "certificate.json", certificate.to_dict())
    manifest = {
        "config": config.to_dict(),
        "kernel_id": gram.kernel_id,
        "dataset_hash": gram.dataset_hash,
        "certificate": certificate.to_dict(),
        "artifacts": ["gram.csv", "certificate.json"],
    }
    fileio.write_json(out / "manifest.json", manifest)
    print(f"gram: {gram.n}x{gram.n} {config.kernel} kernel, certificate {certificate.verdict}")
    return EXIT_OK if certificate.passed else EXIT_CERT_FAIL


def cmd_enumerate(config: RunConfig) -> int:
    r, c = _load_pair(config)
    budget = EnumerationBudget(config.budget)
    out = _out_dir(config)
    path = out / "tables.csv"
    written = 0
    with path.open("w") as fh:
        try:
            for table in enumerate_tables(r, c, budget):
                fh.write(fileio.format_table_row(table.entries) + "\n")
                written += 1
        except BudgetExceededError as exc:
            print(
                f"budget exceeded: wrote {exc.count_so_far} tables",
                file=sys.stderr,
            )
            return EXIT_BUDGET
    print(f"enumerate: wrote {written} tables to {path}")
    return EXIT_OK


def cmd_nw(config: RunConfig) -> int:
    r, c = _load_pair(config)
    if (config.sigma is None) != (config.sigma_p is None):
        raise TransportKernelError("--sigma and --sigma-p must be given together")
    if config.sigma is not None:
        sigma = _parse_permutation(config.sigma)
        sigma_p = _parse_permutation(config.sigma_p)
        table = nw_permuted(r, c, sigma, sigma_p)
    else:
        table = nw_table(r, c)
    lines = [",".join(str(v) for v in row) for row in table.entries]
    print("\n".join(lines))
    if config.out:
        out = _out_dir(config)
        (out / "nw.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_psd_check(config: RunConfig) -> int:
    w = fileio.parse_weights(config.weights, config.weights_mode)
    certificate = psd_weight_check(w, config.tolerance)
    print(
        f"psd-check: min eigenvalue {certificate.min_eigenvalue!r}, "
        f"verdict {certificate.verdict}"
    )
    return EXIT_OK if certificate.passed else EXIT_CERT_FAIL


def cmd_ot(config: RunConfig) -> int:
    r, c = _load_pair(config)
    w = fileio.parse_weights(config.weights, config.weights_mode)
    budget = EnumerationBudget(config.budget)
    solution = ot_cost(r, c, w, budget)
    payload = {
        "cost": solution.cost,
        "plan": [list(row) for row in solution.plan.entries],
    }
    print(f"ot: cost {solution.cost!r}")
    for row in solution.plan.entries:
        print(",".join(str(v) for v in row))
    if config.out:
        fileio.write_json(_out_dir(config) / "ot.json", payload)
    return EXIT_OK


_COMMANDS = {
    "gram": cmd_gram,
    "enumerate": cmd_enumerate,
    "nw": cmd_nw,
    "psd-check": cmd_psd_check,
    "ot": cmd_ot,
}


def run(config: RunConfig) -> int:
    """Execute a config programmatically; same dispatch as the CLI."""
    try:
        return _COMMANDS[config.subcommand](config)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except TransportKernelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def run_from_manifest(manifest_path: str | Path) -> int:
    """Re-execute the run recorded in a gram manifest."""
    try:
        config = RunConfig.from_dict(fileio.read_json(manifest_path)["config"])
    except ValidationError as exc:
        print(f"error: {manifest_path}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return run(config)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    return run(config_from_args(args))


def console_main() -> None:
    sys.exit(main())
