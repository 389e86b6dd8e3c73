"""Command-line front end.

Subcommands: gram (kernel Gram matrix + PSD certificate + manifest),
enumerate (stream a table set to CSV), nw (corner-rule vertices),
psd-check (certify a weight matrix), ot (exact transport baseline).

Exit codes: 0 success / certificate passed, 1 usage, input, validation
or operating-system error, 2 certificate failed, 3 budget exceeded (tables
streamed by enumerate; cell updates of a generating-polynomial
recurrence box, stacked over consecutive Gram rows, for gram --kernel
volume, and for ot and gram --kernel pseudo off Monge costs; merge keys
of the whole corner-rule stream for gram --kernel nw, and pseudo on
Monge costs). Every error a subcommand raises reaches one handler as
raised, which prints "error: <message>" and returns 1, or 3 for a
budget; enumerate's refusal keeps the tables already written.

`main` builds the parser of the invoked subcommand only, and the full
parser only when argv names none first or holds arguments it does not
recognize, so every usage message is the full parser's.

A gram run records in manifest.json, under "argv", its subcommand and
every parsed option as --name=value: a command line that
`run_from_manifest` replays through the same parser. --input, --weights
and --out are parsed to absolute paths, so the replay reads and writes
the same files from any working directory. The manifest also records
the SHA-256 of the bytes the run read and parsed from the --input and
--weights files, each read once, and a replay refuses files that
changed since the run; it parses the very bytes it checked.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from pathlib import Path
from typing import Callable, NoReturn

from . import fileio
from .errors import BudgetExceededError, TransportKernelError, ValidationError
from .histograms import Histogram, Permutation
from .northwest import (
    nw_kernel_pairs,
    nw_permuted,
    require_corner_stream,
    sample_permutations,
)
from .ot import ot_cost, pseudo_kernel_pairs
from .polytope import (
    DEFAULT_BUDGET,
    EnumerationBudget,
    enumerate_tables,
    require_family,
    weighted_volume_pairs,
)
from .psd import build_gram, certify_psd, psd_weight_check, require_tolerance

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CERT_FAIL = 2
EXIT_BUDGET = 3

# The files a gram run reads, by option, and the manifest key of each digest.
_DIGESTS = (("input", "input_sha256"), ("weights", "weights_sha256"))


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_ERROR on a usage error; exit 2 means a failed certificate."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _absolute_path(text: str) -> str:
    """Absolute, so a recorded argv replays from any working directory.

    Symlinks are kept. An empty path is refused rather than read as the
    working directory.
    """
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return os.path.abspath(text)


def _add_options(p: argparse.ArgumentParser, *names: str, out_required: bool = True) -> None:
    """Add the options shared between subcommands, those named, to p."""

    def add_path(flag: str, text: str, required: bool = True) -> None:
        p.add_argument(flag, type=_absolute_path, required=required, help=text)

    if "input" in names:
        add_path("--input", "histogram file")
    if "weights" in names:
        add_path("--weights", "weight/cost matrix file with a mode header")
    if "budget" in names:
        p.add_argument(
            "--budget",
            type=fileio.integer,
            default=DEFAULT_BUDGET,
            help="cap on the tables streamed by enumerate; on the cell updates of one "
            "recurrence box for gram (volume, and pseudo off Monge costs) and ot: one "
            "stacked box per run of Gram rows, its height times its cells times its "
            "passes; on the merge keys of the whole corner-rule stream for gram (nw, "
            "and pseudo on Monge costs): pairs times |R|^2 times 2d",
        )
    if "tolerance" in names:
        p.add_argument("--tolerance", type=fileio.real, default=1e-8)
    if "out" in names:
        add_path("--out", "output directory", out_required)


def _add_gram(p: argparse.ArgumentParser) -> None:
    _add_options(p, "input", "weights", "budget", "tolerance", "out")
    p.add_argument("--kernel", choices=("volume", "nw", "pseudo"), required=True)
    p.add_argument("--seed", type=fileio.integer, default=0)
    size = "permutation set size, at most d! for d bins: the default 8 needs d >= 4"
    p.add_argument("--r-size", type=fileio.integer, default=8, help=size)


def _add_nw(p: argparse.ArgumentParser) -> None:
    _add_options(p, "input", "out", out_required=False)
    p.add_argument("--sigma", help="row relabelling, comma-separated image")
    p.add_argument("--sigma-p", help="column relabelling, comma-separated image")


def _parser(only: str | None = None) -> argparse.ArgumentParser:
    """The command line's parser; given `only`, it holds that one subcommand."""
    parser = _Parser(
        prog="transportkernels",
        description="Kernels between integral histograms via transportation tables",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, add, _) in _SUBCOMMANDS.items():
        if only in (None, name):
            add(sub.add_parser(name, help=text))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse argv, building only the subcommand argv[0] names when it names one.

    Everything after a subcommand is parsed by that subcommand's parser
    alone, so the one-subcommand parser prints and returns what the full
    parser does, except the error on unrecognized arguments, which shows
    the top-level usage; that case is reparsed by the full parser.
    """
    if argv[:1] and argv[0] in _SUBCOMMANDS:
        args, unrecognized = _parser(argv[0]).parse_known_args(argv)
        if not unrecognized:
            return args
    return _parser().parse_args(argv)


def _load_pair(args: argparse.Namespace) -> tuple[Histogram, Histogram]:
    histograms = fileio.parse_histograms(args.input)
    if len(histograms) != 2:
        raise TransportKernelError(
            f"{args.input}: expected exactly two histograms (margins), "
            f"found {len(histograms)}"
        )
    return histograms[0], histograms[1]


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_permutation(flag: str, text: str) -> Permutation:
    # a field that is not an integer, then an image that is not a permutation
    try:
        return Permutation(tuple(map(fileio.integer, text.split(","))))
    except ValueError as exc:
        raise ValidationError(f"{flag}: {exc}") from None


def cmd_gram(args: argparse.Namespace, data: dict[str, bytes] | None = None) -> int:
    """`data`, when given, holds the --input and --weights bytes already read."""
    # Fail on arguments before the Gram and its certificate are computed.
    require_tolerance(args.tolerance)
    # Each file is read once: the digests are of the very bytes parsed.
    if data is None:
        data = {name: fileio.read_bytes(getattr(args, name)) for name, _ in _DIGESTS}
    histograms = fileio.parse_histograms(args.input, data["input"])
    w = fileio.parse_weights(args.weights, data["weights"])
    digests = {key: hashlib.sha256(data[name]).hexdigest() for name, key in _DIGESTS}
    budget = EnumerationBudget(args.budget)
    if args.kernel == "volume":
        kernel = lambda hs, pairs: weighted_volume_pairs(hs, pairs, w, budget)
    elif args.kernel == "pseudo":
        kernel = lambda hs, pairs: pseudo_kernel_pairs(hs, pairs, w, budget)
    else:  # nw; the parser admits no other kernel
        # Refuse the family and the stream before drawing the permutations; a
        # size below 1 draws none, and sample_permutations refuses it.
        require_family(histograms, w)
        m, d, mass = len(histograms), histograms[0].d, histograms[0].mass
        require_corner_stream(m * (m + 1) // 2, max(args.r_size, 0), d, mass, budget)
        rset = sample_permutations(d, args.r_size, args.seed)
        kernel = lambda hs, pairs: nw_kernel_pairs(hs, pairs, w, rset, budget)
    gram = build_gram(histograms, kernel)
    certificate = certify_psd(gram, args.tolerance)
    out = _out_dir(args)
    fileio.write_gram_csv(out / "gram.csv", gram.values)
    fileio.write_json(out / "certificate.json", certificate.to_dict())
    manifest = {
        "argv": _recorded_argv(args),
        **digests,
        "kernel_id": args.kernel,
        "certificate": certificate.to_dict(),
        "artifacts": ["gram.csv", "certificate.json"],
    }
    fileio.write_json(out / "manifest.json", manifest)
    print(f"gram: {gram.n}x{gram.n} {args.kernel} kernel, certificate {certificate.verdict}")
    return EXIT_OK if certificate.passed else EXIT_CERT_FAIL


def cmd_enumerate(args: argparse.Namespace) -> int:
    r, c = _load_pair(args)
    # Checks the pair before the output directory is made.
    tables = enumerate_tables(r, c, EnumerationBudget(args.budget))
    path = _out_dir(args) / "tables.csv"
    written = 0
    # A refusal leaves the tables within the budget in the file.
    with path.open("w") as fh:
        for table in tables:
            fh.write(",".join(str(v) for row in table.entries for v in row) + "\n")
            written += 1
    print(f"enumerate: wrote {written} tables to {path}")
    return EXIT_OK


def cmd_nw(args: argparse.Namespace) -> int:
    r, c = _load_pair(args)
    if (args.sigma is None) != (args.sigma_p is None):
        raise TransportKernelError("--sigma and --sigma-p must be given together")
    sigma = sigma_p = Permutation.identity(r.d)
    if args.sigma is not None:
        sigma = _parse_permutation("--sigma", args.sigma)
        sigma_p = _parse_permutation("--sigma-p", args.sigma_p)
    table = nw_permuted(r, c, sigma, sigma_p)
    lines = [",".join(str(v) for v in row) for row in table.entries]
    print("\n".join(lines))
    if args.out:
        out = _out_dir(args)
        (out / "nw.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_psd_check(args: argparse.Namespace) -> int:
    w = fileio.parse_weights(args.weights)
    certificate = psd_weight_check(w, args.tolerance)
    print(
        f"psd-check: min eigenvalue {certificate.min_eigenvalue!r}, "
        f"verdict {certificate.verdict}"
    )
    return EXIT_OK if certificate.passed else EXIT_CERT_FAIL


def cmd_ot(args: argparse.Namespace) -> int:
    r, c = _load_pair(args)
    w = fileio.parse_weights(args.weights)
    budget = EnumerationBudget(args.budget)
    solution = ot_cost(r, c, w, budget)
    payload = {
        # JSON has no infinity: when every table costs +inf, the cost is null.
        "cost": solution.cost if math.isfinite(solution.cost) else None,
        "plan": [list(row) for row in solution.plan.entries],
    }
    print(f"ot: cost {solution.cost!r}")
    for row in solution.plan.entries:
        print(",".join(str(v) for v in row))
    if args.out:
        fileio.write_json(_out_dir(args) / "ot.json", payload)
    return EXIT_OK


# Each subcommand's help, the function that adds its options and the
# function that runs it, in the order the usage lists them.
_SUBCOMMANDS = {
    "gram": ("build a kernel Gram matrix and certify it", _add_gram, cmd_gram),
    "enumerate": (
        "stream all tables for one margin pair",
        lambda p: _add_options(p, "input", "budget", "out"),
        cmd_enumerate,
    ),
    "nw": ("print the corner-rule vertex for one margin pair", _add_nw, cmd_nw),
    "psd-check": (
        "certify a weight matrix",
        lambda p: _add_options(p, "weights", "tolerance"),
        cmd_psd_check,
    ),
    "ot": (
        "exact minimum transport cost",
        lambda p: _add_options(p, "input", "weights", "budget", "out", out_required=False),
        cmd_ot,
    ),
}


def _recorded_argv(args: argparse.Namespace) -> list[str]:
    """The subcommand, then --name=value for each parsed option that is not None.

    Each option's dest is its flag with - read as _. The = form keeps a
    value such as -1 one token, so the list parses back to the same run.
    """
    return [args.subcommand] + [
        f"--{name.replace('_', '-')}={value}"
        for name, value in vars(args).items()
        if name != "subcommand" and value is not None
    ]


def _read_manifest(manifest_path: str | Path) -> dict:
    try:
        manifest = fileio.read_json(manifest_path)
    except OSError as exc:
        raise ValidationError(f"cannot read manifest: {exc.strerror}") from None
    except ValueError as exc:
        raise ValidationError(f"manifest is not JSON: {exc}") from None
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not isinstance(argv, list) or not all(isinstance(token, str) for token in argv):
        raise ValidationError("manifest has no 'argv' list of strings")
    return manifest


def _check_inputs(manifest: dict, args: argparse.Namespace) -> dict[str, bytes]:
    """The input files' bytes; refuses a replay where they differ from the run's."""
    if args.subcommand != "gram":
        raise ValidationError("manifest 'argv' is not a gram run")
    data = {}
    for name, key in _DIGESTS:
        if not isinstance(manifest.get(key), str):
            raise ValidationError(f"manifest has no '{key}' string")
        path = getattr(args, name)
        try:
            data[name] = Path(path).read_bytes()
            unchanged = hashlib.sha256(data[name]).hexdigest() == manifest[key]
        except OSError:
            unchanged = False
        if not unchanged:
            raise ValidationError(f"{path} changed since the run")
    return data


def run_from_manifest(manifest_path: str | Path) -> int:
    """Re-execute the run recorded in a gram manifest through `main`.

    A manifest that cannot be read, is not JSON or holds no 'argv' list
    of strings prints "error: <path>: ..." and returns EXIT_ERROR. An
    argument list the parser refuses prints the parser's usage and
    "error:" line and returns its exit code, EXIT_ERROR. Before the run,
    the SHA-256 of the --input and --weights files must equal the
    manifest's 'input_sha256' and 'weights_sha256'; a manifest without
    them, or a file that no longer matches ("<file> changed since the
    run"), prints "error: <path>: ..." and returns EXIT_ERROR without
    writing any artifact.
    """
    try:
        manifest = _read_manifest(manifest_path)
        args = _parse_args(manifest["argv"])
        data = _check_inputs(manifest, args)
    except ValidationError as exc:
        print(f"error: {manifest_path}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SystemExit as exc:
        return exc.code
    return _run(lambda: cmd_gram(args, data))


def main(argv: list[str] | None = None) -> int:
    """Parse argv (sys.argv[1:] when None) and run its subcommand.

    Returns the exit code; a usage error exits through SystemExit. An
    input, validation or operating-system error prints "error: ..." and
    returns EXIT_ERROR; a budget refusal prints it and returns EXIT_BUDGET.
    """
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    return _run(lambda: _SUBCOMMANDS[args.subcommand][2](args))


def _run(command: Callable[[], int]) -> int:
    """Run a subcommand; this is the one place its errors are printed and mapped to a code."""
    try:
        return command()
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (TransportKernelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
