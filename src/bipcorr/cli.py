"""Command-line front end: compute, oracle, crosscheck, simulate.

Every subcommand is a pure function of its flags and input files: fixed seeds
give byte-identical output bytes, including JSON key order, and the bytes of
``simulate``, the only subcommand with a ``--threads`` flag, do not depend on
its value.  Exit codes: 0 success, 1 crosscheck mismatch, 2 config
error, 3 insufficient moments, 4 enumeration cap exceeded.

Numeric flags accept rational text ("1/3", "5/2").  Moments come from a
preset (``rademacher``, ``constant:c``, ``gaussian:s``) or a JSON file with
an ``even_moments`` list.  Values are printed as exact rationals unless
``--decimal N`` asks for N significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from . import __version__, families as fam, model, walks
from .rational import format_scalar, parse_scalar, to_decimal
from .recurrence import CoefficientEngine

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_MOMENTS = 3
EXIT_CAP = 4

DEFAULT_ENUM_CAP = 12


class _CliError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipcorr",
        description="Correlator coefficients of sparse bipartite random matrix moments",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, moments: bool = True) -> None:
        p.add_argument("--alpha", default="1/2", help="part-1 fraction, rational text")
        p.add_argument("--p", default="1", help="sparsity parameter, rational text")
        if moments:
            p.add_argument("--moments", default=None, help="moments preset name")
            p.add_argument("--moments-file", default=None, help="JSON moments file")
        p.add_argument("--output", default="-", help="output path, '-' for stdout")

    p_compute = sub.add_parser("compute", help="evaluate coefficients via the recurrence engine")
    add_common(p_compute)
    p_compute.add_argument("--k", type=int, default=None)
    p_compute.add_argument("--m", type=int, default=None)
    p_compute.add_argument("--kmax", type=int, default=None)
    p_compute.add_argument("--mmax", type=int, default=None)
    p_compute.add_argument("--format", choices=("csv", "json"), default="csv")
    p_compute.add_argument("--decimal", type=int, default=None, metavar="DIGITS")

    p_oracle = sub.add_parser("oracle", help="evaluate one coefficient by enumeration")
    add_common(p_oracle)
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--m", type=int, required=True)
    p_oracle.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP, help="max k+m to enumerate")
    p_oracle.add_argument("--dump", action="store_true", help="also list essential walks")

    p_cross = sub.add_parser("crosscheck", help="compare engine against oracle")
    add_common(p_cross)
    p_cross.add_argument("--max-total", type=int, default=8, help="check even (k,m) with k+m <= this")
    p_cross.add_argument(
        "--family-total",
        type=int,
        default=None,
        help="check families with l_g+l_b <= this (default max-total/2)",
    )
    p_cross.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)

    p_sim = sub.add_parser("simulate", help="Monte Carlo correlator at finite N")
    # The sampler draws weights from --dist, so moment flags do not apply.
    add_common(p_sim, moments=False)
    # Checked in _cmd_simulate, not by ``choices``: a choices check would
    # reject the value of an unknown flag taken as the mode, and hide the flag.
    p_sim.add_argument("mode", nargs="?", default=None, metavar="{sweep}",
                       help="'sweep' emits a CSV convergence log over --n values")
    p_sim.add_argument("--n", required=True, help="matrix size, or comma list for a sweep")
    p_sim.add_argument("--k", type=int, required=True)
    p_sim.add_argument("--m", type=int, required=True)
    p_sim.add_argument("--samples", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--batches", type=int, default=20)
    p_sim.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker threads; the output does not depend on the thread count",
    )
    p_sim.add_argument("--dist", default="rademacher", help="weight distribution spec")
    return parser


# ---------------------------------------------------------------------------
# Shared plumbing


def _emit(args, text: str) -> None:
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(EXIT_CONFIG, f"cannot write output file: {exc}")


def _params(args) -> model.ModelParams:
    try:
        return model.ModelParams(parse_scalar(args.alpha), parse_scalar(args.p))
    except ValueError as exc:
        raise _CliError(EXIT_CONFIG, str(exc))


def _context(args, needed_order: int):
    """(params, moments) from flags; presets expand to the needed order."""
    params = _params(args)
    if args.moments is not None and args.moments_file is not None:
        raise _CliError(EXIT_CONFIG, "give either --moments or --moments-file, not both")
    try:
        if args.moments_file is not None:
            moments = model.load_moments_file(args.moments_file)
        else:
            preset = args.moments if args.moments is not None else "rademacher"
            moments = model.moments_preset(preset, needed_order // 2)
    except OSError as exc:
        raise _CliError(EXIT_CONFIG, f"cannot read moments file: {exc}")
    except ValueError as exc:
        raise _CliError(EXIT_CONFIG, str(exc))
    return params, moments


def _render(value, decimal_digits) -> str:
    if decimal_digits is not None:
        return to_decimal(value, decimal_digits)
    return format_scalar(value)


def _needed_order(k_list) -> int:
    orders = [model.required_moment_order(k, m) for k, m in k_list]
    return max(orders) if orders else 0


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_compute(args) -> int:
    pair_mode = args.k is not None or args.m is not None
    table_mode = args.kmax is not None or args.mmax is not None
    if pair_mode == table_mode:
        raise _CliError(EXIT_CONFIG, "give either --k/--m or --kmax/--mmax")
    if pair_mode and (args.k is None or args.m is None or args.k < 1 or args.m < 1):
        raise _CliError(EXIT_CONFIG, "--k and --m must both be given and >= 1")
    if table_mode and (args.kmax is None or args.mmax is None or args.kmax < 1 or args.mmax < 1):
        raise _CliError(EXIT_CONFIG, "--kmax and --mmax must both be given and >= 1")
    if args.decimal is not None and args.decimal < 1:
        raise _CliError(EXIT_CONFIG, "--decimal needs at least 1 digit")

    if pair_mode:
        pairs = [(args.k, args.m)]
    else:
        pairs = [(k, m) for k in range(1, args.kmax + 1) for m in range(1, args.mmax + 1)]
    params, moments = _context(args, _needed_order(pairs))
    engine = CoefficientEngine(params, moments)
    values = {pair: engine.correlator_coefficient(*pair) for pair in pairs}

    if pair_mode and args.format == "csv":
        text = _render(values[pairs[0]], args.decimal) + "\n"
    elif args.format == "csv":
        lines = ["k/m," + ",".join(str(m) for m in range(1, args.mmax + 1))]
        for k in range(1, args.kmax + 1):
            cells = [_render(values[(k, m)], args.decimal) for m in range(1, args.mmax + 1)]
            lines.append(f"{k}," + ",".join(cells))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "alpha": format_scalar(params.alpha),
            "p": format_scalar(params.p),
            "entries": [
                {"k": k, "m": m, "value": _render(values[(k, m)], args.decimal)}
                for (k, m) in pairs
            ],
            "engine_version": __version__,
        }
        text = json.dumps(payload, indent=2) + "\n"
    _emit(args, text)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.k < 1 or args.m < 1:
        raise _CliError(EXIT_CONFIG, f"need k, m >= 1, got ({args.k}, {args.m})")
    if args.k + args.m > args.cap:
        raise _CliError(
            EXIT_CAP,
            f"enumeration cap exceeded: k+m = {args.k + args.m} > cap {args.cap}",
        )
    params, moments = _context(args, _needed_order([(args.k, args.m)]))
    model.validate(params, moments, args.k, args.m)
    value = walks.n_oracle(args.k, args.m, params, moments)
    minimal, essential = walks.census(args.k, args.m)
    payload = {
        "k": args.k,
        "m": args.m,
        "alpha": format_scalar(params.alpha),
        "p": format_scalar(params.p),
        "value": format_scalar(value),
        "census": {"minimal": minimal, "essential": essential},
    }
    if args.dump:
        payload["walks"] = walks.essential_pair_lines(args.k, args.m)
    _emit(args, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def run_crosscheck(engine: CoefficientEngine, max_total: int, family_total: int):
    """Compare engine and oracle values; returns (mismatches, lines).

    ``mismatches`` is a list of (description, engine value, oracle value);
    the report lines include every comparison group and any offenders.
    Separated from the subcommand so tests can drive it with a tampered
    engine.
    """
    params, moments = engine.params, engine.moments
    mismatches = []
    pair_count = 0
    for k in range(2, max_total - 1, 2):
        for m in range(2, max_total - k + 1, 2):
            pair_count += 1
            got = engine.correlator_coefficient(k, m)
            want = walks.n_oracle(k, m, params, moments)
            if got != want:
                mismatches.append((f"coefficient ({k},{m})", got, want))
    family_count = 0
    for tag in sorted(fam.DOUBLE_TAGS) + [fam.TOP]:
        for component in (1, 2) if tag != fam.TOP else (None,):
            for l_g in range(0, family_total + 1):
                for l_b in range(0, family_total - l_g + 1):
                    if tag == fam.TOP:
                        keys = [fam.top_key(l_g, l_b)]
                    else:
                        keys = [
                            fam.double_key(tag, component, l_g, l_b, r_g, r_b)
                            for r_g in range(0, l_g + 1)
                            for r_b in range(0, l_b + 1)
                        ]
                    for key in keys:
                        family_count += 1
                        got = engine.s_value(key)
                        want = walks.family_total_weight(key, params, moments)
                        if got != want:
                            mismatches.append((f"family {key}", got, want))
    for tag in sorted(fam.SINGLE_TAGS):
        for component in (1, 2):
            for l in range(0, family_total + 2):
                for r in range(0, l + 1):
                    key = fam.single_key(tag, component, l, r)
                    family_count += 1
                    got = engine.s_value(key)
                    want = walks.family_total_weight(key, params, moments)
                    if got != want:
                        mismatches.append((f"family {key}", got, want))

    lines = [
        f"alpha={format_scalar(params.alpha)} p={format_scalar(params.p)}",
        f"coefficient pairs checked: {pair_count}",
        f"family keys checked: {family_count}",
    ]
    for description, got, want in mismatches:
        lines.append(
            f"MISMATCH {description}: engine={format_scalar(got)} oracle={format_scalar(want)}"
        )
    lines.append("FAIL" if mismatches else "OK")
    return mismatches, lines


def _cmd_crosscheck(args) -> int:
    if args.max_total < 0:
        raise _CliError(EXIT_CONFIG, f"--max-total must be >= 0, got {args.max_total}")
    if args.family_total is not None and args.family_total < 0:
        raise _CliError(EXIT_CONFIG, f"--family-total must be >= 0, got {args.family_total}")
    family_total = args.family_total if args.family_total is not None else args.max_total // 2
    if args.max_total > args.cap:
        raise _CliError(
            EXIT_CAP,
            f"enumeration cap exceeded: max-total {args.max_total} > cap {args.cap}",
        )
    if 2 * family_total > args.cap:
        raise _CliError(
            EXIT_CAP,
            f"enumeration cap exceeded: family walks need k+m = {2 * family_total} > cap {args.cap}",
        )
    needed = max(args.max_total, 2 * family_total + 2)
    needed += needed % 2
    params, moments = _context(args, needed)
    # Checked before any pair: with no coefficient pair to check, nothing
    # else would check them.  Odd indices need no moments.
    model.validate(params, moments, 1, 1)
    moments.require(needed)
    engine = CoefficientEngine(params, moments)
    mismatches, lines = run_crosscheck(engine, args.max_total, family_total)
    _emit(args, "\n".join(lines) + "\n")
    if mismatches:
        description, got, want = mismatches[0]
        sys.stderr.write(
            f"crosscheck failed first at {description}: "
            f"engine={format_scalar(got)} oracle={format_scalar(want)}\n"
        )
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_simulate(args) -> int:
    # Imported here so that numpy loads only for the sampler.
    from .simulate import EnsembleSpec, WeightDistribution, estimate_correlators

    if args.mode not in (None, "sweep"):
        raise _CliError(
            EXIT_CONFIG, f"unknown simulate mode {args.mode!r}; the only mode is 'sweep'"
        )
    try:
        sizes = [int(chunk) for chunk in str(args.n).split(",") if chunk != ""]
    except ValueError:
        raise _CliError(EXIT_CONFIG, f"bad --n value: {args.n!r}")
    if not sizes:
        raise _CliError(EXIT_CONFIG, "--n needs at least one matrix size")
    sweep = args.mode == "sweep" or len(sizes) > 1
    params = _params(args)
    try:
        dist = WeightDistribution(args.dist)
    except ValueError as exc:
        raise _CliError(EXIT_CONFIG, str(exc))

    records = []
    for size in sizes:
        spec = EnsembleSpec(size, params, dist, args.seed)
        try:
            est = estimate_correlators(
                spec,
                [(args.k, args.m)],
                args.samples,
                batches=args.batches,
                threads=args.threads,
            )[0]
        except ValueError as exc:
            raise _CliError(EXIT_CONFIG, str(exc))
        except OverflowError as exc:
            raise _CliError(EXIT_CONFIG, f"N = {size} is too large for the sampler: {exc}")
        # NaN or infinity would print as invalid JSON or as "nan" in the CSV.
        if not (math.isfinite(est.mean) and math.isfinite(est.stderr)):
            raise _CliError(
                EXIT_CONFIG,
                f"estimate of N * Cov(M_{est.k}, M_{est.m}) at N = {size} is not finite:"
                " the weights overflow float arithmetic",
            )
        records.append((size, est))

    if sweep:
        lines = ["N,k,m,samples,batches,seed,mean,stderr"]
        for size, est in records:
            lines.append(
                f"{size},{est.k},{est.m},{est.samples},{est.batches},"
                f"{args.seed},{est.mean!r},{est.stderr!r}"
            )
        _emit(args, "\n".join(lines) + "\n")
    else:
        size, est = records[0]
        payload = {
            "N": size,
            "alpha": format_scalar(params.alpha),
            "p": format_scalar(params.p),
            "dist": args.dist,
            "k": est.k,
            "m": est.m,
            "samples": est.samples,
            "seed": args.seed,
            "mean": est.mean,
            "stderr": est.stderr,
            "batches": est.batches,
            "engine_version": __version__,
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


_HANDLERS = {
    "compute": _cmd_compute,
    "oracle": _cmd_oracle,
    "crosscheck": _cmd_crosscheck,
    "simulate": _cmd_simulate,
}


def main(argv: Optional[Sequence] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except model.InsufficientMomentsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MOMENTS
    except model.InvalidParamsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
