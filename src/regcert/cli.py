"""The regcert command line tool.

Subcommands: kernel, reg, lex, gtable, and verify {regflat, poweli,
regbound, main}.  Each takes only the flags its handler reads (COMMANDS);
any other flag is a usage error.  Exit codes: 0 all checks pass, 1 at
least one failure, 2 inconclusive (a cutoff below the Gotzmann bound, or
out of memory, which proves nothing either way), 64 usage error.
"""

import argparse
import io
import json
import sys

from .groebner import Parametrisation, kernel_of_map
from .monomials import compute_G, g_cap
from .parser import format_monomial, format_polynomial, parse_ideal_file
from .reports import FAIL, INCONCLUSIVE, PASS
from .resolution import regularity
from .rings import BlockOrder, LexOrder
from .scalars import check_characteristic
from .verify import (lex_ideal_of_presentation, verify_main,
                     verify_main_trials, verify_poweli_trials,
                     verify_regbound, verify_regbound_trials, verify_regflat)

EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_USAGE = 0, 1, 2, 64
TRIALS, SEED = 5, 0


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _positive(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, not {text!r}")
    return int(text)


def _characteristic(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected a characteristic, not {text!r}")
    try:
        return check_characteristic(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _range(text):
    """'2' -> [2]; '1..3' -> [1, 2, 3]; an empty range is an error."""
    lo, sep, hi = text.partition("..")
    try:
        values = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected N or LO..HI with LO <= HI, not {text!r}")
    return values


def _load(args, flag):
    """Parse the file of --ideal or --param at the field of --char; returns
    (ideal or parametrisation, order of the file's order clause)."""
    with open(getattr(args, flag), encoding="utf-8") as fh:
        _, obj, order = parse_ideal_file(fh.read(), char=args.char)
    if isinstance(obj, Parametrisation) != (flag == "param"):
        kind = "a parametrisation" if flag == "param" else "an ideal"
        raise _Usage(f"--{flag} expects {kind} file")
    return obj, order


def _trials(args):
    """(trials, seed) of the seeded random instance stream."""
    return (TRIALS if args.trials is None else args.trials,
            SEED if args.seed is None else args.seed)


def _not_with(args, names, reason):
    """Usage error for flags this mode of a command does not read."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise _Usage(f"{', '.join(given)} not used {reason}")


def _check_printable(n, d, m, less, name):
    """Usage error when name, d^e with e = n 2^(m-1) - less, has more than
    the limit digits Python converts to a string.  d^e >= 2^(e (b - 1)),
    b the bit length of d, and 2^4 > 10: so e (b - 1) > 4 limit is too
    long without building d^e, and m - 1 past the bit length of 4 limit
    without building 2^(m-1)."""
    limit = sys.get_int_max_str_digits()
    if limit and min(n, d - 1, m) > 0 and (
            m - 1 > (4 * limit).bit_length()
            or (e := n * 2 ** (m - 1) - less) * (d.bit_length() - 1)
            > 4 * limit or d ** e >= 10 ** limit):
        raise _Usage(f"{name} d^(n*2^(m-1){'-1' if less else ''}) at n={n}, "
                     f"d={d}, m={m} has more than {limit} digits, the most "
                     f"Python converts to a string")


def _emit(report, args, out):
    if args.json:
        print(report.to_json(), file=out)
    else:
        print(f"check: {report.check_name}", file=out)
        print(f"status: {report.status}", file=out)
        for inst in sorted(report.instances, key=lambda i: i.digest):
            line = f"  [{inst.digest}] " + ", ".join(
                f"{k}={v}" for k, v in inst.values.items()
                if not isinstance(v, list))
            print(line, file=out)
            if inst.witness is not None:
                print(f"    witness: {inst.witness}", file=out)
        for item in report.inconclusive_reasons:
            print(f"  inconclusive [{item['digest']}]: {item['reason']}",
                  file=out)
    return {PASS: EXIT_PASS, FAIL: EXIT_FAIL,
            INCONCLUSIVE: EXIT_INCONCLUSIVE}[report.status]


def cmd_kernel(args, out):
    param, _ = _load(args, "param")
    # elim keeps the n x variables
    order = BlockOrder(param.n) if args.order == "elim" else LexOrder()
    G = kernel_of_map(param, order=order)
    gens = [format_polynomial(g) for g in G.generators]
    if args.json:
        print(json.dumps({"ring": list(G.ring.names), "kernel": gens},
                         indent=2), file=out)
    else:
        if not gens:
            print("kernel: (0)", file=out)
        else:
            print("kernel:", file=out)
            for g in gens:
                print(f"  {g}", file=out)
    return EXIT_PASS


def cmd_reg(args, out):
    J, _ = _load(args, "ideal")
    r = regularity(J)
    if args.json:
        print(json.dumps({"regularity": r, "field": J.ring.char}), file=out)
    else:
        print(f"regularity: {r}", file=out)
    return EXIT_PASS


def cmd_lex(args, out):
    J, _ = _load(args, "ideal")
    if not J.homogeneous:
        raise _Usage("lex requires a homogeneous ideal")
    L, complete = lex_ideal_of_presentation(J, args.cutoff)
    gens = [format_monomial(J.ring, m) for m in L.gens]
    if args.json:
        print(json.dumps({"lex_generators": gens, "complete": complete},
                         indent=2), file=out)
    else:
        status = "" if complete else f" (truncated at degree {args.cutoff})"
        print(f"lex segment ideal{status}:", file=out)
        for g in gens:
            print(f"  {g}", file=out)
    return EXIT_PASS if complete else EXIT_INCONCLUSIVE


def cmd_gtable(args, out):
    shapes = [(n, d, m) for n in args.n for d in args.d for m in args.m]
    for n, d, m in shapes:
        _check_printable(n, d, m, 0, "the cap")
    rows = [{"n": n, "d": d, "m": m, "G": compute_G(n, d, m),
             "cap": g_cap(n, d, m)} for n, d, m in shapes]
    if args.json:
        print(json.dumps(rows, indent=2), file=out)
    else:
        table = [list(rows[0])] + [list(map(str, r.values())) for r in rows]
        widths = [max(map(len, col)) + 2 for col in zip(*table)]
        for line in table:
            print("".join(map(str.rjust, line, widths)), file=out)
    # the main theorem bounds G by the cap d^(n 2^(m-1)) when m >= 1
    if any(r["m"] >= 1 and r["G"] > r["cap"] for r in rows):
        return EXIT_FAIL
    return EXIT_PASS


def cmd_regflat(args, out):
    J, _ = _load(args, "ideal")
    return _emit(verify_regflat(J, args.d), args, out)


def cmd_poweli(args, out):
    return _emit(verify_poweli_trials(*_trials(args), char=args.char),
                 args, out)


def cmd_regbound(args, out):
    if args.ideal:
        _not_with(args, ["trials", "seed"], "with --ideal")
        J, order = _load(args, "ideal")
        # an 'order elim k' clause keeps its k variables, any other all
        keep = order.keep if isinstance(order, BlockOrder) else J.ring.nvars
        report = verify_regbound(J, keep, cutoff=args.cutoff)
    else:
        _not_with(args, ["cutoff"], "without --ideal")
        report = verify_regbound_trials(*_trials(args), char=args.char)
    return _emit(report, args, out)


def cmd_main(args, out):
    if args.param:
        _not_with(args, ["n", "m", "d", "trials", "seed"], "with --param")
        param, _ = _load(args, "param")
        _check_printable(param.n, param.d, param.m, 1, "the bound")
        report = verify_main(param, cutoff=args.cutoff)
    else:
        if None in (args.n, args.m, args.d):
            raise _Usage("verify main needs --param FILE or --n/--m/--d")
        _check_printable(args.n, args.d, args.m, 1, "the bound")
        report = verify_main_trials(args.n, args.m, args.d, *_trials(args),
                                    char=args.char, cutoff=args.cutoff)
    return _emit(report, args, out)


FLAGS = {
    "ideal": {"metavar": "FILE"},
    "param": {"metavar": "FILE"},
    "char": {"type": _characteristic},
    "cutoff": {"type": _positive},
    "trials": {"type": _positive},
    "seed": {"type": int},
    "n": {"type": _positive},
    "m": {"type": _positive},
    "d": {"type": _positive},
}
_RANGE = {"type": _range}

# command -> (handler, {flag: settings beyond FLAGS}); every command also
# takes --json and --out FILE
COMMANDS = {
    "kernel": (cmd_kernel, {"param": {"required": True}, "char": {},
                            "order": {"choices": ["lex", "elim"]}}),
    "reg": (cmd_reg, {"ideal": {"required": True}, "char": {}}),
    "lex": (cmd_lex, {"ideal": {"required": True}, "char": {},
                      "cutoff": {}}),
    "gtable": (cmd_gtable, {"n": dict(_RANGE, default="1..3"),
                            "d": dict(_RANGE, default="2..3"),
                            "m": dict(_RANGE, default="1..2")}),
    "verify regflat": (cmd_regflat, {"ideal": {"required": True},
                                     "char": {}, "d": {"default": 2}}),
    "verify poweli": (cmd_poweli, {"trials": {}, "seed": {}, "char": {}}),
    "verify regbound": (cmd_regbound, {"ideal": {}, "cutoff": {},
                                       "trials": {}, "seed": {},
                                       "char": {}}),
    "verify main": (cmd_main, {"param": {}, "cutoff": {}, "n": {}, "m": {},
                               "d": {}, "trials": {}, "seed": {},
                               "char": {}}),
}


def build_parser():
    p = _Parser(prog="regcert",
                description="Exact regularity certificates for polynomially "
                            "parametrised varieties")
    sub = p.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify").add_subparsers(dest="target",
                                                     required=True)
    for name, (handler, flags) in COMMANDS.items():
        group, _, cmd = name.rpartition(" ")
        sp = (verify if group else sub).add_parser(cmd)
        sp.set_defaults(handler=handler)
        for flag, extra in flags.items():
            sp.add_argument(f"--{flag}", **{**FLAGS.get(flag, {}), **extra})
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--out", metavar="FILE")
    return p


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # the handler writes to a buffer, so that a usage error raised
        # while it runs leaves an existing --out file as it was
        out = io.StringIO()
        code = args.handler(args, out)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out.getvalue())
        else:
            sys.stdout.write(out.getvalue())
        return code
    except (_Usage, OSError, ValueError) as exc:
        print(f"regcert: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"regcert: out of memory: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except SystemExit as exc:
        code = exc.code
        return EXIT_USAGE if code not in (0, None) else 0


if __name__ == "__main__":
    sys.exit(main())
