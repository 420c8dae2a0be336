"""Command-line front end.

Subcommands map one-to-one onto the canned experiment runners, plus
`approximate` for fitting user samples from a file.  Each subcommand
takes only the options its runner reads.  Besides --config FILE and
--out DIR:

    aliasing       --eta --resolution
    weight-sweep   --basis --n --k --epsilon --gammas --functions
                   --resolution
    compare        --basis --points --n --k --epsilon --eta --noise --seed
                   --amplitude --resolution --functions
    diagnostics    --basis --points --n --m --k --epsilon --gamma --seed
                   --amplitude --functions (one function id)
    approximate    SAMPLES --basis --k --epsilon --gamma --eta
                   --relax-weights --resolution

With --points file:PATH the file fixes N, so compare and diagnostics
then read no --n and reject it.

Options may also be supplied through a plain key=value config file whose
keys must be options of the subcommand.  Each ExperimentConfig field
takes the last of, in this order: its default, its subcommand's value
(aliasing: basis fourier; weight-sweep: basis chebyshev; compare: noise
1e-8), the config file, the command-line flag.
"""

from __future__ import annotations

import argparse
import os
import sys

# The experiments' dense algebra is small, and BLAS worker threads only
# contend with the Python thread between calls: a default weight sweep
# runs 2-4 times faster on one thread.  So the command line runs on one
# BLAS thread unless the user set a thread count.  This must precede the
# first numpy import; the package itself imports none, and a program that
# loaded numpy before this module keeps its own setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .experiments import ExperimentConfig, RUNNERS, parse_k_rule, \
    resolve_basis, run_approximate


def _list(parse, text):
    values = tuple(parse(tok) for tok in str(text).split(",") if tok.strip())
    if not values:
        raise ValueError("expected a comma-separated list, got %r" % text)
    return values


def _int_list(text):
    return _list(int, text)


def _float_list(text):
    return _list(float, text)


# The runners read --basis and --k from their text; these check the text
# up front, so that a bad value is reported with its option.
def _basis(text):
    resolve_basis(text)
    return text


def _k_rule(text):
    parse_k_rule(text)
    return text


def _names(text):
    if not text:
        return None
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _bool(value) -> bool:
    text = str(value).strip().lower()
    if text not in _BOOLS:
        raise ValueError("expected one of %s, got %r"
                         % ("/".join(_BOOLS), str(value)))
    return _BOOLS[text]


# name: (ExperimentConfig field, parser, help).  The flag is --name with
# '-' for '_'; a config-file key may use either spelling.
_OPTIONS = {
    "basis": ("basis", _basis, "legendre | chebyshev | fourier | jacobi:a,b"),
    "points": ("points", str,
               "equispaced | jittered | uniform_random | chebyshev | "
               "file:PATH"),
    "n": ("n_list", _int_list, "comma-separated sample counts"),
    "m": ("m_list", _int_list, "comma-separated block sizes"),
    "k": ("k_rule", _k_rule, "truncation rule: 4n | choose | an integer"),
    "gamma": ("gamma", float, "weight growth exponent"),
    "gammas": ("gamma_list", _float_list, "comma-separated exponent grid"),
    "epsilon": ("epsilon", float, "singular-value margin for --k choose"),
    "eta": ("eta", float, "noise-ball radius; 0 solves the equality problem"),
    "noise": ("noise", float, "uniform perturbation magnitude"),
    "seed": ("seed", int, "master seed"),
    "amplitude": ("amplitude", float, "jitter amplitude in cell widths"),
    "resolution": ("eval_resolution", int,
                   "evaluation grid size for error measurement"),
    "functions": ("functions", _names, "comma-separated test function ids"),
    "relax_weights": ("relax_weights", _bool,
                      "allow weights below the sup-norm floor"),
    "out": ("out_dir", str, "output directory"),
}

# subcommand: (options its runner reads besides out, ExperimentConfig
# values that differ from the field defaults).
_COMMANDS = {
    "aliasing": (("eta", "resolution"), {"basis": "fourier"}),
    "weight-sweep": (("basis", "n", "k", "epsilon", "gammas", "functions",
                      "resolution"), {"basis": "chebyshev"}),
    "compare": (("basis", "points", "n", "k", "epsilon", "eta", "noise",
                 "seed", "amplitude", "resolution", "functions"),
                {"noise": 1e-8}),
    "diagnostics": (("basis", "points", "n", "m", "k", "epsilon", "gamma",
                     "seed", "amplitude", "functions"), {}),
    "approximate": (("basis", "k", "epsilon", "gamma", "eta",
                     "relax_weights", "resolution"), {}),
}


# Help text where a runner reads an option its own way.
_HELP = {("aliasing", "eta"): "radius of the noise-ball runs; 0 means 1e-2"}


def _option_names(command: str) -> tuple:
    return _COMMANDS[command][0] + ("out",)


def _load_config(path, command: str) -> dict:
    """key=value pairs, one per line; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("bad config line %r" % raw.strip())
            key, val = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _option_names(command):
                raise ValueError("config key %r is not an option of %s"
                                 % (key, command))
            out[key] = val.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser.  A subcommand's namespace holds only the options
    given on the command line."""
    ap = argparse.ArgumentParser(
        prog="wl1approx",
        description="Function approximation from scattered data by "
                    "weighted l1 minimization and least squares.")
    sub = ap.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        sp = sub.add_parser(command, argument_default=argparse.SUPPRESS)
        if command == "approximate":
            sp.add_argument("samples",
                            help="two-column file of t and y values")
        sp.add_argument("--config",
                        help="key=value file supplying option defaults")
        for name in _option_names(command):
            help_ = _HELP.get((command, name), _OPTIONS[name][2])
            flag = "--" + name.replace("_", "-")
            if name == "relax_weights":
                sp.add_argument(flag, action="store_true", help=help_)
            else:
                sp.add_argument(flag, help=help_)
    return ap


def _config_from_args(args) -> ExperimentConfig:
    """ExperimentConfig default < subcommand value < config file < flag."""
    given = vars(args)
    config = given.get("config")
    flags = {name: given[name] for name in _option_names(args.command)
             if name in given}
    texts = {**(_load_config(config, args.command) if config else {}),
             **flags}
    values = dict(_COMMANDS[args.command][1])
    for name, text in texts.items():
        field, parse = _OPTIONS[name][:2]
        try:
            values[field] = parse(text)
        except ValueError as exc:
            where = ("--" + name.replace("_", "-") if name in flags
                     else "config key %r" % name)
            raise ValueError("%s: %s" % (where, exc)) from None
    if values.get("points") in ("file", "file:"):
        raise ValueError("--points file needs a path: --points file:PATH")
    if values.get("points", "").startswith("file:"):
        if "n" in texts:
            raise ValueError("--n is not read with --points file:PATH: the "
                             "file fixes N at its point count")
        values["points_file"] = values["points"].split(":", 1)[1]
        values["points"] = "file"
    functions = values.get("functions") or ()
    if args.command == "diagnostics" and len(functions) > 1:
        raise ValueError("diagnostics uses one reference function, got %s"
                         % ",".join(functions))
    return ExperimentConfig(experiment=args.command.replace("-", "_"),
                            **values)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "approximate":
            paths = run_approximate(cfg, args.samples)
        else:
            paths = RUNNERS[cfg.experiment](cfg)
    except (ValueError, RuntimeError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for name in sorted(paths):
        print("%s %s" % (name, paths[name]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
