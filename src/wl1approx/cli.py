"""Command-line front end.

Subcommands map one-to-one onto the canned experiment runners, plus
`approximate` for fitting user samples from a file.  Each subcommand
takes only the options its runner reads; every other ExperimentConfig
field keeps its default.  Besides --config FILE and --out DIR:

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
keys must be options of the subcommand; explicit command-line flags win
over file values.
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

from .experiments import (
    ExperimentConfig,
    RUNNERS,
    SWEEP_GAMMAS,
    run_approximate,
)


def _int_list(text: str):
    return tuple(int(tok) for tok in str(text).split(",") if tok.strip())


def _float_list(text):
    return tuple(float(tok) for tok in str(text).split(",") if tok.strip())


def _names(text):
    if not text:
        return None
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _bool(value) -> bool:
    if isinstance(value, bool):
        return value
    return str(value).strip().lower() in ("1", "true", "yes", "on")


# name: (ExperimentConfig field, parser, default, help).  The flag is
# --name with '-' for '_'; a config-file key may use either spelling.
_OPTIONS = {
    "basis": ("basis", str, "legendre",
              "legendre | chebyshev | fourier | jacobi:a,b"),
    "points": ("points", str, "equispaced",
               "equispaced | jittered | uniform_random | chebyshev | "
               "file:PATH"),
    "n": ("n_list", _int_list, "10,20,40,80",
          "comma-separated sample counts"),
    "m": ("m_list", _int_list, "5,8", "comma-separated block sizes"),
    "k": ("k_rule", str, "4n", "truncation rule: 4n | choose | an integer"),
    "gamma": ("gamma", float, "0.5", "weight growth exponent"),
    "gammas": ("gamma_list", _float_list,
               ",".join("%g" % g for g in SWEEP_GAMMAS),
               "comma-separated exponent grid"),
    "epsilon": ("epsilon", float, "0.5",
                "singular-value margin for --k choose"),
    "eta": ("eta", float, "0",
            "noise-ball radius; 0 solves the equality problem"),
    "noise": ("noise", float, "1e-8", "uniform perturbation magnitude"),
    "seed": ("seed", int, "0", "master seed"),
    "amplitude": ("amplitude", float, "1.0",
                  "jitter amplitude in cell widths"),
    "resolution": ("eval_resolution", int, "10000",
                   "evaluation grid size for error measurement"),
    "functions": ("functions", _names, None,
                  "comma-separated test function ids"),
    "relax_weights": ("relax_weights", _bool, False,
                      "allow weights below the sup-norm floor"),
    "out": ("out_dir", str, ".", "output directory"),
}

# subcommand: (options its runner reads besides out, values that differ
# from the option or ExperimentConfig default).
_COMMANDS = {
    "aliasing": (("eta", "resolution"), {"basis": "fourier"}),
    "weight-sweep": (("basis", "n", "k", "epsilon", "gammas", "functions",
                      "resolution"), {"basis": "chebyshev"}),
    "compare": (("basis", "points", "n", "k", "epsilon", "eta", "noise",
                 "seed", "amplitude", "resolution", "functions"), {}),
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


class _Given(argparse.Action):
    """Stores the value and records the option in namespace.given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


def build_parser(file_vals: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; file_vals supply option defaults.  The parsed
    namespace's `given` holds the options set by a flag or by file_vals."""
    file_vals = file_vals or {}
    ap = argparse.ArgumentParser(
        prog="wl1approx",
        description="Function approximation from scattered data by "
                    "weighted l1 minimization and least squares.")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (_, fixed) in _COMMANDS.items():
        sp = sub.add_parser(command)
        if command == "approximate":
            sp.add_argument("samples",
                            help="two-column file of t and y values")
        sp.add_argument("--config", default=None,
                        help="key=value file supplying option defaults")
        sp.set_defaults(given=frozenset(file_vals))
        for name in _option_names(command):
            _, _, default, help_ = _OPTIONS[name]
            help_ = _HELP.get((command, name), help_)
            default = file_vals.get(name, fixed.get(name, default))
            flag = "--" + name.replace("_", "-")
            if name == "relax_weights":
                sp.add_argument(flag, action="store_true", default=default,
                                help=help_)
            else:
                sp.add_argument(flag, default=default, help=help_,
                                action=_Given)
    return ap


def _config_from_args(args) -> ExperimentConfig:
    values = {_OPTIONS[name][0]: value
              for name, value in _COMMANDS[args.command][1].items()}
    for name in _option_names(args.command):
        field, parse = _OPTIONS[name][:2]
        values[field] = parse(getattr(args, name))
    if values.get("points") in ("file", "file:"):
        raise ValueError("--points file needs a path: --points file:PATH")
    if values.get("points", "").startswith("file:"):
        if "n" in args.given:
            raise ValueError("--n is not read with --points file:PATH: the "
                             "file fixes N at its point count")
        values["points_file"] = values["points"].split(":", 1)[1]
        values["points"] = "file"
    if args.command == "diagnostics" and len(values["functions"] or ()) > 1:
        raise ValueError("diagnostics uses one reference function, got %s"
                         % ",".join(values["functions"]))
    return ExperimentConfig(experiment=args.command.replace("-", "_"),
                            **values)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # File values become defaults, then explicit flags win on
            # re-parse.
            file_vals = _load_config(args.config, args.command)
            args = build_parser(file_vals).parse_args(argv)
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
