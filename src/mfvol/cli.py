"""Batch command-line front end.

Subcommands: ingest, stats, agg-gauss, tgarch, mfdfa, rolling, join,
simulate.  Every run writes its outputs plus a manifest JSON
(<output>.manifest.json) recording the subcommand, inputs, every resolved
setting, the tool version, and seeds.  The manifest's ``config`` block is
itself a --config file: re-running with it and the same inputs reproduces
the outputs byte-identically.

Each setting is declared once, with its default, in SETTINGS: its flag is
--<name> with "-" for "_", its --config key is <name>, and its value
resolves as command-line flag > --config JSON file > default.  A config key
that no subcommand knows is a usage error; a key of another subcommand is
ignored, so one config file can serve a whole pipeline.  Settings are
checked before any input is read; rolling checks its window and step once,
against the shortest window its estimator fits.  Relative input paths are
resolved against $MFVOL_DATA_DIR when set, and the manifest names the file
read.  Numbers in CSV tables carry 17 significant digits; JSON files use
Python's shortest round-trip repr.
"""

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, ingest, mfdfa, rolling, stats, synth, tgarch


class UsageError(ValueError):
    """Bad command-line settings, found before any input is read (exit 2)."""


def _int_list(text):
    """Comma-separated integers from a flag, or a list of them from a config
    file, each converted from its text as `Setting.from_config` converts one."""
    items = text.split(",") if isinstance(text, str) else text
    return [int(str(x)) for x in items]


def finite_float(text):
    """A float setting: NaN and ±inf are no value any setting accepts."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


@dataclass(frozen=True)
class Setting:
    """One CLI setting: its flag, its --config key and its manifest entry."""

    name: str
    type: Callable
    default: object  # a value, or a function of the settings resolved before it
    subcommands: tuple
    choices: tuple | None = None
    required: bool = False
    help: str | None = None

    @property
    def flag(self):
        return "--" + self.name.replace("_", "-")

    def from_config(self, value):
        """A --config value, converted and checked as argparse checks the flag.

        A scalar is converted from its text, so 60.7 or true is no integer."""
        try:
            value = self.type(value if isinstance(value, list) else str(value))
        except (TypeError, ValueError) as exc:
            raise UsageError(f"config key {self.name!r}: {exc}") from None
        if self.choices and value not in self.choices:
            raise UsageError(f"config key {self.name!r}: {value!r} is not one of "
                             f"{', '.join(self.choices)}")
        return value


_MFDFA = mfdfa.MfdfaConfig()
_MFDFA_USERS = ("mfdfa", "rolling")
_SIM = ("simulate",)
_REQUIRED = "required, as a flag or in --config"

SETTINGS = (
    Setting("delta_t", int, 1440, ("ingest",), help="bar length in minutes"),
    Setting("outlier_threshold", finite_float, ingest.OUTLIER_THRESHOLD_DEFAULT, ("ingest",)),
    Setting("outlier_mode", str, "positive-only", ("ingest",),
            choices=("positive-only", "symmetric", "none")),
    Setting("s0", finite_float, 0.0, ("stats",)),
    Setting("r_bar_mode", str, "abs", ("stats",), choices=("abs", "literal")),
    Setting("volatility_output", str, None, ("stats",),
            help="also write the volatility series to this CSV"),
    Setting("delta_ts", _int_list, None, ("agg-gauss",), required=True,
            help="comma-separated minutes; " + _REQUIRED),
    Setting("period_min", int, None, ("agg-gauss",),
            help="minutes; default: the shortest period kept"),
    Setting("period_max", int, None, ("agg-gauss",),
            help="minutes; default: the longest period kept"),
    Setting("min_nobs", int, 200, ("agg-gauss",)),
    Setting("fit_min", int, _MFDFA.fit_range[0], _MFDFA_USERS),
    Setting("fit_max", int, _MFDFA.fit_range[1], _MFDFA_USERS),
    Setting("s_min", int, int(_MFDFA.s_grid.min()), _MFDFA_USERS),
    Setting("s_max", int, int(_MFDFA.s_grid.max()), _MFDFA_USERS),
    Setting("n_scales", int, len(_MFDFA.s_grid), _MFDFA_USERS),
    Setting("detrend_order", int, _MFDFA.detrend_order, _MFDFA_USERS),
    Setting("degree_q", finite_float, _MFDFA.degree_q, _MFDFA_USERS),
    Setting("estimator", str, None, ("rolling",), choices=("tgarch", "mfdfa", "stats"),
            required=True, help=_REQUIRED),
    Setting("window", int, 548, ("rolling",)),
    # the one default that depends on another setting
    Setting("step", int, lambda s: 1 if s["estimator"] == "mfdfa" else 30, ("rolling",),
            help="default: 1 for the mfdfa estimator, 30 otherwise"),
    Setting("dist", str, tgarch.TgarchParams.dist, ("tgarch", "rolling", "simulate"),
            choices=tuple(tgarch.DEFAULT_SHAPE)),
    Setting("model", str, None, _SIM, choices=("gaussian", "cascade", "tgarch"),
            required=True, help=_REQUIRED),
    Setting("n", int, 10000, _SIM),
    Setting("seed", int, 1, _SIM),
    Setting("levels", int, 16, _SIM),
    Setting("a", finite_float, 0.75, _SIM),
    Setting("mu", finite_float, 0.0, _SIM),
    Setting("c1", finite_float, 0.0, _SIM),
    Setting("omega", finite_float, 0.2, _SIM),
    Setting("alpha", finite_float, 0.1, _SIM),
    Setting("beta", finite_float, 0.8, _SIM),
    Setting("gamma", finite_float, -0.05, _SIM),
    Setting("shape", finite_float, None, _SIM, help="default: set by --dist"),
)


def resolve(args, config):
    """The subcommand's settings by name: flag > --config > default."""
    unknown = sorted(set(config) - {s.name for s in SETTINGS})
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    resolved = {}
    for s in SETTINGS:
        if args.subcommand not in s.subcommands:
            continue
        value = getattr(args, s.name)
        if value is None and config.get(s.name) is not None:
            value = s.from_config(config[s.name])
        if value is None:
            value = s.default(resolved) if callable(s.default) else s.default
        if value is None and s.required:
            raise UsageError(f"{s.flag} is required, as a flag or as config key {s.name!r}")
        resolved[s.name] = value
    return resolved


def _json_sidecar(output):
    """Path of the JSON summary written beside ``output``."""
    sidecar = Path(output).with_suffix(".json")
    if sidecar == Path(output):
        raise UsageError(f"output {output} would be overwritten by its JSON sidecar; "
                         "give the output another suffix, such as .csv")
    return sidecar


def _resolve_input(path):
    p = Path(path)
    if not p.is_absolute():
        base = os.environ.get("MFVOL_DATA_DIR")
        if base and not p.exists():
            p = Path(base) / p
    return p


def _load_config(path):
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise UsageError(f"--config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError(f"--config {path}: expected a JSON object of settings")
    return config


_WRITE_CHARS = 1 << 20


def _write(path, text):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        # in slices, so that the encoded copy of the text is one slice long
        for start in range(0, len(text), _WRITE_CHARS):
            fh.write(text[start:start + _WRITE_CHARS])


def _write_manifest(args, inputs, settings, seeds):
    """``inputs`` are the files read: one that $MFVOL_DATA_DIR resolved is
    recorded as read, any other as given."""
    manifest = {
        "subcommand": args.subcommand,
        "inputs": [str(given) if Path(given) == read else str(read)
                   for given, read in zip(args.inputs, inputs)],
        "config": settings,
        "version": __version__,
        "seeds": seeds or {},
    }
    _write(str(args.output) + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True))


def cmd_ingest(s, inputs, output):
    sidecar = _json_sidecar(output)
    if s["delta_t"] < 1:
        raise UsageError("--delta-t must be >= 1")
    if s["outlier_mode"] != "none" and not s["outlier_threshold"] > 0:
        raise UsageError("--outlier-threshold must be positive")
    # no name keeps the ticks or the bars, so they are freed before the table is built
    returns = ingest.log_returns(ingest.resample_last(
        ingest.parse_ticks(inputs[0]), s["delta_t"]))
    if s["outlier_mode"] != "none":
        returns = ingest.filter_outliers(returns, s["outlier_threshold"], s["outlier_mode"])
    _write(output, ingest.returns_to_csv(returns))
    _write(sidecar, ingest.returns_to_json(returns))


def cmd_stats(s, inputs, output):
    if s["volatility_output"] and os.path.abspath(s["volatility_output"]) in (
            os.path.abspath(output), os.path.abspath(f"{output}.manifest.json")):
        raise UsageError(f"--volatility-output {s['volatility_output']} would overwrite "
                         "the statistics or their manifest")
    returns = ingest.read_returns_csv(inputs[0])
    desc = stats.descriptive(returns.values)
    vol = stats.volatility_series(returns, s0=s["s0"], r_bar_mode=s["r_bar_mode"])
    doc = {"descriptive": desc, "r_bar": vol.r_bar, "s0": s["s0"]}
    _write(output, json.dumps(doc, indent=2))
    if s["volatility_output"]:
        _write(s["volatility_output"], ingest.csv_table(
            "t,s", "%d,%.17g", [np.arange(len(vol.values)), vol.values]))


def cmd_agg_gauss(s, inputs, output):
    fit_range = (s["period_min"], s["period_max"])
    sidecar = _json_sidecar(output)
    if not s["delta_ts"]:
        raise UsageError("--delta-ts must list at least one period")
    if any(dt < 1 for dt in s["delta_ts"]):
        raise UsageError("--delta-ts must all be >= 1")
    repeated = [dt for dt in s["delta_ts"] if s["delta_ts"].count(dt) > 1]
    if repeated:
        raise UsageError(f"--delta-ts lists the period {repeated[0]} more than once")
    if None not in fit_range and fit_range[0] > fit_range[1]:
        raise UsageError("--period-min must not exceed --period-max")
    if s["min_nobs"] < stats.DESCRIPTIVE_MIN_OBS:
        raise UsageError(f"--min-nobs must be at least {stats.DESCRIPTIVE_MIN_OBS}, "
                         "the returns a kurtosis needs")
    ticks = ingest.parse_ticks(inputs[0])
    scan = stats.agg_gaussianity_scan(ticks, s["delta_ts"], fit_range=fit_range,
                                      min_nobs=s["min_nobs"])
    _write(output, stats.scan_to_csv(scan))
    summary = {
        "slope": scan.slope, "slope_se": scan.slope_se,
        "fit_range": list(scan.fit_range), "warnings": scan.warnings,
    }
    _write(sidecar, json.dumps(summary, indent=2))


def cmd_tgarch(s, inputs, output):
    returns = ingest.read_returns_csv(inputs[0])
    fit = tgarch.fit(returns.values, dist=s["dist"])
    _write(output, tgarch.fit_to_json(fit))
    return {"multistart": tgarch.MULTISTART_SEED}


def _checked(make):
    """The config ``make()`` builds, validated; a ValueError from either step
    is a usage error, found before any input is read."""
    try:
        config = make()
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return config


def _mfdfa_config(s):
    fit_range = (s["fit_min"], s["fit_max"])
    # the scale grid always covers the requested fit range
    return _checked(lambda: mfdfa.MfdfaConfig(
        s_grid=mfdfa.scale_grid(min(s["s_min"], fit_range[0]),
                                max(s["s_max"], fit_range[1]), s["n_scales"]),
        detrend_order=s["detrend_order"],
        fit_range=fit_range,
        degree_q=s["degree_q"],
    ))


def cmd_mfdfa(s, inputs, output):
    cfg = _mfdfa_config(s)
    returns = ingest.read_returns_csv(inputs[0])
    result = mfdfa.analyze(returns.values, cfg)
    _write(f"{output}_fq.csv", mfdfa.fluct_to_csv(result["fluctuation"]))
    _write(f"{output}_hurst.csv", mfdfa.hurst_to_csv(result["hurst"]))
    _write(f"{output}_spectrum.csv", mfdfa.spectrum_to_csv(result["spectrum"]))
    summary = {"h2": result["h2"], "dh": result["dh"], "dalpha": result["dalpha"],
               "degree_q": cfg.degree_q}
    _write(f"{output}_summary.json", json.dumps(summary, indent=2))


def _rolling_estimator(s):
    """The estimator that --estimator names, and the shortest window it fits."""
    if s["estimator"] == "mfdfa":
        cfg = _mfdfa_config(s)
        return (lambda windows: mfdfa.analyze_windows(windows, cfg)), cfg.min_length
    if s["estimator"] == "stats":
        return rolling.each_window(stats.descriptive), stats.DESCRIPTIVE_MIN_OBS

    def run(values):  # tgarch, the one choice left
        fit = tgarch.fit(values, dist=s["dist"])
        # a track holds numbers only; the normal law has shape None
        payload = {k: v for k, v in fit.params.as_dict().items()
                   if k != "dist" and v is not None}
        payload["loglik"] = fit.loglik
        payload["converged"] = float(fit.converged)
        if fit.std_errors:
            payload.update({f"se_{k}": v for k, v in fit.std_errors.items()})
        if not fit.converged:
            raise RuntimeError("fit did not converge")
        return payload
    return rolling.each_window(run), tgarch.MIN_OBS


def cmd_rolling(s, inputs, output):
    estimator, shortest = _rolling_estimator(s)
    if s["window"] < shortest or s["step"] < 1:
        raise UsageError(f"the {s['estimator']} estimator needs a --window of at least "
                         f"{shortest} returns and a --step of at least 1")
    returns = ingest.read_returns_csv(inputs[0])
    track = rolling.rolling_apply(returns, s["window"], s["step"], estimator)
    _write(output, rolling.track_to_csv(track))
    if s["estimator"] == "tgarch":
        return {"multistart": tgarch.MULTISTART_SEED}


def cmd_join(s, inputs, output):
    if len(inputs) < 2:
        raise UsageError("--inputs must name at least 2 tracks to join")
    tracks = []
    for path in inputs:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        try:
            tracks.append(rolling.read_track_csv(text))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    rows = rolling.join_measures(tracks, names=[p.stem for p in inputs])
    _write(output, rolling.joined_to_csv(rows))


def cmd_simulate(s, inputs, output):
    if s["model"] != "cascade" and s["n"] < 1:
        raise UsageError("--n must be >= 1")
    if s["model"] == "gaussian":
        series = synth.gaussian_noise(s["n"], s["seed"])
    elif s["model"] == "cascade":
        series = synth.binomial_cascade(
            _checked(lambda: synth.CascadeSpec(levels=s["levels"], a=s["a"])))
    elif s["model"] == "tgarch":
        names = ("mu", "c1", "omega", "alpha", "beta", "gamma", "dist", "shape")
        params = _checked(lambda: tgarch.TgarchParams(**{k: s[k] for k in names}))
        series = tgarch.simulate(params, s["n"], s["seed"])
    else:
        raise ValueError(f"unknown model {s['model']!r}")
    times = 86400 * np.arange(len(series), dtype=np.int64)
    _write(output, ingest.returns_to_csv(ingest.ReturnSeries(1440, times, series)))
    return {"series": s["seed"]}


# subcommand: (function, help, inputs: "one", "many" or None)
COMMANDS = {
    "ingest": (cmd_ingest, "ticks CSV -> cleaned returns CSV/JSON", "one"),
    "stats": (cmd_stats, "descriptive statistics with jackknife errors", "one"),
    "agg-gauss": (cmd_agg_gauss, "kurtosis vs sampling period scan", "one"),
    "tgarch": (cmd_tgarch, "AR(1)+TGARCH maximum-likelihood fit", "one"),
    "mfdfa": (cmd_mfdfa, "multifractal DFA analysis", "one"),
    "rolling": (cmd_rolling, "rolling-window estimator tracks", "one"),
    "join": (cmd_join, "inner-join rolling tracks on window end", "many"),
    "simulate": (cmd_simulate, "synthetic series (gaussian, cascade, tgarch)", None),
}


def build_parser(subcommand=None):
    """The mfvol argument parser.

    Given a ``subcommand`` name, only that subcommand's parser is built: it
    parses an argv whose first item is that name, and its usage lines and
    errors read as the full parser's.  It cannot print the top-level help,
    which lists every subcommand, so `main` builds it only when argv starts
    with the subcommand and every ``-h`` therefore goes to the subcommand.
    """
    parser = argparse.ArgumentParser(prog="mfvol", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    # the full parser names a missing subcommand by its dest; one subcommand's
    # parser lists them all in its usage lines, as the full parser does
    metavar = None if subcommand is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    parsers = {}
    for name in COMMANDS if subcommand is None else (subcommand,):
        func, text, inputs = COMMANDS[name]
        p = parsers[name] = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON object of settings keyed by name "
                                        "(flags take precedence)")
        p.add_argument("--output", "-o", required=True)
        if inputs == "one":
            p.add_argument("--input", dest="inputs", nargs=1, metavar="INPUT", required=True)
        elif inputs == "many":
            p.add_argument("--inputs", nargs="+", required=True)
        else:
            p.set_defaults(inputs=[])
        p.set_defaults(func=func)
    for s in SETTINGS:
        for name in s.subcommands:
            if name in parsers:
                parsers[name].add_argument(s.flag, type=s.type, choices=s.choices,
                                           help=s.help or f"default: {s.default}")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        settings = resolve(args, _load_config(args.config))
        inputs = [_resolve_input(p) for p in args.inputs]
        seeds = args.func(settings, inputs, args.output)
        _write_manifest(args, inputs, settings, seeds)
        return 0
    except UsageError as exc:
        parser.error(str(exc))
    except Exception as exc:
        report = {"error": type(exc).__name__, "message": str(exc),
                  "subcommand": args.subcommand}
        print(json.dumps(report), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
