"""Command-line front end: runs computations, writes reproducible envelopes.

Subcommands
    moment     limiting correlation functional (free term + diagram sum)
    simulate   mollified-SHE Monte Carlo moment time series
    diagrams   enumerate / count / classify diagram indices
    verify     run the identity-check suites with their own tolerances
    betaconst  mollifier constants (beta_phi, beta_star, Phi(0))

Every run emits a JSON result envelope (sorted keys, floats at 17
significant digits, UTF-8) echoing all resolved inputs, a git-blob-style
SHA-1 of the canonical config, seeds, per-quantity values each paired
with an error estimate or the tag "exact", and wall-clock timings.  With
--stable-output the timing fields are zeroed so that identical configs
produce byte-identical envelopes.  Optional CSV tables use RFC 4180
quoting.  Exit codes: 0 success, 2 invalid usage/config, 3 finished but
with accuracy warnings, 4 numerical failure.

Each subcommand declares its options once, one row each in ``_OPTIONS``:
flag, config key, converter, default and admissible values.  The parser
only collects raw strings; flag values and config-file values then pass
through the same converter and choice check.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
import warnings
from typing import Callable, NamedTuple

from . import __version__
from .diagrams import classify, count, enumerate_diagrams
from .errors import (
    AccuracyError,
    AccuracyWarning,
    BlowupError,
    CritSheError,
    DomainError,
    IntegrandError,
    NonconvergenceWarning,
    ParameterError,
    RankError,
)
from .gausscalc import mixture

SCHEMA_VERSION = "1"

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_WARNINGS = 3
_EXIT_NUMERICAL = 4

# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def _canon(value):
    """Floats rendered at 17 significant digits; containers recursed."""
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        value = value.item()  # numpy scalars (bool_, float64, int64) -> Python
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return float(format(value, ".17g"))
        return {"inf": "Infinity", "-inf": "-Infinity"}.get(str(value), "NaN")
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return str(value)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting, no NaN literals."""
    return json.dumps(_canon(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def config_hash(config: dict) -> str:
    """Git-blob-style SHA-1 of the canonical config JSON."""
    content = canonical_json(config).encode("utf-8")
    return hashlib.sha1(b"blob %d\0" % len(content) + content).hexdigest()


def _write_csv(path: str, header, rows) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ParameterError(f"cannot write CSV to {path}: {exc}") from exc


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _emit(envelope: dict, output: str | None) -> None:
    text = canonical_json(envelope)
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(f"cannot write envelope to {output}: {exc}") from exc


# ---------------------------------------------------------------------------
# configuration: one table row per option, one conversion for flags and
# config-file values alike
# ---------------------------------------------------------------------------

def _number(kind, value, label: str):
    """A number as ``kind`` converts its text; JSON booleans, lists and
    objects are not numbers."""
    if isinstance(value, (bool, list, dict)):
        raise ParameterError(f"{label} needs a number, got {json.dumps(value)}")
    try:
        return kind(str(value))
    except ValueError:
        raise ParameterError(f"{label}: invalid {kind.__name__} value {value!r}") from None


def _int(value, label: str) -> int:
    return _number(int, value, label)


def _float(value, label: str) -> float:
    return _number(float, value, label)


def _text(value, label: str) -> str:
    """A string (a path or a name): a number would be opened as a file
    descriptor."""
    if not isinstance(value, str):
        raise ParameterError(f"{label} needs a string, got {json.dumps(value)}")
    return value


def _bool(value, label: str) -> bool:
    """A switch: True from its flag, a JSON boolean from a config file."""
    if not isinstance(value, bool):
        raise ParameterError(f"{label} needs true or false, got {json.dumps(value)}")
    return value


def _mixture(value, label: str):
    """A mixture as JSON text (a flag) or JSON data (a config file)."""
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{label}: not valid JSON: {exc}") from None
    return mixture(value, label)


def _times(value, label: str) -> list:
    """Recording times: comma-separated text or a JSON list of numbers."""
    if isinstance(value, str):
        value = value.split(",")
    if not isinstance(value, list):
        raise ParameterError(f"{label} needs comma-separated numbers, got {json.dumps(value)}")
    return [_float(v, label) for v in value]


class _Opt(NamedTuple):
    """One option: its flag, its config key (dest), the converter of its
    raw value, its default and its admissible values (empty: any)."""

    flag: str
    dest: str
    convert: Callable
    default: object = None
    choices: tuple = ()
    help: str | None = None


_UNIT_GAUSSIAN = ((1.0, (0.0, 0.0), 0.5),)
_MOLLIFIER = _Opt("--mollifier", "mollifier", _text, "bump", ("bump",))
_F = _Opt("--f", "f", _mixture, _UNIT_GAUSSIAN,
          help="test-function mixture JSON [[weight,[cx,cy],variance],...]")
_Z = _Opt("--z-ic", "z_ic", _mixture, _UNIT_GAUSSIAN, help="initial-condition mixture JSON")
_SEED = _Opt("--seed", "seed", _int, 2026)
_COMMON = (
    _Opt("--config", "config", _text,
         help="JSON config file; command-line flags take precedence"),
    _Opt("--output", "output", _text, help="envelope path ('-' or omitted: stdout)"),
    _Opt("--csv", "csv_path", _text, help="optional CSV table path"),
    _Opt("--threads", "threads", _int,
         help="worker threads (default: CRITSHE_THREADS or all cores)"),
    _Opt("--stable-output", "stable_output", _bool, False,
         help="zero the timing fields for byte-identical envelopes"),
)

_OPTIONS = {
    "moment": (
        _Opt("--n", "n", _int),
        _Opt("--t", "t", _float),
        _Opt("--beta-star", "beta_star", _float),
        _Opt("--beta0", "beta0", _float),
        _MOLLIFIER, _F, _Z,
        _Opt("--m-max", "m_max", _int, 6),
        _Opt("--mode", "mode", _text, "adaptive-quadrature",
             ("adaptive-quadrature", "monte-carlo", "quasi-monte-carlo")),
        _Opt("--samples", "samples", _int, 65536),
        _Opt("--rel-tol", "rel_tol", _float, 1e-3),
        _SEED, *_COMMON,
    ),
    "simulate": (
        _Opt("--n", "n", _int, 2),
        _Opt("--epsilon", "epsilon", _float),
        _Opt("--beta0", "beta0", _float, 0.0),
        _MOLLIFIER,
        _Opt("--grid", "grid", _int, 256),
        _Opt("--domain", "domain", _float, 8.0),
        _Opt("--dt", "dt", _float),
        _Opt("--replicas", "replicas", _int, 2000),
        _Opt("--times", "times", _times, help="comma-separated recording times"),
        _F, _Z, _SEED, *_COMMON,
    ),
    "diagrams": (
        _Opt("--n", "n", _int),
        _Opt("--m", "m", _int),
        _Opt("--count", "count_only", _bool, False, help="emit the count only, no listing"),
        *_COMMON,
    ),
    "verify": (_Opt("--suite", "suite", _text, "identities", ("identities",)), *_COMMON),
    "betaconst": (_MOLLIFIER, _Opt("--beta0", "beta0", _float, 0.0), *_COMMON),
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError(f"config file {path} must hold a JSON object")
    return data


def _resolve(command: str, given: dict) -> dict:
    """Merge precedence: command line > config file > built-in defaults.

    ``given`` holds only what was explicitly passed, as the parser's raw
    strings (it suppresses everything else); the config file may not
    introduce unknown keys.  Every value, whatever its source, then passes
    through its option's converter and choices.  None (JSON null) is the
    unset value of an option whose default is None.
    """
    options = {opt.dest: opt for opt in _OPTIONS[command]}
    raw = {dest: (opt.default, opt.flag) for dest, opt in options.items()}
    if given.get("config"):
        file_cfg = _load_config_file(given["config"])
        unknown = set(file_cfg) - set(options)
        if unknown:
            raise ParameterError(
                f"unknown config keys {sorted(unknown)}; valid: {sorted(options)}"
            )
        raw.update({k: (v, f"config key {k!r}") for k, v in file_cfg.items()})
    raw.update({k: (v, options[k].flag) for k, v in given.items()
                if k in options and k != "config"})
    cfg = {}
    for dest, (value, label) in raw.items():
        opt = options[dest]
        if value is not None or opt.default is not None:
            value = opt.convert(value, label)
            if opt.choices and value not in opt.choices:
                raise ParameterError(
                    f"{label}: invalid choice {value!r}; available: {', '.join(opt.choices)}"
                )
        cfg[dest] = value
    return cfg


def _threads(cfg: dict) -> int:
    t = cfg["threads"]
    if t is None:
        env = os.environ.get("CRITSHE_THREADS")
        try:
            t = int(env) if env else (os.cpu_count() or 1)
        except ValueError:
            raise ParameterError(f"CRITSHE_THREADS must be an integer, got {env!r}") from None
    if t < 1:
        raise ParameterError(f"thread count must be >= 1, got {t}")
    return t


def _require(cfg: dict, *keys) -> None:
    missing = [k for k in keys if cfg[k] is None]
    if missing:
        raise ParameterError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _bump_constants(beta0: float):
    """(pair profile, beta_phi, beta_star) of the bump mollifier, the one
    the --mollifier choices admit."""
    from .mollifier import Mollifier, beta_phi, beta_star, pair_profile

    profile = pair_profile(Mollifier.bump())
    bphi = beta_phi(profile)
    return profile, bphi, beta_star(beta0, bphi).value


def _beta_star_of(cfg: dict) -> float:
    """beta_star directly, or derived from (mollifier, beta0)."""
    if cfg["beta_star"] is not None:
        return cfg["beta_star"]
    if cfg["beta0"] is None:
        raise ParameterError("need either --beta-star or --beta0 (with --mollifier)")
    return _bump_constants(cfg["beta0"])[2]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_moment(cfg: dict, timings: dict) -> tuple[dict, list, list]:
    from .momentengine import MomentRequest, correlation
    from .simplexint import IntegrationPlan

    _require(cfg, "n", "t")
    bstar = _beta_star_of(cfg)
    plan = IntegrationPlan(
        mode=cfg["mode"], samples=cfg["samples"], rel_tol=cfg["rel_tol"], seed=cfg["seed"],
    )
    req = MomentRequest(
        n=cfg["n"], t=cfg["t"], beta_star=bstar,
        f=cfg["f"], z_ic=cfg["z_ic"], m_max=cfg["m_max"], plan=plan,
    )
    t0 = time.perf_counter()
    res = correlation(req, threads=_threads(cfg))
    timings["correlation_seconds"] = time.perf_counter() - t0

    rows = [["free", 0, "", _fmt(res.free_term), "exact"]]
    diag_json = []
    err_sq = 0.0
    for d, (v, e) in res.contributions.items():
        rows.append(["diagram", d.m, " ".join(f"{i}{j}" for i, j in d.pairs), _fmt(v), _fmt(e)])
        diag_json.append({
            "pairs": [list(p) for p in d.pairs], "m": d.m,
            "value": v, "error": e, "degenerate": classify(d),
        })
        err_sq += e * e
    results = {
        "beta_star": {"value": bstar, "error": "exact"},
        "free_term": {"value": res.free_term, "error": "exact"},
        "diagrams": diag_json,
        "per_m_totals": {str(m): v for m, v in res.per_m.items()},
        "truncation_tail_estimate": res.truncation_tail_estimate,
        "truncation_rule": res.truncation_rule,
        "total": {"value": res.total, "error": math.sqrt(err_sq)},
    }
    return results, ["kind", "m", "pairs", "value", "error"], rows


def _cmd_simulate(cfg: dict, timings: dict) -> tuple[dict, list, list]:
    from .mollifier import CouplingSchedule, beta_eps
    from .shesim import FieldParams, moment_time_series

    _require(cfg, "epsilon", "times")
    eps = cfg["epsilon"]
    be = beta_eps(CouplingSchedule(epsilon=eps, beta_zero=cfg["beta0"]))
    params = FieldParams(epsilon=eps, beta_eps=be, domain=cfg["domain"], n_grid=cfg["grid"])
    t0 = time.perf_counter()
    ts, est, se = moment_time_series(
        cfg["n"], cfg["times"], cfg["f"], cfg["z_ic"], params,
        replicas=cfg["replicas"], seed=cfg["seed"], dt=cfg["dt"], threads=_threads(cfg),
    )
    timings["simulation_seconds"] = time.perf_counter() - t0
    results = {
        "beta_eps": {"value": be, "error": "exact"},
        "cfl_dt": {"value": params.cfl_dt, "error": "exact"},
        "moments": [
            {"t": float(t), "estimate": float(v), "stderr": float(s)}
            for t, v, s in zip(ts, est, se)
        ],
    }
    rows = [[_fmt(t), _fmt(v), _fmt(s)] for t, v, s in zip(ts, est, se)]
    return results, ["t", "estimate", "stderr"], rows


def _cmd_diagrams(cfg: dict, timings: dict) -> tuple[dict, list, list]:
    _require(cfg, "n", "m")
    n, m = cfg["n"], cfg["m"]
    t0 = time.perf_counter()
    total = count(n, m)
    results: dict = {"count": {"value": total, "error": "exact"}}
    rows = []
    if not cfg["count_only"]:
        listing = []
        for d in enumerate_diagrams(n, m):
            degenerate = classify(d)
            used = sorted({x for pair in d.pairs for x in pair})
            listing.append({
                "pairs": [list(p) for p in d.pairs],
                "degenerate": degenerate,
                "particles_used": used,
            })
            rows.append([" ".join(f"{i}{j}" for i, j in d.pairs),
                         str(degenerate).lower(),
                         " ".join(map(str, used))])
        results["diagrams"] = listing
    timings["enumeration_seconds"] = time.perf_counter() - t0
    return results, ["pairs", "degenerate", "particles_used"], rows


def _cmd_betaconst(cfg: dict, timings: dict) -> tuple[dict, list, list]:
    import numpy as np

    from .mollifier import EULER_GAMMA

    t0 = time.perf_counter()
    profile, bphi, bstar = _bump_constants(cfg["beta0"])
    timings["constants_seconds"] = time.perf_counter() - t0
    results = {
        "mollifier": "bump",
        "beta0": {"value": cfg["beta0"], "error": "exact"},
        "euler_gamma": {"value": EULER_GAMMA, "error": "exact"},
        "pair_profile_at_zero": {"value": float(profile(np.asarray(0.0))), "error": 1e-12},
        "beta_phi": {"value": bphi, "error": 1e-10},
        "beta_star": {"value": bstar, "error": 2e-10},
    }
    rows = [
        ["beta_phi", _fmt(bphi)],
        ["beta_star", _fmt(bstar)],
    ]
    return results, ["constant", "value"], rows


def _verify_identities() -> list[dict]:
    """The identity suite: each entry has a residual and its own tolerance."""
    import numpy as np

    from ._rng import stream
    from .gausscalc import bessel_identity_residual
    from .mollifier import Mollifier, pair_profile
    from .specfun import conv_identity_residual, gamma_identity_check, jfn_laplace_residual

    checks = []
    worst = 0.0
    for m in range(1, 9):
        for alpha in (0.1, 1.0, 2.5, 7.0):
            worst = max(worst, abs(gamma_identity_check(m, alpha)))
    checks.append({"identity": "gamma-recursion-moment", "residual": worst, "tolerance": 1e-12})

    rng = stream(314159)
    worst = 0.0
    for _ in range(20):
        b = float(rng.uniform(-1.5, 1.5))
        z = -math.exp(b + 0.3) * float(rng.uniform(1.0, 5.0))
        worst = max(worst, abs(jfn_laplace_residual(z, b)))
    checks.append({"identity": "interaction-weight-laplace", "residual": worst, "tolerance": 1e-6})

    worst = 0.0
    for s, t in ((0.5, 1.0), (0.1, 2.0), (1.0, 1.5)):
        for b in (-1.0, 0.0, 2.0):
            worst = max(worst, abs(conv_identity_residual(s, t, b)))
    checks.append({"identity": "interaction-weight-convolution", "residual": worst, "tolerance": 1e-4})

    worst = 0.0
    for _ in range(50):
        tau, xd, xdp = rng.uniform(0.1, 2.0, size=3)
        worst = max(worst, abs(bessel_identity_residual(float(tau), float(xd), float(xdp))))
    checks.append({"identity": "resolvent-bessel-match", "residual": worst, "tolerance": 1e-8})

    phi = Mollifier.bump()
    checks.append({"identity": "mollifier-unit-mass", "residual": abs(phi.mass() - 1.0), "tolerance": 1e-10})
    checks.append({"identity": "pair-profile-unit-mass",
                   "residual": abs(pair_profile(phi).mass() - 1.0), "tolerance": 1e-8})
    return checks


def _cmd_verify(cfg: dict, timings: dict) -> tuple[dict, list, list]:
    t0 = time.perf_counter()
    checks = _verify_identities()
    timings["suite_seconds"] = time.perf_counter() - t0
    rows = []
    all_pass = True
    for c in checks:
        ok = c["residual"] <= c["tolerance"]
        c["status"] = "pass" if ok else "fail"
        all_pass &= ok
        rows.append([c["identity"], _fmt(c["residual"]), _fmt(c["tolerance"]), c["status"]])
    results = {"suite": "identities", "checks": checks, "all_pass": all_pass}
    if not all_pass:
        results["_exit_override"] = _EXIT_NUMERICAL
    return results, ["identity", "residual", "tolerance", "status"], rows


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

_COMMANDS = {
    "moment": ("limiting correlation functional", _cmd_moment),
    "simulate": ("mollified-SHE Monte Carlo moments", _cmd_simulate),
    "diagrams": ("diagram enumeration and counting", _cmd_diagrams),
    "verify": ("identity-check suites", _cmd_verify),
    "betaconst": ("mollifier constants beta_phi and beta_star", _cmd_betaconst),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critshe",
        description="Moment calculus and direct simulation for the critical-window 2D SHE",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # The namespace holds only what the user typed, as raw strings: _resolve
    # converts it and fills in the defaults, letting a config file sit
    # between the two.
    for command, (help_text, func) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        for opt in _OPTIONS[command]:
            if opt.convert is _bool:
                p.add_argument(opt.flag, dest=opt.dest, action="store_true", help=opt.help)
            else:
                p.add_argument(opt.flag, dest=opt.dest, help=opt.help)
        p.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    """Parse, execute, emit; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args.command, vars(args))
    except CritSheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE

    timings: dict = {"total_seconds": 0.0}
    t_start = time.perf_counter()
    caught: list[warnings.WarningMessage] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results, header, rows = args.func(cfg, timings)
    except (DomainError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (AccuracyError, BlowupError, IntegrandError, RankError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL

    timings["total_seconds"] = time.perf_counter() - t_start
    accuracy_warnings = [w for w in caught
                         if issubclass(w.category, (AccuracyWarning, NonconvergenceWarning))]
    if cfg["stable_output"]:
        timings = {k: 0.0 for k in timings}
    exit_code = int(results.pop("_exit_override", _EXIT_OK)) or (
        _EXIT_WARNINGS if accuracy_warnings else _EXIT_OK
    )

    config_echo = {k: v for k, v in cfg.items() if k not in ("output", "csv_path", "stable_output")}
    config_echo["command"] = args.command
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "config": config_echo,
        "config_hash": config_hash(config_echo),
        "results": results,
        "timings": timings,
        "warnings": sorted(str(w.message) for w in accuracy_warnings),
    }
    try:  # CSV first: a CSV that cannot be written leaves no envelope behind
        if cfg["csv_path"]:
            _write_csv(cfg["csv_path"], header, rows)
        _emit(envelope, cfg["output"])
    except CritSheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    return exit_code


def main() -> None:
    sys.exit(run())
