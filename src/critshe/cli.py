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

SCHEMA_VERSION = "1"

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_WARNINGS = 3
_EXIT_NUMERICAL = 4

_DEFAULT_F = ((1.0, (0.0, 0.0), 0.5),)
_DEFAULT_Z = ((1.0, (0.0, 0.0), 0.5),)


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
# configuration
# ---------------------------------------------------------------------------

def _parse_mixture(text, label: str):
    """A mixture is JSON [[weight, [cx, cy], variance], ...]."""
    if not isinstance(text, str):
        data = text
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"{label}: not valid JSON: {exc}") from exc
    try:
        mix = tuple((float(w), (float(c[0]), float(c[1])), float(v)) for w, c, v in data)
    except (TypeError, ValueError, IndexError) as exc:
        raise ParameterError(
            f"{label}: expected [[weight, [cx, cy], variance], ...], got {data!r}"
        ) from exc
    if not mix:
        raise ParameterError(f"{label}: mixture must have at least one component")
    return mix


def _mixture_json(mix) -> list:
    return [[w, [cx, cy], v] for w, (cx, cy), v in mix]


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


_COMMON_DEFAULTS = {
    "config": None,
    "output": None,
    "csv_path": None,
    "threads": None,
    "stable_output": False,
}

_DEFAULTS = {
    "moment": {
        "n": None, "t": None, "beta_star": None, "beta0": None,
        "mollifier": "bump",
        "f": json.dumps(_mixture_json(_DEFAULT_F)),
        "z_ic": json.dumps(_mixture_json(_DEFAULT_Z)),
        "m_max": 6, "mode": "adaptive-quadrature", "samples": 65536,
        "rel_tol": 1e-3, "seed": 2026, **_COMMON_DEFAULTS,
    },
    "simulate": {
        "n": 2, "epsilon": None, "beta0": 0.0, "mollifier": "bump",
        "grid": 256, "domain": 8.0, "dt": None, "replicas": 2000,
        "times": None,
        "f": json.dumps(_mixture_json(_DEFAULT_F)),
        "z_ic": json.dumps(_mixture_json(_DEFAULT_Z)),
        "seed": 2026, **_COMMON_DEFAULTS,
    },
    "diagrams": {"n": None, "m": None, "count_only": False, **_COMMON_DEFAULTS},
    "verify": {"suite": "identities", **_COMMON_DEFAULTS},
    "betaconst": {"mollifier": "bump", "beta0": 0.0, **_COMMON_DEFAULTS},
}


def _from_config(key: str, value, kind):
    """A config-file value converted as its flag's argparse ``type`` would
    convert it on the command line; JSON null leaves the option unset."""
    if kind is None or value is None:
        return value
    if kind is str:  # a path; a number would be opened as a file descriptor
        if not isinstance(value, str):
            raise ParameterError(
                f"config key {key!r} needs a path string, got {json.dumps(value)}"
            )
        return value
    if isinstance(value, (bool, list, dict)):
        raise ParameterError(f"config key {key!r} needs a number, got {json.dumps(value)}")
    try:
        return kind(str(value))
    except ValueError:
        raise ParameterError(f"config key {key!r}: invalid {kind.__name__} value {value!r}") from None


def _resolve(command: str, given: dict, types: dict) -> dict:
    """Merge precedence: command line > config file > built-in defaults.

    ``given`` holds only what was explicitly passed (the parser suppresses
    everything else); the config file may not introduce unknown keys, and
    its values pass through the flags' ``types`` (dest -> argparse type).
    """
    defaults = _DEFAULTS[command]
    merged = dict(defaults)
    config_path = given.get("config")
    if config_path:
        file_cfg = _load_config_file(config_path)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ParameterError(
                f"unknown config keys {sorted(unknown)}; valid: {sorted(defaults)}"
            )
        merged.update({k: _from_config(k, v, types.get(k)) for k, v in file_cfg.items()})
    merged.update({k: v for k, v in given.items() if k not in ("config", "func", "command")})
    return merged


def _threads(cfg: dict) -> int:
    t = cfg.get("threads")
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
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ParameterError(f"missing required option(s): {', '.join('--' + k.replace('_', '-') for k in missing)}")


def _beta_star_of(cfg: dict) -> float:
    """beta_star directly, or derived from (mollifier, beta0)."""
    if cfg.get("beta_star") is not None:
        return float(cfg["beta_star"])
    from .mollifier import Mollifier, beta_phi, beta_star, pair_profile

    if cfg.get("beta0") is None:
        raise ParameterError("need either --beta-star or --beta0 (with --mollifier)")
    if cfg.get("mollifier", "bump") != "bump":
        raise ParameterError(f"unknown mollifier {cfg.get('mollifier')!r}; available: bump")
    return beta_star(float(cfg["beta0"]), beta_phi(pair_profile(Mollifier.bump()))).value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_moment(cfg: dict, timings: dict) -> tuple[dict, list, list]:
    from .momentengine import MomentRequest, correlation
    from .simplexint import IntegrationPlan

    _require(cfg, "n", "t")
    f = _parse_mixture(cfg["f"], "--f")
    z = _parse_mixture(cfg["z_ic"], "--z-ic")
    cfg["f"], cfg["z_ic"] = _mixture_json(f), _mixture_json(z)
    bstar = _beta_star_of(cfg)
    plan = IntegrationPlan(
        mode=cfg["mode"], samples=int(cfg["samples"]),
        rel_tol=float(cfg["rel_tol"]), seed=int(cfg["seed"]),
    )
    req = MomentRequest(
        n=int(cfg["n"]), t=float(cfg["t"]), beta_star=bstar,
        f=(f,), z_ic=z, m_max=int(cfg["m_max"]), plan=plan,
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
    from .mollifier import CouplingSchedule, Mollifier, beta_eps
    from .shesim import FieldParams, moment_time_series

    _require(cfg, "epsilon", "times")
    if cfg.get("mollifier", "bump") != "bump":
        raise ParameterError(f"unknown mollifier {cfg.get('mollifier')!r}; available: bump")
    eps = float(cfg["epsilon"])
    be = beta_eps(CouplingSchedule(epsilon=eps, beta_zero=float(cfg["beta0"])))
    params = FieldParams(
        epsilon=eps, beta_eps=be, domain=float(cfg["domain"]),
        n_grid=int(cfg["grid"]), phi=Mollifier.bump(),
    )
    times_in = cfg["times"]
    try:
        times = [float(s) for s in (times_in.split(",") if isinstance(times_in, str) else times_in)]
    except (TypeError, ValueError):
        raise ParameterError(f"--times: expected comma-separated numbers, got {times_in!r}") from None
    cfg["times"] = times
    f = _parse_mixture(cfg["f"], "--f")
    z = _parse_mixture(cfg["z_ic"], "--z-ic")
    cfg["f"], cfg["z_ic"] = _mixture_json(f), _mixture_json(z)
    t0 = time.perf_counter()
    ts, est, se = moment_time_series(
        int(cfg["n"]), times, f, z, params,
        replicas=int(cfg["replicas"]), seed=int(cfg["seed"]),
        dt=None if cfg["dt"] is None else float(cfg["dt"]),
        threads=_threads(cfg),
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
    n, m = int(cfg["n"]), int(cfg["m"])
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
    from .mollifier import EULER_GAMMA, Mollifier, beta_phi, beta_star, pair_profile

    if cfg.get("mollifier", "bump") != "bump":
        raise ParameterError(f"unknown mollifier {cfg.get('mollifier')!r}; available: bump")
    t0 = time.perf_counter()
    profile = pair_profile(Mollifier.bump())
    bphi = beta_phi(profile)
    bstar = beta_star(float(cfg["beta0"]), bphi).value
    timings["constants_seconds"] = time.perf_counter() - t0
    import numpy as np

    results = {
        "mollifier": "bump",
        "beta0": {"value": float(cfg["beta0"]), "error": "exact"},
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
    if cfg["suite"] != "identities":
        raise ParameterError(f"unknown suite {cfg['suite']!r}; available: identities")
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

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, help="JSON config file; command-line flags take precedence")
    p.add_argument("--output", type=str, help="envelope path ('-' or omitted: stdout)")
    p.add_argument("--csv", type=str, dest="csv_path", help="optional CSV table path")
    p.add_argument("--threads", type=int,
                   help="worker threads (default: CRITSHE_THREADS or all cores)")
    p.add_argument("--stable-output", action="store_true",
                   help="zero the timing fields for byte-identical envelopes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critshe",
        description="Moment calculus and direct simulation for the critical-window 2D SHE",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # All option defaults are suppressed: the namespace holds only what the
    # user typed, and _resolve fills in _DEFAULTS (letting a config file sit
    # between the two).
    p = sub.add_parser("moment", help="limiting correlation functional",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=float)
    p.add_argument("--beta-star", dest="beta_star", type=float)
    p.add_argument("--beta0", type=float)
    p.add_argument("--mollifier")
    p.add_argument("--f", help='mixture JSON [[weight,[cx,cy],variance],...]')
    p.add_argument("--z-ic", dest="z_ic", help="initial-condition mixture JSON")
    p.add_argument("--m-max", dest="m_max", type=int)
    p.add_argument("--mode",
                   choices=["adaptive-quadrature", "monte-carlo", "quasi-monte-carlo"])
    p.add_argument("--samples", type=int)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("simulate", help="mollified-SHE Monte Carlo moments",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--n", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--beta0", type=float)
    p.add_argument("--mollifier")
    p.add_argument("--grid", type=int)
    p.add_argument("--domain", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--replicas", type=int)
    p.add_argument("--times", help="comma-separated recording times")
    p.add_argument("--f", help='mixture JSON [[weight,[cx,cy],variance],...]')
    p.add_argument("--z-ic", dest="z_ic", help="initial-condition mixture JSON")
    p.add_argument("--seed", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("diagrams", help="diagram enumeration and counting",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--count", dest="count_only", action="store_true",
                   help="emit the count only, no listing")
    _add_common(p)
    p.set_defaults(func=_cmd_diagrams)

    p = sub.add_parser("verify", help="identity-check suites",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--suite")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("betaconst", help="mollifier constants beta_phi and beta_star",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--mollifier")
    p.add_argument("--beta0", type=float)
    _add_common(p)
    p.set_defaults(func=_cmd_betaconst)

    return parser


def _option_types(parser: argparse.ArgumentParser, command: str) -> dict:
    """dest -> argparse ``type`` for every option of ``command``."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest: a.type for a in sub.choices[command]._actions}


def run(argv=None) -> int:
    """Parse, execute, emit; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args.command, vars(args), _option_types(parser, args.command))
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
    if cfg.get("stable_output"):
        timings = {k: 0.0 for k in timings}
    exit_code = int(results.pop("_exit_override", _EXIT_OK)) or (
        _EXIT_WARNINGS if accuracy_warnings else _EXIT_OK
    )

    config_echo = {k: v for k, v in cfg.items()
                   if k not in ("output", "csv_path", "stable_output", "func")}
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
        if cfg.get("csv_path"):
            _write_csv(cfg["csv_path"], header, rows)
        _emit(envelope, cfg.get("output"))
    except CritSheError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    return exit_code


def main() -> None:
    sys.exit(run())
