"""The benchmark's workloads: one closed-loop pass each, plus its checks.

A pass drives the package through its public entry points (``critshe.cli.run``
in-process where a subcommand exists) and returns plain JSON-like outputs.
``check`` compares those outputs with independent or recorded references and
returns one (name, passed) pair per checked operation.  ``PERTURB`` lists, per
check, an output change that the check must reject; the self-test applies it.

Module functions are always called through their module (``cli.run``,
``shesim.two_particle_oracle``), so that the traced run's wrappers, installed
at those names, see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from pathlib import Path

_REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text(encoding="utf-8"))

F = [[1.0, [0.3, -0.2], 0.8]]
Z = [[1.0, [0.0, 0.1], 0.5]]
SIM_F = [[1.0, [4.0, 3.8], 0.6]]        # criterion 9 data
SIM_Z = [[1.0, [4.0, 4.2], 0.5]]
TREND_F = [[1.0, [0.0, 0.0], 0.25]]     # criterion 10 data
TREND_Z = [[1.0, [0.2, 0.1], 0.25]]


def _mix(data):
    return tuple((w, tuple(c), v) for w, c, v in data)


def _cli(argv) -> tuple[int, dict | None]:
    from critshe import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run([str(a) for a in argv])
    text = buf.getvalue()
    return code, (json.loads(text) if text else None)


# Half-width, in standard errors, of every band a sampled output must fall in.
# Each run samples at a fresh seed and one benchmark acceptance checks about a
# hundred such outputs, so a 3-sigma band (0.3% false alarms each) would fail
# correct output in most acceptances.
Z_MAX = 4.0


def _sigma(error: float, ref: dict) -> float:
    """A run's standard error for a sampled output: its reported error, but
    at least the output's seed-to-seed standard deviation at the seed commit.
    The error of one run comes from few randomizations (8 QMC shifts) or
    right-skewed replica products, so it is itself noisy, and it comes out low
    exactly when the estimate does; unfloored, such a run reads as far off."""
    return max(error, ref["sd"])


def _moment_band(error: float, ref: dict) -> float:
    """Half-width of the band around the reference mean of a moment output."""
    ref_sem = ref["sd"] / math.sqrt(len(_REFERENCE["seeds"]))
    return Z_MAX * math.hypot(_sigma(error, ref), ref_sem)


# ---------------------------------------------------------------------------
# moment-n3-qmc
# ---------------------------------------------------------------------------

def moment_argv(seed: int, threads: int) -> list:
    return ["moment", "--n", 3, "--t", 1, "--beta-star", 0, "--f", json.dumps(F),
            "--z-ic", json.dumps(Z), "--mode", "quasi-monte-carlo", "--samples", 16384,
            "--m-max", 4, "--seed", seed, "--threads", threads]


def moment_pass(seed: int, threads: int) -> dict:
    code, env = _cli(moment_argv(seed, threads))
    res = env["results"]
    per_m: dict[str, list] = {}
    for d in res["diagrams"]:
        v, e2 = per_m.get(str(d["m"]), (0.0, 0.0))
        per_m[str(d["m"])] = [v + d["value"], e2 + d["error"] ** 2]
    return {
        "exit": code,
        "per_m": {m: [res["per_m_totals"][m], math.sqrt(e2)] for m, (_, e2) in per_m.items()},
        "total": [res["total"]["value"], res["total"]["error"]],
        "diagram_values": [d["value"] for d in res["diagrams"]],
        "diagram_errors": [d["error"] for d in res["diagrams"]],
        "sampling_s": env["timings"]["correlation_seconds"],
    }


def moment_check(out: dict) -> list:
    ref = _REFERENCE["moment-n3-qmc"]
    checks = [("exit-code", out["exit"] in (0, 3))]
    for m, r in ref["per_m"].items():
        v, e = out["per_m"].get(m, (math.nan, 0.0))
        checks.append((f"order-{m}", abs(v - r["mean"]) <= _moment_band(e, r)))
    v, e = out["total"]
    checks.append(("total", abs(v - ref["total"]["mean"]) <= _moment_band(e, ref["total"])))
    checks.append(("error-bound", _error_ratio(out) <= 2.0))
    return checks


def _error_ratio(out: dict) -> float:
    """Median over diagrams of reported error / the seed commit's median one.

    It grows as the square root of a cut in samples.  The total's own error
    does not serve: one diagram whose 8 randomizations meet the integrand's
    heavy tail can triple it on a correct run."""
    ref = _REFERENCE["moment-n3-qmc"]["diagram_median_error"]
    if len(out["diagram_errors"]) != len(ref):
        return math.inf
    return statistics.median(e / r for e, r in zip(out["diagram_errors"], ref))


# ---------------------------------------------------------------------------
# prelimit-n2
# ---------------------------------------------------------------------------

def simulate_argv(seed: int, threads: int) -> list:
    return ["simulate", "--epsilon", 0.25, "--grid", 128, "--domain", 8, "--replicas", 200,
            "--times", "0.0625,0.125", "--f", json.dumps(SIM_F), "--z-ic", json.dumps(SIM_Z),
            "--seed", seed, "--threads", threads]


def prelimit_pass(seed: int, threads: int) -> dict:
    from critshe import mollifier, shesim

    code, env = _cli(simulate_argv(seed, threads))
    be = env["results"]["beta_eps"]["value"]
    moments = []
    for row in env["results"]["moments"]:
        oracle = shesim.two_particle_oracle(row["t"], _mix(SIM_F), _mix(SIM_Z), 0.25, be,
                                            n_grid=256, domain=16.0)
        moments.append([row["t"], row["estimate"], row["stderr"], oracle])
    limit_code, limit_env = _cli(["moment", "--n", 2, "--t", 0.25, "--beta0", 0,
                                  "--mollifier", "bump", "--f", json.dumps(TREND_F),
                                  "--z-ic", json.dumps(TREND_Z), "--mode", "adaptive-quadrature",
                                  "--seed", seed, "--threads", threads])
    oracles = []
    for eps in (0.2, 0.1):
        b_eps = mollifier.beta_eps(mollifier.CouplingSchedule(epsilon=eps, beta_zero=0.0))
        oracles.append(shesim.two_particle_oracle(0.25, _mix(TREND_F), _mix(TREND_Z), eps, b_eps,
                                                  n_grid=512, domain=12.8))
    return {
        "exit": code,
        "moments": moments,
        "limit": [limit_code, limit_env["results"]["total"]["value"]],
        "trend_oracles": oracles,
        "sampling_s": env["timings"]["simulation_seconds"],
    }


def _sim_sigma(t, se) -> float:
    return _sigma(se, _REFERENCE["prelimit-n2"][str(t)])


def prelimit_check(out: dict) -> list:
    checks = [("simulate-exit", out["exit"] == 0)]
    for t, est, se, oracle in out["moments"]:
        checks.append((f"z-t{t}", abs(est - oracle) < Z_MAX * _sim_sigma(t, se)))
    limit_code, limit = out["limit"]
    gaps = [v - limit for v in out["trend_oracles"]]
    checks.append(("limit-exit", limit_code == 0))
    checks.append(("trend-one-sided", all(g > 0 for g in gaps) or all(g < 0 for g in gaps)))
    checks.append(("trend-shrinking", all(abs(a) > abs(b) for a, b in zip(gaps, gaps[1:]))))
    return checks


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _set(path, fn):
    """An output perturbation: apply ``fn`` to the value at ``path``."""
    def apply(out):
        out = json.loads(json.dumps(out))
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])
        return out
    return apply


def _away(ref):
    """Move a (value, error) pair just beyond its band around the reference."""
    def apply(ve):
        value, error = ve
        return [ref["mean"] + math.copysign(1.01 * _moment_band(error, ref), value - ref["mean"]),
                error]
    return apply


PASSES = {"moment-n3-qmc": moment_pass, "prelimit-n2": prelimit_pass}
CHECKS = {"moment-n3-qmc": moment_check, "prelimit-n2": prelimit_check}

# check name -> an output change it must reject
PERTURB = {
    "moment-n3-qmc": {
        "exit-code": _set(["exit"], lambda c: 4),
        **{f"order-{m}": _set(["per_m", m], _away(ref))
           for m, ref in _REFERENCE["moment-n3-qmc"]["per_m"].items()},
        "total": _set(["total"], _away(_REFERENCE["moment-n3-qmc"]["total"])),
        "error-bound": _set(["diagram_errors"], lambda es: [
            2.01 * r for r in _REFERENCE["moment-n3-qmc"]["diagram_median_error"]]),
    },
    "prelimit-n2": {
        "simulate-exit": _set(["exit"], lambda c: 3),
        "z-t0.0625": _set(["moments", 0], lambda r: [
            r[0], r[3] + 1.01 * Z_MAX * _sim_sigma(r[0], r[2]), r[2], r[3]]),
        "z-t0.125": _set(["moments", 1], lambda r: [
            r[0], r[3] - 1.01 * Z_MAX * _sim_sigma(r[0], r[2]), r[2], r[3]]),
        "limit-exit": _set(["limit"], lambda cl: [3, cl[1]]),
        "trend-one-sided": _set(["trend_oracles", 1], lambda v: -v),
        "trend-shrinking": _set(["trend_oracles"], lambda vs: vs[::-1]),
    },
}

# the threaded sampling call of a workload, rerun at one thread in the traced run
SINGLE_THREAD = {
    "moment-n3-qmc": (moment_argv, "correlation_seconds"),
    "prelimit-n2": (simulate_argv, "simulation_seconds"),
}


def single_thread(workload: str, seed: int, out: dict) -> tuple[float, bool]:
    """(wall of the sampling call at one thread, results equal to ``out``'s)."""
    argv, timing = SINGLE_THREAD[workload]
    code, env = _cli(argv(seed, 1))
    if workload == "moment-n3-qmc":
        same = [d["value"] for d in env["results"]["diagrams"]] == out["diagram_values"]
    else:
        same = [[r["t"], r["estimate"], r["stderr"]] for r in env["results"]["moments"]] == \
               [m[:3] for m in out["moments"]]
    return env["timings"][timing], same


def s_to_1pct(workload: str, out: dict) -> float:
    """Sampling-call wall time x (reported error / |estimate| / 0.01)^2."""
    if workload == "moment-n3-qmc":
        value, error = out["total"]
    else:
        _, value, error, _ = out["moments"][-1]
    return out["sampling_s"] * (error / abs(value) / 0.01) ** 2


def self_test(workload: str, out: dict) -> list:
    """Names of checks that a perturbed output did not make fail."""
    check = CHECKS[workload]
    blind = []
    for name, perturb in PERTURB[workload].items():
        results = dict(check(perturb(out)))
        if results.get(name, True):
            blind.append(name)
    return blind
