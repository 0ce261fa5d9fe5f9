"""Seeded inputs of the greylp benchmark.

Everything here is deterministic in the workload seed:

* a generator of synthetic grey LPs, written to problem files that the
  program reads like any user file;
* the workload definitions: the ops of one pass, the positioned settings
  each op requests, and the layer calls each op makes at this version of
  the program;
* HiGHS reference values (``scipy.optimize.linprog(method="highs")``) for
  every setting an op's output is checked at.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os

import numpy as np

DEMO_FILE = "data/demo_problem.json"
WORKLOADS = ("demo-grid", "synth-grid", "synth-scatter")

# Relative width of every generated interval: hi = lo * (1 + WIDTH * u),
# u ~ U(0.5, 1).
WIDTH = 0.2
SCATTER_PROBLEMS = 60
# Problem sizes of synth-scatter, in the order they cycle.  60x60 comes twice
# so that the op-latency p50 and p90 fall inside a cluster of like ops (the
# 60x60 positioned_value and degrees calls) rather than on the gap between
# two clusters, where they would jump from seed to seed.
SCATTER_SIZES = (10, 30, 60, 60)
# The badly scaled slice of synth-scatter: this many problems of each kind
# and size.  The slice is drawn from SCALED_SEED, not from the workload seed:
# it is the same problems and queries in every run, so the ops the solver
# gets wrong on it, and so ``failed``, do not change with the seed.
SCALED_PER_KIND_AND_SIZE = 2
SCALED_SEED = 20120716
# Factor applied to the objective, and the factor by which the optimum
# grows, for each kind of badly scaled problem.  Scaling A by 1e-6 and b by
# 1e6 is x -> 1e12 * x, so the optimum grows by 1e12.
SCALE_KINDS = {"objective": 1e-8, "matrix": 1e12}

# The demo's verify-example table: 6 positioned triples and 4 x 11
# satisfaction cells, 56 cells in all.
VERIFY_TRIPLES = 6
VERIFY_LAMBDA_CELLS = 44
VERIFY_CELLS = 2 * VERIFY_TRIPLES + VERIFY_LAMBDA_CELLS


def unit_grid(step: float) -> list[float]:
    """The CLI's uniform grid {0, step, ..., 1}, rebuilt here so that the
    benchmark knows which settings an op requests."""
    count = int(math.floor(1.0 / step + 1e-9))
    values = [round(k * step, 10) for k in range(count + 1)]
    if values[-1] < 1.0:
        values.append(1.0)
    return values


def grid_triples(step: float) -> list[tuple[float, float, float]]:
    """Every uniform (alpha, beta, gamma) triple of the grid, in the
    lexicographic order the program sweeps them."""
    return list(itertools.product(unit_grid(step), repeat=3))


# --- synthetic problems ------------------------------------------------------


def generate_problem(rng: np.random.Generator, m: int, n: int) -> dict:
    """A unit-scale grey LP as ``{"c": (lo, hi), "A": (lo, hi), "b": (lo, hi)}``.

    Every lower bound is positive, so x = 0 is feasible and every positioned
    program is bounded.  Each variable leans on its own constraint row (a
    diagonal entry of 0.5n to 0.75n against off-diagonal entries of 0.1 to 1):
    the simplex then takes about n pivots on every instance, so the work per
    setting depends little on the seed.
    """

    def grey(lo):
        lo = np.round(lo, 4)
        return lo, np.round(lo * (1.0 + WIDTH * rng.uniform(0.5, 1.0, lo.shape)), 4)

    c = grey(rng.uniform(1.0, 10.0, n))
    a_lo = rng.uniform(0.1, 1.0, (m, n))
    k = min(m, n)
    a_lo[np.arange(k), np.arange(k)] = rng.uniform(0.5, 0.75, k) * n
    A = grey(a_lo)
    b = grey(rng.uniform(50.0, 100.0, m))
    return {"c": c, "A": A, "b": b}


def scaled_problem(problem: dict, kind: str | None) -> dict:
    """``problem`` with its objective scaled by 1e-8 (``"objective"``) or its
    matrix by 1e-6 and right-hand side by 1e6 (``"matrix"``)."""
    if kind is None:
        return problem
    c_s, a_s, b_s = {"objective": (1e-8, 1.0, 1.0), "matrix": (1.0, 1e-6, 1e6)}[kind]
    return {
        "c": tuple(v * c_s for v in problem["c"]),
        "A": tuple(v * a_s for v in problem["A"]),
        "b": tuple(v * b_s for v in problem["b"]),
    }


def problem_text(problem: dict, name: str) -> str:
    """The problem-file JSON of ``problem``."""

    def pairs(lo, hi):
        return np.stack([lo, hi], axis=-1).tolist()

    doc = {
        "name": name,
        "objective": pairs(*problem["c"]),
        "matrix": pairs(*problem["A"]),
        "rhs": pairs(*problem["b"]),
    }
    return json.dumps(doc) + "\n"


def load_problem(path: str) -> dict:
    """Read a problem file into the lo/hi arrays used for references."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    arrays = {}
    for key, field in (("c", "objective"), ("A", "matrix"), ("b", "rhs")):
        a = np.asarray(doc[field], dtype=float)
        arrays[key] = (a[..., 0], a[..., 1])
    return arrays


# --- HiGHS references ----------------------------------------------------------


def _whiten(pair, t):
    lo, hi = pair
    return t * hi + (1.0 - t) * lo


def _highs_max(c, A, b) -> float:
    from scipy.optimize import linprog

    res = linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS reference solve failed: {res.message}")
    return -float(res.fun)


def reference_values(problem: dict, settings: list, cache_dir: str | None = None) -> list[float]:
    """HiGHS optimum of ``problem`` whitened at each setting.

    A setting is ``(alpha, beta, gamma)``, each a number or an array of the
    matching shape.  Results are cached under ``cache_dir`` by a hash of the
    problem and the settings, since they depend on nothing else.
    """
    digest = hashlib.sha256()
    for pair in (problem["c"], problem["A"], problem["b"]):
        for a in pair:
            digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
    for setting in settings:
        for t in setting:
            digest.update(np.ascontiguousarray(t, dtype=float).tobytes())
    path = None
    if cache_dir is not None:
        path = os.path.join(cache_dir, digest.hexdigest() + ".json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
    values = [
        _highs_max(_whiten(problem["c"], a), _whiten(problem["A"], g), _whiten(problem["b"], b))
        for a, b, g in settings
    ]
    if path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(values, fh)
        os.replace(tmp, path)
    return values


# --- layer calls per op, at this version of the program ----------------------


def expected_calls(kind: str, settings: int = 0, lambdas: int = 0) -> dict[str, int]:
    """Calls each traced function makes in one op that completes normally.

    These follow the program's call structure today, for example ``degrees``
    validates its problem three times (parse, bounds, positioned_value).
    """
    G = settings
    if kind == "positioned_value":
        return {
            "satisfaction.positioned_value": 1,
            "grey_core.validate_problem": 1,
            "grey_core.build_positioned": 1,
            "lp_solver.solve_max": 1,
        }
    calls = {"cli.run": 1, "cli.parse_problem": 1}
    if kind in ("sweep", "satisfactory"):
        calls.update({
            "grey_core.validate_problem": 3,
            "grey_core.uniform_coefficients": G + 2,
            "grey_core.build_positioned": G + 2,
            "lp_solver.solve_max": G + 2,
            "satisfaction.bounds": 1,
            "satisfaction.pleased_degree": G,
            "analysis.grid_sweep": 1,
        })
        if kind == "sweep":
            calls["satisfaction.lambda_satisfaction"] = G * lambdas
            calls["analysis.render_table"] = 1
        else:
            calls["satisfaction.lambda_satisfaction"] = G
            calls["analysis.find_satisfactory"] = 1
    elif kind == "monotonicity":
        calls.update({
            "grey_core.validate_problem": 2,
            "grey_core.uniform_coefficients": G,
            "grey_core.build_positioned": G,
            "lp_solver.solve_max": G,
            "analysis.check_monotonicity": 1,
        })
    elif kind == "verify-example":
        K = VERIFY_TRIPLES
        calls.update({
            "grey_core.validate_problem": K + 2,
            "grey_core.uniform_coefficients": K + 2,
            "grey_core.build_positioned": K + 2,
            "lp_solver.solve_max": K + 2,
            "satisfaction.bounds": 1,
            "satisfaction.positioned_value": K,
            "satisfaction.pleased_degree": K,
            "satisfaction.lambda_satisfaction": VERIFY_LAMBDA_CELLS,
        })
    elif kind == "degrees":
        calls.update({
            "grey_core.validate_problem": 3,
            "grey_core.uniform_coefficients": 3,
            "grey_core.build_positioned": 3,
            "lp_solver.solve_max": 3,
            "satisfaction.bounds": 1,
            "satisfaction.positioned_value": 1,
            "satisfaction.pleased_degree": 1,
            "satisfaction.lambda_satisfaction": 1,
        })
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return calls


# --- workload definitions ------------------------------------------------------


def _fmt(v: float) -> str:
    return repr(float(v))


class _Plan:
    """Collects the ops of one pass together with their references."""

    def __init__(self, cache_dir):
        self.cache_dir = cache_dir
        self.ops: list[dict] = []
        self._bounds: dict[str, tuple[float, float]] = {}

    def _op(self, kind, settings, ref, scaled=False, argv=None, **extra):
        op = {"id": len(self.ops), "kind": kind, "settings": settings, "scaled": scaled,
              "argv": argv, "ref": ref, **extra}
        self.ops.append(op)

    def bounds(self, path, problem, factor=1.0):
        """HiGHS critical and ideal values of the problem in ``path``."""
        if path not in self._bounds:
            crit, ideal = reference_values(problem, [(0, 0, 1), (1, 1, 0)], self.cache_dir)
            self._bounds[path] = (crit * factor, ideal * factor)
        return self._bounds[path]

    def grid_values(self, problem, step):
        return reference_values(problem, grid_triples(step), self.cache_dir)

    def sweep(self, path, problem, step, lambdas):
        crit, ideal = self.bounds(path, problem)
        argv = ["sweep", "--file", path, "--step", _fmt(step),
                "--lambdas", ",".join(_fmt(v) for v in lambdas)]
        G = len(grid_triples(step))
        ref = {"step": step, "lambdas": list(lambdas), "critical": crit, "ideal": ideal,
               "f": self.grid_values(problem, step)}
        self._op("sweep", G, ref, argv=argv, expect=expected_calls("sweep", G, len(lambdas)))

    def satisfactory(self, path, problem, mu0, lam, step):
        crit, ideal = self.bounds(path, problem)
        argv = ["satisfactory", "--file", path, "--mu0", _fmt(mu0), "--lambda", _fmt(lam),
                "--step", _fmt(step)]
        G = len(grid_triples(step))
        ref = {"step": step, "mu0": mu0, "lam": lam, "critical": crit, "ideal": ideal,
               "f": self.grid_values(problem, step)}
        self._op("satisfactory", G, ref, argv=argv, expect=expected_calls("satisfactory", G))

    def monotonicity(self, path, axis, step):
        g = len(unit_grid(step))
        argv = ["monotonicity", "--file", path, "--axis", axis, "--step", _fmt(step)]
        ref = {"axis": axis, "pairs": g * g * (g - 1)}
        self._op("monotonicity", g**3, ref, argv=argv, expect=expected_calls("monotonicity", g**3))

    def verify_example(self):
        self._op("verify-example", VERIFY_TRIPLES, {"cells": VERIFY_CELLS},
                 argv=["verify-example"], expect=expected_calls("verify-example"))

    def degrees(self, path, problem, triple, lam, mu0, factor=1.0, scaled=False):
        crit, ideal = self.bounds(path, problem, factor)
        (f,) = reference_values(problem, [triple], self.cache_dir)
        argv = ["degrees", "--file", path, "--alpha", _fmt(triple[0]), "--beta", _fmt(triple[1]),
                "--gamma", _fmt(triple[2]), "--lambda", _fmt(lam), "--mu0", _fmt(mu0),
                "--precise"]
        ref = {"f": f * factor, "critical": crit, "ideal": ideal, "lam": lam, "mu0": mu0}
        self._op("degrees", 1, ref, argv=argv, scaled=scaled, expect=expected_calls("degrees"))

    def positioned_value(self, path, problem, coeffs, factor=1.0, scaled=False):
        crit, ideal = self.bounds(path, problem, factor)
        alphas, betas, gammas = coeffs
        (f,) = reference_values(problem, [(alphas, betas, gammas)], self.cache_dir)
        ref = {"f": f * factor, "critical": crit, "ideal": ideal}
        self._op("positioned_value", 1, ref, scaled=scaled, file=path,
                 coeffs={"alphas": alphas.tolist(), "betas": betas.tolist(),
                         "gammas": gammas.tolist()},
                 expect=expected_calls("positioned_value"))


def _write(workdir, name, text):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _unit4(rng, size=None):
    """Uniform draws in [0, 1] rounded to 4 decimals, so a value passed on
    the command line parses back to exactly the value used for references."""
    return np.round(rng.uniform(0.0, 1.0, size), 4)


# Wall-clock seconds of one untraced pass, with its calibration runs and
# output checks, on the 2-core shared host the benchmark was tuned on, where
# a calibration chunk takes about 1.2 x speed.REF_CHUNK_S.
PASS_S = {"demo-grid": 3.6, "synth-grid": 2.1, "synth-scatter": 2.45}


def pass_count(workload: str, seconds: float, trace: int) -> int:
    """The number of passes a run makes: about ``seconds`` of work on the
    reference host, at least 3 (4 traced), and even when traced so that
    untraced and traced passes pair up.  The count depends on nothing
    measured, so a run of a seed attempts the same ops every time."""
    count = max(4 if trace else 3, round(seconds / PASS_S[workload]))
    return count + count % 2 if trace else count


def build_plan(workload: str, seed: int, workdir: str, cache_dir: str | None = None) -> dict:
    """Write the workload's problem files under ``workdir`` and return its plan:
    the files to parse at set-up and the ops of one pass with references."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    pb = _Plan(cache_dir)
    files: list[str] = []

    if workload == "demo-grid":
        # The paper's 2-variable demo; the seed has nothing to vary here.
        demo = load_problem(DEMO_FILE)
        files.append(DEMO_FILE)
        pb.sweep(DEMO_FILE, demo, 0.05, (0.25, 0.5, 0.75, 1.0))
        pb.satisfactory(DEMO_FILE, demo, 0.5, 0.5, 0.05)
        pb.monotonicity(DEMO_FILE, "gamma", 0.05)
        pb.verify_example()

    elif workload == "synth-grid":
        big = generate_problem(rng, 60, 60)
        mid = generate_problem(rng, 30, 30)
        big_path = _write(workdir, "p60.json", problem_text(big, "synthetic 60x60"))
        mid_path = _write(workdir, "p30.json", problem_text(mid, "synthetic 30x30"))
        files += [big_path, mid_path]
        pb.monotonicity(big_path, "gamma", 0.25)
        pb.sweep(big_path, big, 0.25, (0.5, 1.0))
        pb.satisfactory(mid_path, mid, 0.5, 0.5, 0.2)
        triple = tuple(_unit4(rng, 3).tolist())
        pb.degrees(mid_path, mid, triple, float(_unit4(rng)), float(_unit4(rng)))

    else:  # synth-scatter
        kinds: dict[int, str] = {}
        sizes = [SCATTER_SIZES[i % len(SCATTER_SIZES)] for i in range(SCATTER_PROBLEMS)]
        per_size = SCALED_PER_KIND_AND_SIZE
        fixed = np.random.default_rng(SCALED_SEED)
        for size in sorted(set(sizes)):
            same_size = fixed.permutation([i for i, s in enumerate(sizes) if s == size])
            for j, kind in enumerate(SCALE_KINDS):
                for i in same_size[j * per_size:(j + 1) * per_size]:
                    kinds[int(i)] = kind
        grid_target = None
        for i in range(SCATTER_PROBLEMS):
            size = sizes[i]
            kind = kinds.get(i)
            draw = rng if kind is None else np.random.default_rng([SCALED_SEED, i])
            base = generate_problem(draw, size, size)
            path = _write(workdir, f"p{i:02d}.json",
                          problem_text(scaled_problem(base, kind), f"synthetic {size}x{size}"))
            files.append(path)
            factor = SCALE_KINDS[kind] if kind else 1.0
            triple = tuple(_unit4(draw, 3).tolist())
            lam, mu0 = float(_unit4(draw)), float(_unit4(draw))
            coeffs = (_unit4(draw, size), _unit4(draw, size), _unit4(draw, (size, size)))
            pb.degrees(path, base, triple, lam, mu0, factor, scaled=kind is not None)
            pb.positioned_value(path, base, coeffs, factor, scaled=kind is not None)
            if grid_target is None and kind is None and size == SCATTER_SIZES[0]:
                grid_target = (path, base)
        # One coarse grid command of each kind on a small unit-scale problem,
        # so that every traced layer runs on this workload too; together they
        # are 1-2% of a pass.
        path, base = grid_target
        pb.sweep(path, base, 0.5, (0.5,))
        pb.monotonicity(path, "alpha", 0.5)
        pb.satisfactory(path, base, 0.5, 0.5, 0.5)

    return {"workload": workload, "seed": seed, "files": files, "ops": pb.ops}
