"""Output checks: each op's result against its HiGHS references.

``check(op, result)`` returns ``None`` when the output is right and a short
reason when it is not.  A CLI result is ``(exit_code, stdout, stderr)``
with ``exit_code`` None when ``run`` raised; a library result is
``(value, error)``.
"""

from __future__ import annotations

import re

from inputs import grid_triples

F_DISPLAY_TOL = 0.005  # half a unit of the CLI's "%.2f"
DEGREE_DISPLAY_TOL = 1e-4  # the CLI's "%.4f", with room for its own rounding
PRECISE_REL_TOL = 1e-6
THRESHOLD_TIE = 1e-9


def pleased(f: float, crit: float, ideal: float) -> float:
    """The paper's pleased degree, 0.5*(1 - critical/f) + 0.5*f/ideal."""
    return 0.5 * (1.0 - crit / f) + 0.5 * f / ideal


def lambda_satisfaction(f: float, crit: float, ideal: float, lam: float) -> float:
    """The paper's lambda-satisfaction degree between the two bounds."""
    gain, spread = f - crit, ideal - crit
    return lam * gain / spread + (1.0 - lam) * gain / (spread + (1.0 - lam) * (ideal - f))


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def _in_unit(v: float) -> bool:
    return 0.0 <= v <= 1.0


def _check_sweep(ref, out):
    triples = grid_triples(ref["step"])
    crit, ideal, lambdas = ref["critical"], ref["ideal"], ref["lambdas"]
    lines = out.splitlines()
    header = ["alpha", "beta", "gamma", "f", "mu"] + ["mu_tilde[%g]" % lam for lam in lambdas]
    if not lines or lines[0].split(",") != header:
        return "unexpected sweep header"
    if len(lines) - 1 != len(triples):
        return f"sweep has {len(lines) - 1} rows, expected {len(triples)}"
    for line, triple, f_ref in zip(lines[1:], triples, ref["f"]):
        cells = [float(v) for v in line.split(",")]
        if any(abs(a - b) > 1e-9 for a, b in zip(cells[:3], triple)):
            return f"sweep row {line!r} is not grid point {triple}"
        f, mu, mu_tildes = cells[3], cells[4], cells[5:]
        if abs(f - f_ref) > F_DISPLAY_TOL + 1e-9 * abs(f_ref):
            return f"sweep f at {triple}: {f} vs HiGHS {f_ref}"
        if not crit - F_DISPLAY_TOL <= f <= ideal + F_DISPLAY_TOL:
            return f"sweep f at {triple} outside [critical, ideal]"
        if not _in_unit(mu) or abs(mu - pleased(f_ref, crit, ideal)) > DEGREE_DISPLAY_TOL:
            return f"sweep mu at {triple}: {mu}"
        for lam, mt in zip(lambdas, mu_tildes):
            want = lambda_satisfaction(f_ref, crit, ideal, lam)
            if not _in_unit(mt) or abs(mt - want) > DEGREE_DISPLAY_TOL:
                return f"sweep mu_tilde[{lam}] at {triple}: {mt} vs {want}"
    return None


_SAT_HEAD = re.compile(r"(\d+) of (\d+) grid setting\(s\) reach ")
_SAT_ROW = re.compile(r"  alpha=(\S+) beta=(\S+) gamma=(\S+)  mu_tilde=(\S+)$")


def _check_satisfactory(ref, out):
    triples = grid_triples(ref["step"])
    mu0, lam = ref["mu0"], ref["lam"]
    want = {t: lambda_satisfaction(f, ref["critical"], ref["ideal"], lam)
            for t, f in zip(triples, ref["f"])}
    lines = out.splitlines()
    head = _SAT_HEAD.match(lines[0]) if lines else None
    if head is None:
        return "unexpected satisfactory header"
    count, total = int(head.group(1)), int(head.group(2))
    if total != len(triples) or count != len(lines) - 1:
        return f"satisfactory reports {count} of {total} with {len(lines) - 1} rows"
    listed = set()
    for line in lines[1:]:
        row = _SAT_ROW.match(line)
        if row is None:
            return f"unexpected satisfactory row {line!r}"
        triple = tuple(float(v) for v in row.groups()[:3])
        if triple not in want:
            return f"satisfactory lists {triple}, not a grid point"
        mt = float(row.group(4))
        if not _in_unit(mt) or abs(mt - want[triple]) > DEGREE_DISPLAY_TOL:
            return f"satisfactory mu_tilde at {triple}: {mt} vs {want[triple]}"
        listed.add(triple)
    must = {t for t, v in want.items() if v > mu0 + THRESHOLD_TIE}
    may = {t for t, v in want.items() if v >= mu0 - THRESHOLD_TIE}
    if not must <= listed <= may:
        return (f"satisfactory lists {len(listed)} settings; the reference has "
                f"{len(must)} to {len(may)}")
    return None


def _check_monotonicity(ref, out):
    expected = [f"pairs checked = {ref['pairs']}", "violations = 0"]
    lines = out.splitlines()
    if not lines or not lines[0].startswith(f"axis = {ref['axis']} ") or lines[1:] != expected:
        return "monotonicity reports " + " / ".join(lines[1:4])
    return None


def _check_verify(ref, out):
    last = out.splitlines()[-1] if out else ""
    if last != f"result: {ref['cells']} of {ref['cells']} cells match":
        return f"verify-example: {last!r}"
    return None


def _check_value(ref, f):
    if not _close(f, ref["f"], PRECISE_REL_TOL):
        return f"f = {f!r} vs HiGHS {ref['f']!r}"
    lo, hi = ref["critical"], ref["ideal"]
    if not lo * (1 - PRECISE_REL_TOL) <= f <= hi * (1 + PRECISE_REL_TOL):
        return f"f = {f!r} outside [critical, ideal]"
    return None


_DEGREES = re.compile(
    r"f = (\S+)\nmu = (\S+)\nmu_tilde\[lambda=[^\]]*\] = (\S+)\n"
    r"pleased \(mu >= [^)]*\): (yes|no)\nsatisfactory \(mu_tilde >= [^)]*\): (yes|no)\n"
)


def _check_degrees(ref, out):
    match = _DEGREES.fullmatch(out)
    if match is None:
        return f"unexpected degrees output {out!r}"
    f, mu, mt = (float(v) for v in match.groups()[:3])
    verdicts = match.groups()[3:]
    problem = _check_value(ref, f)
    if problem:
        return "degrees " + problem
    crit, ideal, mu0 = ref["critical"], ref["ideal"], ref["mu0"]
    for name, got, want, verdict in (
        ("mu", mu, pleased(ref["f"], crit, ideal), verdicts[0]),
        ("mu_tilde", mt, lambda_satisfaction(ref["f"], crit, ideal, ref["lam"]), verdicts[1]),
    ):
        if not _in_unit(got) or abs(got - want) > PRECISE_REL_TOL:
            return f"degrees {name} = {got!r} vs {want!r}"
        if abs(want - mu0) > THRESHOLD_TIE and verdict != ("yes" if want >= mu0 else "no"):
            return f"degrees {name} verdict {verdict!r} at mu0 = {mu0}"
    return None


_CLI_CHECKS = {
    "sweep": _check_sweep,
    "satisfactory": _check_satisfactory,
    "monotonicity": _check_monotonicity,
    "verify-example": _check_verify,
    "degrees": _check_degrees,
}


def check(op: dict, result) -> str | None:
    """Why ``result`` is wrong for ``op``, or None when it is right."""
    if op["kind"] == "positioned_value":
        value, error = result
        if error is not None:
            return f"positioned_value raised {error}"
        problem = _check_value(op["ref"], value)
        return problem and "positioned_value " + problem
    code, out, err = result
    if code != 0:
        return f"{op['kind']} exited with {code}: {err.strip()[:200]}"
    return _CLI_CHECKS[op["kind"]](op["ref"], out)
