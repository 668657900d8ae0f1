"""The correctness gate: parse each command's output and check it against the
paper's class-count laws.

A command fails when it exits nonzero, when its output does not parse or
has another header than the fixed one, or when its class counts break the
law for its method and gamma.  The laws, with gamma_eff = gamma + shift
(tau 0, inviscid 1, galerkin 2) and a degree-n system having n-3
eigenvalues in all:

- gamma_eff < 1/2: exactly 2 spurious positive;
- gamma_eff = 1/2: exactly 2 near infinite and no spurious positive;
- 1/2 < gamma_eff <= 7/2: no spurious, no complex, distinct, interlaced;
- gamma_eff > 7/2: only the total is checked.

modified_tau must give galerkin's finite class counts at the same
(gamma, n); collocation must give n-3 eigenvalues; a verification suite
must report PASS.  This module imports nothing from the program: the
expected headers and laws are written out here, independently.
"""

from __future__ import annotations

import json

from workloads import GAMMA_SHIFT, Op

SPECTRUM_CSV_HEADER = "index,re,im,class,parity,residual"
SWEEP_CSV_HEADER = (
    "gamma,n,method,alpha,parity,n_real_negative,n_spurious_positive,"
    "n_complex,n_infinite,extreme_re,extreme_im"
)
SWEEP_KIND = {"tau": "tau", "galerkin": "galerkin", "inviscid": "inviscid_galerkin"}
CLASSES = ("real_negative", "spurious_positive", "complex_pair", "near_infinite")
FINITE_CLASSES = CLASSES[:3]
DISTINCT_REL = 1e-8  # the documented minimum relative gap between real eigenvalues
MANIFEST_PREFIX = "# manifest: "


class GateError(Exception):
    """Output that does not parse or does not have the fixed layout."""


def law_problems(method: str, gamma: float, n: int, counts: dict, distinct=None, interlaced=None) -> list[str]:
    """Breaches of the class-count law for tau, galerkin or inviscid.

    ``distinct`` and ``interlaced`` are checked when given (spectrum
    commands); sweep rows carry counts only.
    """
    g = gamma + GAMMA_SHIFT[method]
    total = sum(counts[c] for c in CLASSES)
    where = f"{method} gamma={gamma!r} n={n}"
    problems = []
    if total != n - 3:
        problems.append(f"{where}: {total} eigenvalues, expected n-3 = {n - 3}")
    if g < 0.5:
        if counts["spurious_positive"] != 2:
            problems.append(f"{where}: {counts['spurious_positive']} spurious positive, expected 2")
    elif g == 0.5:
        if counts["near_infinite"] != 2 or counts["spurious_positive"] != 0:
            problems.append(f"{where}: counts {counts}, expected 2 near infinite and no spurious")
    elif g <= 3.5:
        if counts["spurious_positive"] or counts["complex_pair"]:
            problems.append(f"{where}: counts {counts}, expected no spurious and no complex")
        if distinct is not None and distinct is not True:
            problems.append(f"{where}: spectrum not distinct")
        if interlaced is not None and interlaced is not True:
            problems.append(f"{where}: spectrum not interlaced")
    return problems


def _manifest(line: str, argv: list[str]) -> None:
    if not line.startswith(MANIFEST_PREFIX):
        raise GateError(f"first line is not a manifest: {line[:60]!r}")
    _check_command(json.loads(line[len(MANIFEST_PREFIX) :]), argv)


def _check_command(manifest: dict, argv: list[str]) -> None:
    if manifest.get("command") != argv:
        raise GateError(f"manifest command {manifest.get('command')!r} is not the argv given")


def _tally(classes: list[str]) -> dict:
    unknown = set(classes) - set(CLASSES)
    if unknown:
        raise GateError(f"unknown classes {sorted(unknown)}")
    return {c: classes.count(c) for c in CLASSES}


def _distinct_interlaced(rows: list[tuple[float, str, str]]) -> tuple[bool, bool]:
    """Recompute both properties from (re, class, parity) rows."""
    reals = sorted((re, par) for re, cls, par in rows if cls in ("real_negative", "spurious_positive"))
    distinct = all(abs(b - a) > DISTINCT_REL * max(abs(a), abs(b), 1e-300) for (a, _), (b, _) in zip(reals, reals[1:]))
    seq = [par for _, par in reversed(reals)]
    return distinct, all(p != q for p, q in zip(seq, seq[1:]))


def parse_spectrum(op: Op, text: str) -> tuple[dict, object, object]:
    """Class counts, distinct and interlaced from a spectrum command's output."""
    if op.fmt == "json":
        doc = json.loads(text)
        _check_command(doc["manifest"], op.argv)
        spec = doc["spectrum"]
        counts = {c: int(spec["counts"][c]) for c in CLASSES}
        if _tally([row["class"] for row in spec["eigenvalues"]]) != counts:
            raise GateError("eigenvalue rows disagree with the counts block")
        return counts, spec["distinct"], spec["interlaced"]
    lines = text.splitlines()
    if len(lines) < 2:
        raise GateError("csv output shorter than its header")
    _manifest(lines[0], op.argv)
    if lines[1] != SPECTRUM_CSV_HEADER:
        raise GateError(f"csv header {lines[1]!r} is not the fixed one")
    rows = []
    for i, line in enumerate(lines[2:]):
        fields = line.split(",")
        if len(fields) != 6 or fields[0] != str(i):
            raise GateError(f"malformed csv row {line!r}")
        cls = fields[3]
        if cls == "near_infinite":
            if fields[1] or fields[2]:
                raise GateError(f"near-infinite row carries a value: {line!r}")
            rows.append((0.0, cls, fields[4]))
        else:
            rows.append((float(fields[1]), cls, fields[4]))
            float(fields[2])
        float(fields[5])
    counts = _tally([cls for _, cls, _ in rows])
    distinct, interlaced = _distinct_interlaced(rows)
    return counts, distinct, interlaced


def parse_sweep(op: Op, text: str) -> list[tuple[int, dict]]:
    """(n, class counts) for each row of a sweep's CSV, in order."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise GateError("sweep output shorter than its header")
    _manifest(lines[0], op.argv)
    if lines[1] != SWEEP_CSV_HEADER:
        raise GateError(f"sweep header {lines[1]!r} is not the fixed one")
    rows = lines[2:]
    if len(rows) != len(op.ns):
        raise GateError(f"{len(rows)} sweep rows, expected {len(op.ns)}")
    out = []
    for n, line in zip(op.ns, rows):
        f = line.split(",")
        if len(f) != 11:
            raise GateError(f"malformed sweep row {line!r}")
        if float(f[0]) != op.gamma or int(f[1]) != n or f[2] != SWEEP_KIND[op.method] or f[4] != "both":
            raise GateError(f"sweep row {line!r} is not (gamma={op.gamma}, n={n}, {op.method})")
        for x in f[9:]:
            if x != "null":
                float(x)
        out.append((n, dict(zip(CLASSES, (int(x) for x in f[5:9])))))
    return out


def check(op: Op, rc: int, stdout: str, reference: dict | None = None) -> list[str]:
    """Every problem with one command's result; empty when it passes.

    ``reference`` holds galerkin's finite class counts at the same
    (gamma, n) for a modified_tau command.
    """
    if rc != 0:
        return [f"{' '.join(op.argv)}: exit code {rc}"]
    try:
        if op.kind == "verify":
            first = stdout.splitlines()[0] if stdout else ""
            if first != f"[PASS] suite {op.suite}":
                return [f"suite {op.suite}: {first!r}"]
            return []
        if op.kind == "sweep":
            return [p for n, counts in parse_sweep(op, stdout) for p in law_problems(op.method, op.gamma, n, counts)]
        counts, distinct, interlaced = parse_spectrum(op, stdout)
    except (GateError, ValueError, KeyError, TypeError) as exc:
        return [f"{' '.join(op.argv)}: unparsable output ({type(exc).__name__}: {exc})"]
    if op.method in GAMMA_SHIFT:
        return law_problems(op.method, op.gamma, op.n, counts, distinct, interlaced)
    where = f"{op.method} gamma={op.gamma!r} n={op.n}"
    if op.method == "modified":
        got = {c: counts[c] for c in FINITE_CLASSES}
        return [] if got == reference else [f"{where}: finite counts {got} differ from galerkin's {reference}"]
    total = sum(counts.values())
    return [] if total == op.n - 3 else [f"{where}: {total} eigenvalues, expected n-3 = {op.n - 3}"]
