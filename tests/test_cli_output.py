"""The JSON and CSV writers against the recursive writer they replaced.

``oracle_dumps`` and ``oracle_report_rows`` are the earlier ``cli.dumps``
and ``cli._report_rows``: every value through one ``isinstance`` chain, and
one dict per eigenvalue row.  ``oracle_spectrum_text`` is the earlier
``spectrum`` writer built on them.  The program's writers must give the
same text, and ``dumps`` the same ``TypeError``.
"""

import collections
import contextlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gegtau import cli
from gegtau.eig import DEFAULT_TOLERANCES, NEAR_INFINITE, SpectrumReport
from gegtau.spectra import single_parity_report, spectrum_report


def oracle_fmt_float(x):
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(x, ".17g")


def oracle_dumps(obj):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return oracle_fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {oracle_dumps(v)}" for k, v in obj.items()]
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(oracle_dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def oracle_report_rows(report, residuals):
    rows = []
    for i, (lam, cls) in enumerate(zip(report.eigenvalues, report.classes)):
        par = report.parities[i]
        if cls == NEAR_INFINITE:
            re_part, im_part = None, None
        else:
            re_part, im_part = lam.real, lam.imag
        rows.append({"re": re_part, "im": im_part, "class": cls, "parity": par, "residual": residuals[i]})
    finite = [r for r in rows if r["class"] != NEAR_INFINITE]
    infinite = [r for r in rows if r["class"] == NEAR_INFINITE]
    finite.sort(key=lambda r: (r["re"], r["im"]))
    return finite + infinite


def oracle_spectrum_text(argv):
    """What ``spectrum`` printed for ``argv`` before its rows were built as text."""
    args = cli.build_parser().parse_args(argv)
    config = cli._config_from_args(args)
    if args.parity in ("even", "odd"):
        report = single_parity_report(config, args.parity)
    else:
        report = spectrum_report(config, vectors=True)
    rows = oracle_report_rows(report, cli._eigen_residuals(report))
    config_doc = {"method": config.kind, "gamma": config.gamma, "n": config.n, "alpha": config.alpha,
                  "parity": args.parity}
    manifest = cli.make_manifest(argv, {"config": config_doc})
    if args.format == "json":
        counts = {label: report.count(label)
                  for label in ("real_negative", "spurious_positive", "complex_pair", "near_infinite")}
        spectrum = {"eigenvalues": rows, "counts": counts, "distinct": report.distinct,
                    "interlaced": report.interlaced, "tolerances": DEFAULT_TOLERANCES}
        return oracle_dumps({"manifest": manifest, "spectrum": spectrum}) + "\n"
    lines = ["# manifest: " + oracle_dumps(manifest), "index,re,im,class,parity,residual"]
    for i, r in enumerate(rows):
        re_s = "" if r["re"] is None else oracle_fmt_float(r["re"])
        im_s = "" if r["im"] is None else oracle_fmt_float(r["im"])
        lines.append(f'{i},{re_s},{im_s},{r["class"]},{r["parity"]},{oracle_fmt_float(r["residual"])}')
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dumps


class Tag(str):
    pass


class Items(list):
    pass


Pair = collections.namedtuple("Pair", "a b")

FLOATS = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf]),
)
STRINGS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é€😀", "\ud800", " "]),
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    FLOATS,
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    STRINGS,
    STRINGS.map(Tag),
)
KEYS = st.one_of(STRINGS, st.integers(), FLOATS, st.none(), st.booleans(), STRINGS.map(Tag))
# types the writer refuses: each must raise the oracle's TypeError, also deep inside a container
UNSERIALIZABLE = st.sampled_from([1j, b"bytes", frozenset({1}), np.bool_(True), np.complex128(1j), object()])


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(Items),
        st.builds(Pair, children, children),
        st.dictionaries(KEYS, children, max_size=4),
        st.dictionaries(KEYS, children, max_size=4).map(collections.OrderedDict),
    )


@given(st.recursive(LEAVES, _containers, max_leaves=24))
def test_dumps_matches_oracle(obj):
    assert cli.dumps(obj) == oracle_dumps(obj)


@given(st.recursive(st.one_of(LEAVES, UNSERIALIZABLE), _containers, max_leaves=12))
def test_dumps_refuses_what_the_oracle_refuses(obj):
    try:
        want = oracle_dumps(obj)
    except TypeError as exc:
        with pytest.raises(TypeError, match=re.escape(str(exc))):
            cli.dumps(obj)
    else:
        assert cli.dumps(obj) == want


def test_dumps_writes_raw_json_as_it_is():
    raw = cli.RawJSON('[{"re": 1}]')
    assert cli.dumps({"a": raw, "b": [raw]}) == '{"a": [{"re": 1}], "b": [[{"re": 1}]]}'


# ---------------------------------------------------------------------------
# spectrum


SPECTRUM_GRID = [
    ["spectrum", "--method", method, "--gamma", gamma, "--n", n, "--alpha", alpha, "--parity", parity,
     "--format", fmt]
    for method in sorted(cli.METHOD_NAMES)
    for gamma in ("-0.45", "0.5", "4.5")
    for n in ("8", "33")
    for alpha in ("0", "3")
    for parity in ("both", "even", "odd")
    for fmt in ("json", "csv")
]


def test_report_rows_match_oracle_order():
    # conjugates listed +im first, equal real parts, a -0.0, and near-infinite
    # entries between finite ones: the rows keep the oracle's order and text
    eigenvalues = [-1 + 2j, 5e-324 + 0j, -1 - 2j, 1e300 + 0j, -1 + 0j, -0.0 + 0j, 1e300 + 1j, -1 + 2j]
    classes = ["complex_pair", "spurious_positive", "complex_pair", NEAR_INFINITE, "real_negative",
               "spurious_positive", NEAR_INFINITE, "complex_pair"]
    parities = ["even", "odd", "even", "odd", "even", "odd", "even", "odd"]
    residuals = [0.5, math.nan, 1e-17, math.inf, 0.0, -0.0, 2.5e-310, 3.0]
    report = SpectrumReport(eigenvalues, classes, True, None, parities)
    want = [
        tuple(None if r[k] is None else oracle_fmt_float(r[k]) if k in ("re", "im", "residual") else r[k]
              for k in ("re", "im", "class", "parity", "residual"))
        for r in oracle_report_rows(report, residuals)
    ]
    assert cli._report_rows(report, residuals) == want


def test_spectrum_text_matches_oracle():
    classes = collections.Counter()
    for argv in SPECTRUM_GRID:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, argv
        assert out.getvalue() == oracle_spectrum_text(argv), argv
        if "csv" in argv:
            classes.update(line.split(",")[3] for line in out.getvalue().splitlines()[2:])
    # the grid prints every kind of row: spurious positive (tau at gamma -0.45),
    # near-infinite (modified tau, and tau at gamma 0.5) and complex pairs (tau
    # at gamma 4.5) among them
    assert set(classes) == {"real_negative", "spurious_positive", "complex_pair", "near_infinite"}, classes
