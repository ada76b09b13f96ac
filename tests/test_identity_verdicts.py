"""Each identity is decided in one place and reported there: the kernel's
two forms at base p^delta, the exact kernel match, the spectrum's count
identity in its Weyl row and its angular trace, and a value no float
holds as a usage error."""

import contextlib
import io
import json
from fractions import Fraction

from tateop import angular, cli, operator, spectral


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_a_skewed_coupling_at_base_p_squared_fails_correlator_at_delta_2(skew_coupling):
    # At delta = 2 the two-point function is the kernel at base p^2 = 9, and
    # its case form reads w_1 at (9, 2).
    argv = ["correlator", "--p", "3", "--m", "2", "--x1", "3", "--x2", "1", "--delta", "2"]
    assert _cli(argv)[0] == 0
    skew_coupling(9, 2, 1)
    code, out, err = _cli(argv)
    assert code == 1
    assert out == ""
    assert "kernel forms disagree" in err


def test_a_wrong_radial_multiplicity_fails_the_weyl_row(monkeypatch):
    argv = ["spectrum", "--p", "3", "--m", "2", "--max-conductor", "3"]
    assert _cli(argv)[0] == 0
    exact = spectral.multiplicity

    def wrong(kind, index, ctx):
        return exact(kind, index, ctx) + int(kind == "radial" and index == 2)

    monkeypatch.setattr(spectral, "multiplicity", wrong)
    code, out, _ = _cli(argv)
    doc = json.loads(out)
    assert code == 1 and doc["all_pass"] is False
    assert doc["weyl"] == {"lambda": "18", "count": 37, "m_lambda": "36", "pass": False}


def test_an_entry_past_max_conductor_fails_the_weyl_row(monkeypatch):
    argv = ["spectrum", "--p", "3", "--m", "2", "--max-conductor", "3"]
    assert _cli(argv)[0] == 0
    listed = spectral.enumerate_spectrum
    monkeypatch.setattr(spectral, "enumerate_spectrum", lambda n, ctx: listed(n + 1, ctx))
    code, out, _ = _cli(argv)
    doc = json.loads(out)
    assert code == 1 and doc["all_pass"] is False
    assert doc["total_multiplicity"] == 108
    assert doc["weyl"] == {"lambda": "18", "count": 36, "m_lambda": "36", "pass": False}


def test_a_wrong_exact_angular_value_fails_the_trace_check(monkeypatch):
    # l = 75 of m = 300 is the quarter turn, where t = 2 exactly.
    argv = ["spectrum", "--p", "3", "--m", "300", "--max-conductor", "5"]
    assert _cli(argv)[0] == 0
    monkeypatch.setitem(angular._EXACT_T, Fraction(1, 4), Fraction(3))
    code, out, _ = _cli(argv)
    doc = json.loads(out)
    assert code == 1 and doc["all_pass"] is False
    assert {"kind": "angular", "l": 75, "lambda": "18/13", "mult": 2} in doc["entries"]
    # Only the trace sees it: the Weyl row and the radial checks pass.
    assert doc["weyl"]["pass"] and all(c["pass"] for c in doc["integral_checks"])


def test_kernel_match_is_exact(monkeypatch):
    # A relative change of 1e-13 moves the float kernel by many ulps.
    argv = ["correlator", "--p", "3", "--m", "2", "--x1", "4", "--x2", "1"]
    exact = operator.kernel_H
    monkeypatch.setattr(
        operator, "kernel_H", lambda z, x: exact(z, x) * (1 + Fraction(1, 10**13))
    )
    code, out, _ = _cli(argv)
    doc = json.loads(out)
    assert code == 1
    assert doc["kernel_match"] is False and doc["all_pass"] is False


def test_a_delta_1_kernel_past_the_float_range_is_a_usage_error():
    # The value at --delta fits a float, the delta = 1 kernel printed beside
    # it does not: near 2^1400 its exact value overflows the float, and past
    # 2^2048 two_point refuses it from the exponent.
    for x2, delta in ((1 + 2**700, "0.5"), (1 + 2**3000, "0.1")):
        argv = ["correlator", "--p", "2", "--m", "3", "--x1", "1", "--x2", str(x2)]
        code, out, err = _cli(argv + ["--delta", delta])
        assert code == 2
        assert out == ""
        assert "delta = 1 kernel" in err
