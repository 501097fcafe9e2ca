"""numpy's table formatting against Python's own: '%.15g' %, repr, json.dumps and str."""

import json
import sys

import numpy as np
import pytest

from raysplit import _text


def g15(x):
    return _text.block("%.15g\n")([x])


def g15_oracle(x):
    return "".join("%.15g\n" % v for v in x.tolist())


def shortest(x):
    return _text.block("%s", ",")([x])


def shortest_oracle(x):
    return ",".join(map(json.dumps, x.tolist()))


def assert_same(x):
    x = np.asarray(x, dtype=np.float64)
    for kernel, oracle in ((g15, g15_oracle), (shortest, shortest_oracle)):
        got, want = kernel(x), oracle(x)
        if got != want:   # name the first cells that differ
            sep = "\n" if kernel is g15 else ","
            bad = [(v, a, b) for v, a, b in zip(x.tolist(), got.split(sep), want.split(sep))
                   if a != b]
            pytest.fail(f"{kernel.__name__}: {bad[:5]}")


def test_random_bit_patterns():
    bits = np.random.default_rng(1).integers(0, 2 ** 64, 1_000_000, dtype=np.uint64)
    assert_same(bits.view(np.float64))


def test_log_uniform_values_over_every_exponent():
    rng = np.random.default_rng(2)
    x = 10.0 ** rng.uniform(-308, 308, 300_000) * rng.choice([-1.0, 1.0], 300_000)
    assert_same(x)
    # every binary exponent, with a random significand
    exps = np.repeat(np.arange(-1074, 1024), 50)
    assert_same(np.ldexp(rng.uniform(1.0, 2.0, exps.size), exps))


def test_the_fixed_and_exponent_notation_edges():
    # repr switches to an exponent at 1e16 and below 1e-4, '%.15g' at 1e15 and below 1e-4
    rng = np.random.default_rng(3)
    edges = 10.0 ** np.arange(-6, 19)
    assert_same(np.concatenate([(edges * rng.uniform(0.999, 1.001, (2000, 1))).ravel(),
                                np.nextafter(edges, 0), np.nextafter(edges, np.inf)]))


@pytest.mark.parametrize("digits", [15, 16, 17])
def test_decimal_ties_and_near_ties(digits):
    rng = np.random.default_rng(digits)
    k = rng.integers(10 ** (digits - 1), 10 ** digits, 5_000).astype(np.float64)
    ties = (k + 0.5)[:, None] * 10.0 ** np.arange(-30, 31, 6)
    assert_same(np.concatenate([(k + 0.5), ties.ravel(), np.nextafter(ties, 0).ravel()]))


def test_carries_and_powers_of_ten():
    # 1e23 lies on the round-trip boundary of its double: repr reads "1e+23"
    assert_same([999999999999999.5, 9999999999999999.0, 99999999999999.95, 0.9999999999999995,
                 9.9999999999999995e22, 1e22, 1e23, 1e-5, 0.0001, 1e15, 1e16, 1e17])
    assert_same(10.0 ** np.arange(-323, 309))
    assert shortest(np.array([1e23, 1e22, 1e16])) == "1e+23,1e+22,1e+16"


def test_powers_of_two_subnormals_signed_zero_and_non_finite():
    assert_same(np.ldexp(1.0, np.arange(-1074, 1024)))
    assert_same(-np.ldexp(1.0, np.arange(-1074, 1024)))
    tiny = np.random.default_rng(4).integers(1, 2 ** 52, 10_000, dtype=np.uint64).view(np.float64)
    assert_same(np.concatenate([tiny, -tiny]))
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, sys.float_info.max,
               -sys.float_info.max, sys.float_info.min, 1e-270, 1e270]
    assert_same(special)
    assert shortest(np.array(special[:5])) == "0.0,-0.0,Infinity,-Infinity,NaN"
    assert g15(np.array(special[:5])) == "0\n-0\ninf\n-inf\nnan\n"


def test_integers_and_ranges_as_str():
    info = np.iinfo(np.int64)
    ints = np.array([0, 1, -1, 9, 10, -10, 9999, 10000, -10000, 10 ** 16, info.max, info.min,
                     info.max - 1, info.min + 1], dtype=np.int64)
    ints = np.concatenate([ints, np.random.default_rng(5).integers(info.min, info.max, 10_000)])
    assert _text.block("%s\n")([ints]) == "".join(f"{v}\n" for v in ints.tolist())
    assert _text.block("%s", ",")([ints]) == ",".join(map(json.dumps, ints.tolist()))
    assert _text.block("%s\n")([range(-3, 10 ** 6, 99_999)]) == "".join(
        f"{v}\n" for v in range(-3, 10 ** 6, 99_999))


def test_rows_of_mixed_columns_match_the_template():
    # a %-template row with literal %%, a range, and int and float arrays
    rng = np.random.default_rng(6)
    n = 500
    columns = [range(n), rng.normal(size=n), rng.integers(-10 ** 6, 10 ** 6, n), rng.normal(size=n)]
    row = "%s,%.15g,%s,%%,%.15g\n"
    rows = list(zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns]))
    cells = [c for cells in rows for c in cells]
    assert _text.block(row)(columns) == ("".join([row] * n) % tuple(cells))
    record = '{"a%%s": %s, "b": %s, "c": %s}'
    sep = ",\n  "
    assert _text.block(record, sep)(columns[1:]) == sep.join(
        record % tuple(map(json.dumps, cells[1:])) for cells in rows)
