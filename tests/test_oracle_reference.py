"""The oracle's polish against its generic references, with no scipy.

``oracle.minimize`` runs the Nelder-Mead simplex on four parameters with every
coordinate unpacked, and ``oracle._idempotent_from_params`` hands the cell cost
the chart's four entries.  The reference bodies below are the list-based
simplex for any number of parameters and the affine chart on ``Mat2``, with
the same IEEE operations in the same order, so the two must agree bit for
bit: every coordinate of the result by ``float.hex``, the number of calls of
the objective, and every entry of the chart.
"""

import math
from functools import reduce
from operator import add

from hypothesis import example, given, settings
from hypothesis import strategies as st

import amnm
from amnm import Mat2
from amnm.oracle import _FATOL, _MAXITER, _XATOL, _ordered

# ---------------------------------------------------------------------------
# The references.
# ---------------------------------------------------------------------------


def ref_minimize(fun, x0) -> list[float]:
    """The list-based Nelder-Mead port for ``len(x0)`` parameters."""
    n = len(x0)
    sim = [list(x0)]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim.append(y)
    fsim = [fun(x) for x in sim]
    sim, fsim = _ordered(*_ordered(sim, fsim))
    for _ in range(_MAXITER - 1):
        best = sim[0]
        if fsim[-1] - fsim[0] <= _FATOL and all(
            abs(x - b) <= _XATOL for v in sim[1:] for x, b in zip(v, best)
        ):
            break
        last = sim[-1]
        xbar = [reduce(add, col) / n for col in zip(*sim[:-1])]
        xr = [2 * c - x for c, x in zip(xbar, last)]
        fxr = fun(xr)
        if fxr < fsim[0]:
            xe = [3 * c - 2 * x for c, x in zip(xbar, last)]
            fxe = fun(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = [1.5 * c - 0.5 * x for c, x in zip(xbar, last)]
                fxc = fun(xc)
                accept = fxc <= fxr
            else:  # inside contraction
                xc = [0.5 * c + 0.5 * x for c, x in zip(xbar, last)]
                fxc = fun(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (x - b) for b, x in zip(best, sim[j])]
                    fsim[j] = fun(sim[j])
        sim, fsim = _ordered(sim, fsim)
    return sim[0]


def _sq(t) -> float:
    return t.real * t.real + t.imag * t.imag


def ref_idempotent_from_params(x, chart) -> Mat2 | None:
    """The ``Mat2`` chart: ``v u* / (u* v)`` from the tuples ``u`` and ``v``, each with one
    coordinate 1 (bit 0 of ``chart`` puts it second in ``u``, bit 1 in ``v``)."""
    z, w = complex(x[0], x[1]), complex(x[2], x[3])
    u = (z, 1.0) if chart & 1 else (1.0, z)
    v = (w, 1.0) if chart & 2 else (1.0, w)
    cu = (u[0].conjugate(), u[1].conjugate())
    pairing = cu[0] * v[0] + cu[1] * v[1]
    nu, nv = _sq(u[0]) + _sq(u[1]), _sq(v[0]) + _sq(v[1])
    if not 1e-6 * nu * nv <= _sq(pairing) < math.inf:
        return None
    return Mat2(*(v[i] * cu[j] / pairing for i in (0, 1) for j in (0, 1)))


# ---------------------------------------------------------------------------
# The simplex.
# ---------------------------------------------------------------------------


def _objective(kind, centre, scale, wall, nan_below):
    """A 4-D objective: a weighted quadratic, or a plateau at 1 (tied values and
    shrinks), optionally with the oracle's ``1e6`` wall past ``x[0] = wall`` and
    NaN where ``x[1] < nan_below``."""

    def f(x):
        if wall is not None and x[0] > wall:
            return 1e6
        if nan_below is not None and x[1] < nan_below:
            return math.nan
        if kind == "plateau":
            return max(1.0, max(abs(t - c) * s for t, c, s in zip(x, centre, scale)))
        return sum(s * (t - c) ** 2 for t, c, s in zip(x, centre, scale))

    return f


_coord = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))  # zero entries take the 0.00025 step


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "plateau"]),
    centre=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    scale=st.lists(st.floats(0.1, 10.0), min_size=4, max_size=4),
    wall=st.one_of(st.none(), st.floats(-1.0, 2.0)),
    nan_below=st.one_of(st.none(), st.floats(-2.0, 0.5)),
    x0=st.lists(_coord, min_size=4, max_size=4),
)
@example(  # every coordinate takes the zero step; the plateau ties and shrinks
    kind="plateau", centre=[0.0] * 4, scale=[1.0] * 4, wall=None, nan_below=None, x0=[0.0] * 4
)
@example(  # the start sits on the wall
    kind="quadratic", centre=[2.0] * 4, scale=[1.0] * 4, wall=1.2, nan_below=None,
    x0=[1.0, 0.5, 0.0, 1.5],
)
@example(  # a NaN region next to the start
    kind="quadratic", centre=[0.3, -0.4, 0.0, 0.0], scale=[1.0] * 4, wall=None, nan_below=-0.5,
    x0=[0.0] * 4,
)
def test_four_parameter_simplex_is_the_generic_port_bit_for_bit(
    kind, centre, scale, wall, nan_below, x0
):
    """Same result bits and the same number of calls as the generic port, and
    ``minimize`` counts its own calls."""
    fun = _objective(kind, centre, scale, wall, nan_below)
    calls = {"ours": 0, "ref": 0}

    def counted(key):
        def f(x):
            calls[key] += 1
            return fun(x)

        return f

    ours, nfev = amnm.oracle.minimize(counted("ours"), x0)
    ref = ref_minimize(counted("ref"), x0)
    assert [v.hex() for v in ours] == [v.hex() for v in ref]
    assert nfev == calls["ours"] == calls["ref"]


# ---------------------------------------------------------------------------
# The chart.
# ---------------------------------------------------------------------------


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


_param = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e8, -1e160, 1e160]),
)


@settings(max_examples=500, deadline=None)
@given(x=st.lists(_param, min_size=4, max_size=4), chart=st.integers(0, 3))
@example(x=[1.0, 0.0, -1.0, 0.0], chart=0)  # u = (1, 1) and v = (1, -1) orthogonal: no point
@example(x=[1.0, 0.0, -0.998, 0.0], chart=3)  # |u* v|**2 just inside 1e-6 |u|**2 |v|**2
@example(x=[1.0, 0.0, -0.999, 0.0], chart=1)  # just outside
@example(x=[1e160, 0.0, 1e160, 0.0], chart=0)  # the squares overflow
def test_chart_entries_are_the_mat2_charts_bit_for_bit(x, chart):
    """``_idempotent_from_params`` gives the entries of the ``Mat2`` chart, bit
    for bit, and None exactly where that gives None."""
    ours = amnm.oracle._idempotent_from_params(x, chart)
    ref = ref_idempotent_from_params(x, chart)
    if ref is None:
        assert ours is None
        return
    assert type(ours) is tuple
    assert [_bits(z) for z in ours] == [_bits(z) for z in ref]
