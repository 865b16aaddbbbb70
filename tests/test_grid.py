"""Grid, field and operator substrate."""

import pickle
import subprocess
import sys

import numpy as np
import pytest

from cqhjlab import (
    Boundary,
    Field,
    Grid,
    IntegratorSpec,
    Method,
    cumulative_integral,
    free_potential,
    gaussian_packet,
    gradient,
    integrate,
    laplacian,
    make_field,
    schrodinger_evolve,
)
from cqhjlab.errors import (
    GridMismatch,
    NonFiniteField,
    PeriodicityViolation,
    SchemeMismatch,
)
from cqhjlab.grid import (
    _C4,
    _fd_matrix,
    _fd_weights,
    _spectral_multiplier,
)
from cqhjlab.states import hamiltonian, overlap


@pytest.mark.parametrize("boundary", [Boundary.BOX, Boundary.PERIODIC])
def test_unpickled_grid_keeps_read_only_arrays(boundary):
    g = Grid(-4.0, 4.0, 64, boundary)
    back = pickle.loads(pickle.dumps(g))
    assert back == g
    # dx is computed at construction, span / n or span / (n - 1), and is
    # rebuilt on unpickling; it takes no part in repr
    assert back.dx == g.dx == 8.0 / (64 if boundary is Boundary.PERIODIC else 63)
    assert "dx" not in repr(back)
    assert np.array_equal(back.x, g.x)
    assert np.array_equal(back.quadrature_weights, g.quadrature_weights)
    assert not back.x.flags.writeable
    assert not back.quadrature_weights.flags.writeable


def test_grid_invariants():
    g = Grid(0.0, 10.0, 101, Boundary.BOX)
    assert g.dx == pytest.approx(0.1)
    gp = Grid(0.0, 10.0, 100, Boundary.PERIODIC)
    assert gp.dx == pytest.approx(0.1)
    assert gp.x[0] == 0.0 and gp.x[-1] == pytest.approx(10.0 - gp.dx)


@pytest.mark.parametrize(
    "args",
    [
        (1.0, 0.0, 64, Boundary.BOX),  # reversed bounds
        (0.0, 1.0, 8, Boundary.BOX),  # too few points
    ],
)
def test_grid_rejects_bad_construction(args):
    with pytest.raises(ValueError):
        Grid(*args)


@pytest.mark.parametrize("boundary", [Boundary.BOX, Boundary.PERIODIC])
@pytest.mark.parametrize("bounds", [(0.0, np.inf), (-np.inf, 0.0), (-np.inf, np.inf)])
def test_grid_rejects_non_finite_bounds(bounds, boundary):
    # an infinite bound would give dx = inf and x = [nan, inf, ...]
    with pytest.raises(ValueError, match="must be finite"):
        Grid(*bounds, 64, boundary)


def test_cross_grid_operations_rejected():
    a = make_field(Grid(0.0, 1.0, 64, Boundary.BOX), np.ones(64))
    b = make_field(Grid(0.0, 2.0, 64, Boundary.BOX), np.ones(64))
    with pytest.raises(GridMismatch):
        overlap(a, b)


def test_field_rejects_nonfinite():
    g = Grid(0.0, 1.0, 64, Boundary.BOX)
    vals = np.ones(64, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(NonFiniteField):
        make_field(g, vals)


def test_field_does_not_freeze_caller_array():
    g = Grid(0.0, 1.0, 64, Boundary.BOX)
    vals = np.ones(64, dtype=complex)
    make_field(g, vals)
    vals[0] = 2.0  # must still be writable


def test_spectral_on_box_grid_rejected():
    # the box grid's derivative is finite differences; the FFT-only
    # operations still refuse it
    g = Grid(-8.0, 8.0, 128, Boundary.BOX)
    with pytest.raises(SchemeMismatch):
        g.wavenumbers
    psi = gaussian_packet(g, 0.0, 0.0, 1.0)
    spec = IntegratorSpec(Method.SPLIT_STEP, 1e-4, False)
    with pytest.raises(SchemeMismatch):
        schrodinger_evolve(psi, free_potential(g), spec, 1e-3)


# -- gradient ---------------------------------------------------------------


def test_gradient_plane_wave_spectral():
    g = Grid(0.0, 2 * np.pi, 64, Boundary.PERIODIC)
    k = 3.0  # a grid wavenumber
    f = make_field(g, np.exp(1j * k * g.x))
    df = gradient(f)
    assert np.max(np.abs(df.values - 1j * k * f.values)) <= 1e-12


def test_gradient_constant_is_zero():
    g = Grid(-5.0, 5.0, 128, Boundary.PERIODIC)
    f = make_field(g, np.full(128, 2.3 + 1.1j))
    assert np.max(np.abs(gradient(f).values)) <= 1e-13
    gb = Grid(-5.0, 5.0, 129, Boundary.BOX)
    fb = make_field(gb, np.full(129, 2.3 + 1.1j))
    assert np.max(np.abs(gradient(fb).values)) <= 1e-12


def test_gradient_gaussian_analytic_oracle():
    # d/dx exp(-x^2/2) = -x exp(-x^2/2), spectral at n=256
    g = Grid(-10.0, 10.0, 256, Boundary.PERIODIC)
    f = make_field(g, np.exp(-g.x**2 / 2))
    df = gradient(f)
    assert np.max(np.abs(df.values - (-g.x * np.exp(-g.x**2 / 2)))) <= 1e-8


def test_fd4_box_exact_on_quartic_at_every_point():
    # degree 4 is inside the exactness range of every central and one-sided
    # row; odd and even powers expose a sign slip in the mirrored edge rows
    g = Grid(-1.0, 2.0, 41, Boundary.BOX)
    x = g.x
    f = make_field(g, (1.0 + 0.5j) + 2.0 * x - 3.0 * x**2 + 0.7j * x**3 + 1.3 * x**4)
    d1 = 2.0 - 6.0 * x + 2.1j * x**2 + 5.2 * x**3
    d2 = -6.0 + 4.2j * x + 15.6 * x**2
    assert np.max(np.abs(gradient(f).values - d1)) <= 1e-10
    assert np.max(np.abs(laplacian(f).values - d2)) <= 1e-9


# -- laplacian ----------------------------------------------------------------


def test_laplacian_plane_wave():
    g = Grid(0.0, 2 * np.pi, 64, Boundary.PERIODIC)
    k = 5.0
    f = make_field(g, np.exp(1j * k * g.x))
    lf = laplacian(f)
    assert np.max(np.abs(lf.values + k * k * f.values)) <= 1e-11


def test_laplacian_linear_field_interior():
    g = Grid(-5.0, 5.0, 257, Boundary.BOX)
    f = make_field(g, 1.5 + 0.7 * g.x)
    lf = laplacian(f)
    assert np.max(np.abs(lf.values[2:-2])) <= 1e-10


def test_laplacian_gaussian_analytic_oracle():
    g = Grid(-10.0, 10.0, 256, Boundary.PERIODIC)
    f = make_field(g, np.exp(-g.x**2 / 2))
    lf = laplacian(f)
    exact = (g.x**2 - 1.0) * np.exp(-g.x**2 / 2)
    assert np.max(np.abs(lf.values - exact)) <= 1e-7


# -- quadrature ---------------------------------------------------------------


def test_integrate_constant():
    g = Grid(0.0, 5.0, 101, Boundary.BOX)
    assert integrate(make_field(g, np.ones(101))) == pytest.approx(5.0, abs=1e-12)


def test_integrate_full_period_sine():
    g = Grid(0.0, 2 * np.pi, 128, Boundary.PERIODIC)
    assert abs(integrate(make_field(g, np.sin(g.x)))) <= 1e-12


def test_integrate_gaussian_oracle():
    # known integral of exp(-x^2); tails negligible on [-10, 10]
    g = Grid(-10.0, 10.0, 2001, Boundary.BOX)
    got = integrate(make_field(g, np.exp(-g.x**2)))
    assert abs(got - np.sqrt(np.pi)) <= 1e-10


# -- cumulative integral -------------------------------------------------------


def test_cumulative_constant():
    g = Grid(-2.0, 3.0, 129, Boundary.BOX)
    F = cumulative_integral(make_field(g, np.ones(129)))
    assert np.max(np.abs(F.values - (g.x - g.x_min))) <= 1e-12


def test_cumulative_linear_polynomial_exactness():
    g = Grid(0.0, 1.0, 101, Boundary.BOX)
    F = cumulative_integral(make_field(g, g.x))
    assert np.max(np.abs(F.values - g.x**2 / 2)) <= 1e-8


def test_cumulative_cosine_periodic_oracle():
    g = Grid(0.0, 2 * np.pi, 128, Boundary.PERIODIC)
    F = cumulative_integral(make_field(g, np.cos(g.x)))
    assert np.max(np.abs(F.values - np.sin(g.x))) <= 1e-10


def test_cumulative_periodic_antiderivative_of_real_field_is_real():
    # an even grid's unpaired Nyquist coefficient has no antiderivative;
    # dividing it by i k left a purely imaginary sawtooth of 2.3e-3 here
    g = Grid(-8.0, 8.0, 128, Boundary.PERIODIC)
    noise = np.random.default_rng(1).standard_normal(128)
    F = cumulative_integral(make_field(g, noise - noise.mean()))
    assert np.max(np.abs(F.values.imag)) <= 1e-13


def _random_field(g, seed):
    r = np.random.default_rng(seed)
    return Field(g, r.standard_normal(g.n_points) + 1j * r.standard_normal(g.n_points))


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("order", [1, 2])
def test_spectral_derivative_matches_allocating_expression_bitwise(n, order):
    g = Grid(-8.0, 8.0, n, Boundary.PERIODIC)
    f = _random_field(g, 10 * n + order)
    before = f.values.copy()
    mult = (1j * (2.0 * np.pi * np.fft.fftfreq(n, d=g.dx))) ** order
    if order == 1 and n % 2 == 0:
        mult[n // 2] = 0.0
    want = np.fft.ifft(mult * np.fft.fft(f.values))
    got = (gradient if order == 1 else laplacian)(f).values
    assert np.array_equal(got, want)
    assert np.array_equal(f.values, before)


@pytest.mark.parametrize("n", [64, 65])
def test_cumulative_periodic_matches_allocating_expression_bitwise(n):
    g = Grid(-8.0, 8.0, n, Boundary.PERIODIC)
    v = _random_field(g, n).values
    f = Field(g, v - np.mean(v))
    before = f.values.copy()
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=g.dx)
    fhat = np.fft.fft(f.values)
    mean = fhat[0] / n
    with np.errstate(divide="ignore", invalid="ignore"):
        Fhat = np.where(k != 0.0, fhat / (1j * k), 0.0)
    if n % 2 == 0:
        Fhat[n // 2] = 0.0
    want = np.fft.ifft(Fhat) + mean * (g.x - g.x_min)
    want -= want[0]
    assert np.array_equal(cumulative_integral(f).values, want)
    assert np.array_equal(f.values, before)


def test_spectral_factors_are_cached_read_only_and_shared():
    a = Grid(-8.0, 8.0, 64, Boundary.PERIODIC)
    b = Grid(-8.0, 8.0, 64, Boundary.PERIODIC)
    assert a.wavenumbers is b.wavenumbers
    assert np.array_equal(a.wavenumbers, 2.0 * np.pi * np.fft.fftfreq(64, d=a.dx))
    for order in (1, 2):
        assert _spectral_multiplier(a, order) is _spectral_multiplier(b, order)
    for factor in (a.wavenumbers, _spectral_multiplier(a, 1), _spectral_multiplier(a, 2)):
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[1] = 0.0
    # the odd multiplier drops the unpaired Nyquist mode, the even one keeps it
    assert _spectral_multiplier(a, 1)[32] == 0.0
    assert _spectral_multiplier(a, 2)[32] == -(a.wavenumbers[32] ** 2)


def test_cumulative_periodic_rejects_nonzero_mean():
    g = Grid(0.0, 2 * np.pi, 128, Boundary.PERIODIC)
    with pytest.raises(PeriodicityViolation):
        cumulative_integral(make_field(g, np.ones(128)))


@pytest.mark.parametrize("boundary", [Boundary.BOX, Boundary.PERIODIC])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cumulative_rejects_nonfinite_values(boundary, bad):
    g = Grid(0.0, 1.0, 64, boundary)
    vals = np.cos(2 * np.pi * g.x).astype(complex)
    vals[7] = bad
    with pytest.raises(NonFiniteField):
        cumulative_integral(Field(g, vals))


@pytest.mark.parametrize("n", [16, 257, 512])
def test_cumulative_box_matches_scipy_trapezoid_bitwise(n):
    from scipy.integrate import cumulative_trapezoid

    g = Grid(-8.0, 8.0, n, Boundary.BOX)
    r = np.random.default_rng(n)
    f = make_field(g, r.standard_normal(n) + 1j * r.standard_normal(n))
    fp = gradient(f).values
    want = cumulative_trapezoid(f.values, dx=g.dx, initial=0.0) - (g.dx**2 / 12.0) * (fp - fp[0])
    assert np.array_equal(cumulative_integral(f).values, want)


def test_import_leaves_scipy_integrate_unloaded():
    code = "import sys, cqhjlab; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


# -- operator properties --------------------------------------------------------


def test_gradient_linearity_random():
    rng = np.random.default_rng(1)
    g = Grid(-10.0, 10.0, 256, Boundary.PERIODIC)
    for _ in range(5):
        v1 = np.exp(-((g.x - rng.uniform(-2, 2)) ** 2) / 4) * np.exp(1j * rng.normal() * g.x)
        v2 = np.exp(-((g.x - rng.uniform(-2, 2)) ** 2) / 3)
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        lhs = gradient(make_field(g, a * v1 + b * v2)).values
        rhs = a * gradient(make_field(g, v1)).values + b * gradient(make_field(g, v2)).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_fd4_convergence_doubling():
    errs = []
    for n in (256, 512):
        g = Grid(-10.0, 10.0, n, Boundary.BOX)
        f = make_field(g, np.exp(-g.x**2 / 2))
        errs.append(np.max(np.abs(gradient(f).values - (-g.x * np.exp(-g.x**2 / 2)))))
    assert errs[0] / errs[1] >= 12.0


def test_spectral_convergence_then_floor():
    errs = {}
    for n in (16, 32, 64):
        g = Grid(-10.0, 10.0, n, Boundary.PERIODIC)
        f = make_field(g, np.exp(-g.x**2 / 2))
        errs[n] = np.max(np.abs(gradient(f).values - (-g.x * np.exp(-g.x**2 / 2))))
    assert errs[16] / errs[32] >= 100.0
    assert errs[64] <= 1e-13


def test_integrate_gradient_fundamental_theorem():
    g = Grid(-10.0, 10.0, 512, Boundary.BOX)
    f = make_field(g, np.exp(-((g.x - 1.0) ** 2) / 4) * np.exp(0.3j * g.x))
    got = integrate(gradient(f))
    assert abs(got - (f.values[-1] - f.values[0])) <= 1e-8


def test_gradient_inverts_cumulative():
    g = Grid(-10.0, 10.0, 256, Boundary.BOX)
    f = make_field(g, np.exp(-g.x**2 / 8))
    err = np.max(np.abs(gradient(cumulative_integral(f)).values - f.values))
    assert err <= 1e-6
    gp = Grid(-10.0, 10.0, 256, Boundary.PERIODIC)
    fp = make_field(gp, np.sin(2 * np.pi * gp.x / gp.length))
    errp = np.max(np.abs(gradient(cumulative_integral(fp)).values - fp.values))
    assert errp <= 1e-10


def test_gradient_rejects_nonfinite_values():
    g = Grid(0.0, 1.0, 64, Boundary.PERIODIC)
    vals = np.ones(64, dtype=complex)
    vals[5] = np.inf
    with pytest.raises(NonFiniteField):
        gradient(Field(g, vals))


def test_periodic_symmetric_second_derivative_is_the_symmetric_5_point_stencil():
    # periodic Crank-Nicolson's free Hamiltonian is -1/2 the wrapped stencil
    g = Grid(-5.0, 5.0, 64, Boundary.PERIODIC)
    D = -2.0 * hamiltonian(free_potential(g), Method.CRANK_NICOLSON).matrix
    assert (D != D.T).nnz == 0
    row = np.array([-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12]) / g.dx**2
    for i in (0, 1, 31, 62, 63):
        want = np.zeros(64)
        want[np.arange(i - 2, i + 3) % 64] = row
        assert np.max(np.abs(D[[i], :].toarray()[0] - want)) <= 1e-15 * np.max(np.abs(row))


def test_central_stencils_are_exactly_symmetric():
    # first-derivative weights antisymmetric, second-derivative symmetric,
    # bit for bit: on a periodic grid D = (-1)**order D^T, and the box
    # operator is point-symmetric, D[i, j] = (-1)**order D[n-1-i, n-1-j]
    for order in (1, 2):
        sign = (-1) ** order
        w = _fd_weights(_C4, order)
        assert np.array_equal(w, sign * w[::-1])
        D = _fd_matrix(64, order, True).toarray()
        assert np.array_equal(D, sign * D.T)
        B = _fd_matrix(64, order, False).toarray()
        assert np.array_equal(B, sign * B[::-1, ::-1])
