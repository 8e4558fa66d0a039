import json
from fractions import Fraction

import numpy as np
import pytest

from conftest import dA_dm, dense_forward_matrix, dot_test, full_spectrum_symbols, propagator
from xfwi import (
    Acquisition,
    Dataset,
    HelmholtzModel1D,
    adjoint_F,
    assemble_A,
    forward_F,
    kernel_k,
)
from xfwi import linops
from xfwi.linops import TridiagonalOperator
from xfwi.cli import DEFAULT_CONFIG, gradient_problem, main
from xfwi.wavemodel import (
    _dominance_bound,
    _normal_matrix,
    _phase_factors,
    _phase_table,
)
from xfwi.errors import (
    DimensionMismatchError,
    IllConditionedError,
    RejectedInputError,
    SingularGeometryError,
)
from xfwi.formulations import grad_phi, phi_reduced


def line_acquisition(distances, nt, dt):
    rec = np.zeros((len(distances), 3))
    rec[:, 0] = distances
    return Acquisition(np.zeros(3), rec, nt=nt, dt=dt)


class TestAssembly:
    def test_three_point_stencil_oracle(self):
        model = HelmholtzModel1D(n=3, h=1.0, omega=1.0, boundary="dirichlet")
        A = assemble_A(model, [1.0, 1.0, 1.0]).to_dense()
        expected = np.array(
            [[3.0, -1.0, 0.0], [-1.0, 3.0, -1.0], [0.0, -1.0, 3.0]]
        )
        assert np.array_equal(A.real, expected)
        assert np.array_equal(A.imag, np.zeros((3, 3)))

    def test_vanishing_frequency_leaves_laplacian(self):
        n, h = 5, 0.5
        model = HelmholtzModel1D(n=n, h=h, omega=1e-12, boundary="dirichlet")
        A = assemble_A(model, np.full(n, 0.3)).to_dense()
        L = (
            2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        ) / h**2
        assert np.array_equal(A.real, L)

    def test_mass_term_is_linear(self):
        # dyadic values make the perturbation identity exact in floats
        model = HelmholtzModel1D(n=4, h=1.0, omega=2.0, boundary="dirichlet")
        m = np.full(4, 0.25)
        delta = 0.5
        A0 = assemble_A(model, m).to_dense()
        for k in range(4):
            mp = m.copy()
            mp[k] += delta
            diff = assemble_A(model, mp).to_dense() - A0
            expected = np.zeros((4, 4))
            expected[k, k] = model.omega**2 * delta
            assert np.array_equal(diff, expected)

    def test_rejects_bad_medium(self):
        model = HelmholtzModel1D(n=3, h=1.0, omega=1.0)
        with pytest.raises(RejectedInputError):
            assemble_A(model, [1.0, np.nan, 1.0])
        with pytest.raises(DimensionMismatchError):
            assemble_A(model, [1.0, 1.0])

    @pytest.mark.parametrize(
        "medium",
        [[1.0, np.inf, 1.0], [1.0, -np.inf, 1.0], [1.0, 0.0, 1.0], [1.0, -1.0, 1.0],
         [[[1.0, 1.0, 1.0]]]],
        ids=["inf", "-inf", "zero", "negative", "3-d"],
    )
    def test_rejects_each_bad_medium(self, medium):
        # medium_values reads only the min and the max; each must still reject
        model = HelmholtzModel1D(n=3, h=1.0, omega=1.0)
        with pytest.raises(RejectedInputError):
            assemble_A(model, medium)

    @pytest.mark.parametrize(
        "n, ok", [(20.5, False), (True, False), (np.True_, False), (np.float64(20.5), False),
                  (float("nan"), False), (20.0, True), (np.int64(20), True)],
        ids=["fraction", "bool", "numpy-bool", "numpy-fraction", "nan", "integral-float",
             "numpy-int"],
    )
    def test_grid_size_is_an_integer(self, n, ok):
        # int() alone would run 20.5 as 20, and a float n fails in assemble_A
        if not ok:
            with pytest.raises(RejectedInputError, match="n must be an integer"):
                HelmholtzModel1D(n=n, h=0.05, omega=30.0)
            return
        model = HelmholtzModel1D(n=n, h=0.05, omega=30.0)
        assert type(model.n) is int and model.n == 20
        assert assemble_A(model, np.full(20, 0.3)).range_dim == 20

    def test_boundary_symmetry(self):
        m = np.full(8, 0.3)
        A_d = assemble_A(HelmholtzModel1D(8, 0.1, 10.0, "dirichlet"), m).to_dense()
        assert np.array_equal(A_d, A_d.T)
        assert np.array_equal(A_d, A_d.conj().T)
        A_s = assemble_A(HelmholtzModel1D(8, 0.1, 10.0, "sommerfeld"), m).to_dense()
        assert np.array_equal(A_s, A_s.T)
        assert not np.allclose(A_s, A_s.conj().T)


def grad_instance(n, boundary):
    return gradient_problem(dict(DEFAULT_CONFIG["grad"], boundary=boundary), 0, n=n)


def low_frequency_instance():
    settings = dict(DEFAULT_CONFIG["grad"], boundary="dirichlet", omega=1e-6)
    return gradient_problem(settings, 0, n=100)


@pytest.fixture
def gtcon_calls(monkeypatch):
    # The (rcond, info) of every LAPACK gtcon call, in order.
    real = linops.zgtcon
    calls = []

    def counting(*args):
        calls.append(real(*args))
        return calls[-1]

    monkeypatch.setattr(linops, "zgtcon", counting)
    return calls


class TestStackedAssembly:
    """A ``(b, n)`` stack assembles to the block-diagonal of its media's operators."""

    @pytest.mark.parametrize("boundary", ["dirichlet", "sommerfeld"])
    def test_blocks_are_the_media_operators(self, boundary):
        rng = np.random.default_rng(3)
        n = 30
        model = HelmholtzModel1D(n, h=1.0 / n, omega=6.0, boundary=boundary)
        media = rng.uniform(0.2, 0.4, (4, n))
        A = assemble_A(model, media)
        assert A.blocks == 4 and (A.range_dim, A.domain_dim) == (4 * n, 4 * n)
        assert A.lower is A.upper
        assert not A.lower[n - 1::n].any()
        bounds = _dominance_bound(A)
        assert bounds.shape == (4,)
        for i, row in enumerate(media):
            own = assemble_A(model, row)
            rows = slice(i * n, (i + 1) * n)
            assert A.diag[rows].tobytes() == own.diag.tobytes()
            assert A.lower[i * n:(i + 1) * n - 1].tobytes() == own.lower.tobytes()
            assert bounds[i] == _dominance_bound(own)[0]

    def test_one_medium_is_a_stack_of_one(self):
        m = np.random.default_rng(4).uniform(0.2, 0.4, 20)
        model = HelmholtzModel1D(20, h=1.0 / 20, omega=6.0, boundary="sommerfeld")
        one, stack = assemble_A(model, m), assemble_A(model, m[None])
        assert one.blocks == stack.blocks == 1
        for x, y in ((one.lower, stack.lower), (one.diag, stack.diag)):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("bad", [0.0, -0.25, np.nan, np.inf, -np.inf])
    def test_one_bad_value_rejects_the_stack(self, bad):
        model = HelmholtzModel1D(10, h=0.1, omega=6.0)
        media = np.full((5, 10), 0.25)
        media[3, 7] = bad
        with pytest.raises(RejectedInputError):
            assemble_A(model, media)
        with pytest.raises(DimensionMismatchError):
            assemble_A(model, np.full((5, 9), 0.25))

    def test_estimate_taken_only_for_the_block_without_a_bound(self, gtcon_calls):
        # At omega = 1e-6 a medium of 0.25 leaves the interior columns
        # dominant by far less than rounding; one of 1e4 leaves them dominant
        # by omega^2 m = 1e-8, and its bound settles the check.
        n = 100
        model = HelmholtzModel1D(n, h=1.0 / n, omega=1e-6, boundary="dirichlet")
        media = np.full((3, n), 1e4)
        media[1] = 0.25
        A = assemble_A(model, media)
        bounds = _dominance_bound(A)
        assert bounds[1] == np.inf and np.all(bounds[[0, 2]] < 1e14)
        assert len(gtcon_calls) == 1
        assemble_A(model, media[1])  # the block alone
        assert gtcon_calls[0] == gtcon_calls[1]

    @pytest.mark.parametrize("boundary", ["dirichlet", "sommerfeld"])
    def test_ill_conditioned_block_raises_its_own_condition(self, boundary):
        # ahead of the bad block, one with no bound that gtcon accepts: at
        # omega^2 m = 1e-12 it is the Laplacian, dominant by far less than rounding
        n = 50
        model = HelmholtzModel1D(n, h=1.0 / n, omega=1e9, boundary=boundary)
        bad = np.where(np.arange(n) < n // 2, 1e-20, 1.0)
        laplacian = np.full(n, 1e-30)
        with pytest.raises(IllConditionedError) as alone:
            assemble_A(model, bad)
        stack = np.stack([np.ones(n), laplacian, bad, np.ones(n)])
        assert list(_dominance_bound(assemble_A(model, stack[[0, 1, 3]])) < 1e14) == [
            True, False, True
        ]
        with pytest.raises(IllConditionedError) as in_stack:
            assemble_A(model, stack)
        assert in_stack.value.condition == alone.value.condition > 1e14


class TestConditionCheck:
    @pytest.mark.parametrize("boundary", ["dirichlet", "sommerfeld"])
    @pytest.mark.parametrize("n", [100, 200, 600])
    def test_estimate_matches_dense_condition(self, n, boundary):
        prob, m = grad_instance(n, boundary)
        A = prob.A_builder(m)
        # cond(A, 1) keeps the complex dtype (zero imaginary part)
        exact = float(abs(np.linalg.cond(A.to_dense(), 1)))
        assert abs(A.condition() - exact) <= 1e-8 * exact

    @pytest.mark.parametrize("boundary", ["dirichlet", "sommerfeld"])
    @pytest.mark.parametrize("n", [100, 200, 600])
    def test_dominance_bound_is_an_upper_bound(self, n, boundary):
        # On these media the bound is within 1.92x of the exact value, so it
        # settles every check with orders of magnitude to spare.
        prob, m = grad_instance(n, boundary)
        A = prob.A_builder(m)
        exact = float(abs(np.linalg.cond(A.to_dense(), 1)))
        assert exact <= _dominance_bound(A) <= 2.0 * exact

    @pytest.mark.parametrize("boundary", ["dirichlet", "sommerfeld"])
    @pytest.mark.parametrize("n", [20, 100])
    def test_dominance_bound_takes_a_shared_off_diagonal_once(self, n, boundary):
        # assemble_A passes one array as both off-diagonals; the bound is bit
        # for bit the formula with the two absolute values taken apart
        prob, m = grad_instance(n, boundary)
        A = prob.A_builder(m)
        assert A.lower is A.upper
        a = np.abs(A.diag)
        col = a.copy()
        col[1:] += np.abs(A.upper)
        col[:-1] += np.abs(A.lower)
        alpha = (2.0 * a - (1.0 + 8.0 * np.finfo(float).eps) * col).min()
        assert alpha > 0
        assert _dominance_bound(A) == col.max() / alpha
        apart = TridiagonalOperator(A.lower.copy(), A.diag, A.upper)
        assert _dominance_bound(apart) == col.max() / alpha

    def test_dominance_bound_never_below_the_exact_one(self):
        # Margins of 2^-52 to 2^-30 of the column sums, where rounding in
        # 2 |d_j| - s_j is of the margin's own size; the exact Varah bound of
        # the stored entries comes from rational arithmetic.
        rng = np.random.default_rng(0)
        finite = 0
        for _ in range(300):
            lower = -rng.uniform(0.5, 2.0, 5)
            upper = -rng.uniform(0.5, 2.0, 5)
            off_sums = np.zeros(6)
            off_sums[1:] -= upper
            off_sums[:-1] -= lower
            diag = off_sums * (1.0 + 2.0 ** rng.uniform(-52, -30, 6))
            bound = _dominance_bound(TridiagonalOperator(lower, diag, upper))
            d, l, u = ([Fraction(x) for x in np.abs(v)] for v in (diag, lower, upper))
            col = [d[0] + l[0]] + [d[j] + u[j - 1] + l[j] for j in range(1, 5)] + [d[5] + u[4]]
            alpha = min(2 * dj - sj for dj, sj in zip(d, col))
            if alpha > 0:
                assert bound >= max(col) / alpha
            finite += bool(np.isfinite(bound))
        assert finite >= 50

    @pytest.mark.parametrize("boundary", ["dirichlet", "sommerfeld"])
    @pytest.mark.parametrize("n", [50, 600])
    def test_rejects_ill_conditioned_operator(self, gtcon_calls, n, boundary):
        # the diagonal jumps from about 2 n^2 to 1e18 at mid-grid
        model = HelmholtzModel1D(n, h=1.0 / n, omega=1e9, boundary=boundary)
        m = np.where(np.arange(n) < n // 2, 1e-20, 1.0)
        with pytest.raises(IllConditionedError) as info:
            assemble_A(model, m)
        assert info.value.condition > 1e14
        # the bound fails, so the error carries gtcon's estimate itself
        ((rcond, _),) = gtcon_calls
        assert info.value.condition == 1.0 / rcond

    @pytest.mark.parametrize(
        "overrides",
        [
            {"grad": {}},
            {"equiv": {}},
            {"equiv": {"n": 200, "instances": 6}, "grad": {"n": 100}},
        ],
        ids=["grad-default", "equiv-default", "helm-verify-bench"],
    )
    def test_estimate_skipped_while_the_bound_passes(self, gtcon_calls, tmp_path, overrides):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(overrides))
        for command in overrides:
            argv = [f"{command}-check", "--config", str(config), "--seed", "11",
                    "--out", str(tmp_path / command)]
            assert main(argv) == 0
        assert gtcon_calls == []

    def test_estimate_skipped_at_inversion_size(self, gtcon_calls):
        # n = 800 is past the size the check runs at
        prob, m = grad_instance(800, "sommerfeld")
        phi_reduced(prob, m)
        grad_phi(prob, m)
        assert gtcon_calls == []

    def test_estimate_taken_when_the_bound_fails(self, gtcon_calls):
        # At a vanishing frequency the interior columns are dominant by
        # omega^2 m, far below rounding, so there is no bound; the operator
        # is the Dirichlet Laplacian, well conditioned, and is accepted.
        prob, m = low_frequency_instance()
        gtcon_calls.clear()  # the data were synthesized with A(m) too
        A = prob.A_builder(m)
        assert _dominance_bound(A) == np.inf
        assert len(gtcon_calls) == 1
        assert A.condition() == pytest.approx(5.1e3, rel=1e-9)

    @pytest.mark.parametrize(
        "instance, at_assembly",
        [
            (lambda: grad_instance(600, "sommerfeld"), 0),
            (low_frequency_instance, 1),
        ],
        ids=["bound-passes", "bound-fails"],
    )
    def test_production_path_never_materializes(self, monkeypatch, instance, at_assembly):
        # Assembly factors only when the bound fails and gtcon needs the
        # factor; either way each new medium factors A once, and the gradient
        # at the medium of the last objective reuses that objective's factor.
        prob, m = instance()

        def refuse(self):
            raise AssertionError("the production path materialized A")

        factorizations = []
        real_zgttrf = linops.zgttrf

        def counting_zgttrf(*args):
            factorizations.append(args)
            return real_zgttrf(*args)

        monkeypatch.setattr(linops.TridiagonalOperator, "to_dense", refuse)
        monkeypatch.setattr(linops, "zgttrf", counting_zgttrf)
        A = prob.A_builder(m)  # assemble_A, condition check included
        assert len(factorizations) == at_assembly
        A.solve(prob.q)
        A.solve(prob.q, adjoint=True)
        assert len(factorizations) == 1
        phi_reduced(prob, m)
        assert len(factorizations) == 2
        grad_phi(prob, m)
        assert len(factorizations) == 2
        m2 = m * (1.0 + 1e-3)
        grad_phi(prob, m2)
        assert len(factorizations) == 3
        phi_reduced(prob, m2)
        assert len(factorizations) == 3


class TestDerivative:
    def test_rank_one_oracle(self):
        model = HelmholtzModel1D(n=3, h=1.0, omega=1.0)
        D = dA_dm(model, 0).matrix
        assert np.array_equal(D, np.diag([1.0, 0.0, 0.0]))

    def test_finite_difference_oracle(self):
        model = HelmholtzModel1D(n=5, h=1.0, omega=1.0)
        m = np.full(5, 0.3)
        A0 = assemble_A(model, m).to_dense()
        for k in range(5):
            mp = m.copy()
            mp[k] += 1e-6
            fd = (assemble_A(model, mp).to_dense() - A0) / 1e-6
            assert np.max(np.abs(fd - dA_dm(model, k).matrix)) <= 1e-8

    def test_reassembly_identity(self):
        model = HelmholtzModel1D(n=6, h=0.2, omega=7.0)
        m = np.linspace(0.2, 0.4, 6)
        total = sum(m[k] * dA_dm(model, k).matrix for k in range(6))
        assert np.allclose(total, model.omega**2 * np.diag(m), rtol=1e-14)

    def test_index_out_of_range(self):
        model = HelmholtzModel1D(n=3, h=1.0, omega=1.0)
        with pytest.raises(RejectedInputError):
            dA_dm(model, 3)


class TestForward:
    def test_spike_delay_and_amplitude(self):
        acq = line_acquisition([1.0], nt=256, dt=0.004)
        q = np.zeros(256)
        q[0] = 1.0
        trace = forward_F(2.0, acq, q).values[0]
        # delay 0.5 s = 125 samples exactly; unit amplitude at r = 1
        assert np.argmax(np.abs(trace)) == 125
        assert trace[125] == pytest.approx(1.0, abs=1e-12)

    def test_spreading_halves_amplitude(self):
        nt, dt = 400, 0.004
        q = np.zeros(nt)
        q[0] = 1.0
        near = forward_F(2.0, line_acquisition([1.0], nt, dt), q).values[0]
        far = forward_F(2.0, line_acquisition([2.0], nt, dt), q).values[0]
        assert np.argmax(np.abs(far)) == 2 * np.argmax(np.abs(near))
        assert far[250] == pytest.approx(0.5 * near[125], rel=1e-12)

    def test_paper_geometry_arrivals(self):
        acq = line_acquisition([0.8, 1.0, 1.2], nt=512, dt=0.004)
        q = np.zeros(512)
        q[0] = 1.0
        data = forward_F(2.0, acq, q)
        peaks = np.argmax(np.abs(data.values), axis=1) * acq.dt
        assert np.allclose(peaks, [0.4, 0.5, 0.6])

    def test_linearity(self):
        acq = line_acquisition([0.8, 1.2], nt=128, dt=0.008)
        rng = np.random.default_rng(0)
        q1, q2 = rng.standard_normal(128), rng.standard_normal(128)
        a, b = 1.7, -0.4
        combo = forward_F(1.9, acq, a * q1 + b * q2).values
        parts = a * forward_F(1.9, acq, q1).values + b * forward_F(1.9, acq, q2).values
        assert np.linalg.norm(combo - parts) <= 1e-12 * np.linalg.norm(parts)

    def test_receiver_at_source_rejected(self):
        with pytest.raises(SingularGeometryError):
            line_acquisition([0.0, 1.0], nt=64, dt=0.01)

    @pytest.mark.parametrize(
        "nt, ok", [(64.5, False), (True, False), (np.True_, False), (64.0, True),
                   (np.int32(64), True)],
        ids=["fraction", "bool", "numpy-bool", "integral-float", "numpy-int"],
    )
    def test_sample_count_is_an_integer(self, nt, ok):
        # a float nt would otherwise fail inside scipy's FFT, not at construction
        if not ok:
            with pytest.raises(RejectedInputError, match="nt must be an integer"):
                line_acquisition([1.0], nt=nt, dt=0.01)
            return
        acq = line_acquisition([1.0], nt=nt, dt=0.01)
        assert type(acq.nt) is int and acq.nt == 64
        assert forward_F(2.0, acq, np.ones(64)).values.shape == (1, 64)

    def test_positions_are_read_only_copies(self):
        # the geometry is checked once, on construction, so it must not change
        src, rec = np.zeros(3), np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        acq = Acquisition(src, rec, nt=64, dt=0.01)
        rec[0] = src  # would put a receiver at the source
        src[0] = 2.0
        assert np.array_equal(acq.distances(), [1.0, 2.0])
        for positions in (acq.source_position, acq.receiver_positions, acq.distances()):
            with pytest.raises(ValueError):
                positions[0] = 1.5

    def test_bad_source_rejected(self):
        acq = line_acquisition([1.0], nt=64, dt=0.01)
        with pytest.raises(RejectedInputError):
            forward_F(2.0, acq, np.full(64, np.inf))
        with pytest.raises(RejectedInputError):
            forward_F(-1.0, acq, np.zeros(64))


class TestAdjoint:
    def test_dot_test(self):
        acq = line_acquisition([0.8, 1.0, 1.2], nt=128, dt=0.008)
        assert dot_test(propagator(2.1, acq), trials=10, seed=4) <= 1e-10

    def test_round_trip_peaks_at_zero(self):
        acq = line_acquisition([1.0], nt=128, dt=0.008)
        q = np.zeros(128)
        q[0] = 1.0
        data = forward_F(2.0, acq, q)
        back = adjoint_F(2.0, acq, data)
        assert np.argmax(np.abs(back)) == 0

    def test_zero_data(self):
        acq = line_acquisition([1.0, 2.0], nt=64, dt=0.01)
        out = adjoint_F(2.0, acq, Dataset(np.zeros((2, 64))))
        assert np.array_equal(out, np.zeros(64))


class TestKernel:
    def test_diagonal_panels(self):
        acq = line_acquisition([0.8, 1.0, 1.2], nt=256, dt=0.004)
        panels = kernel_k(2.0, acq)
        zero = int(np.argmin(np.abs(panels.lags)))
        for i, r in enumerate([0.8, 1.0, 1.2]):
            trace = panels.traces[i, i]
            assert np.argmax(np.abs(trace)) == zero
            assert trace[zero] == pytest.approx(1.0 / r**2, rel=1e-10)

    def test_off_diagonal_event(self):
        acq = line_acquisition([0.8, 1.2], nt=256, dt=0.004)
        panels = kernel_k(2.0, acq)
        trace = panels.traces[1, 0]  # lag (1.2 - 0.8)/2 = 0.2 s
        peak = np.argmax(np.abs(trace))
        assert panels.lags[peak] == pytest.approx(0.2, abs=acq.dt)
        assert trace[peak] == pytest.approx(1.0 / (0.8 * 1.2), rel=1e-10)

    def test_flip_symmetry(self):
        acq = line_acquisition([0.8, 1.0, 1.2], nt=128, dt=0.008)
        panels = kernel_k(2.0, acq)
        zero = int(np.argmin(np.abs(panels.lags)))
        ks = np.arange(-30, 31)
        for i in range(3):
            for j in range(3):
                assert np.allclose(
                    panels.traces[i, j, zero + ks],
                    panels.traces[j, i, zero - ks],
                    atol=1e-12,
                )

    def test_peak_lag_off_grid_velocity(self):
        acq = line_acquisition([0.8, 1.0, 1.2], nt=256, dt=0.004)
        panels = kernel_k(1.9, acq)
        dists = acq.distances()
        for i in range(3):
            for j in range(3):
                expected = (dists[i] - dists[j]) / 1.9
                peak = panels.lags[np.argmax(np.abs(panels.traces[i, j]))]
                assert abs(peak - expected) <= acq.dt

    @pytest.mark.parametrize("c", [1.6, 1.85, 2.4])
    def test_panels_match_full_spectrum_transform(self, c):
        # the half-spectrum irfft against ifft(...).real of the full symbols
        acq = line_acquisition([0.8, 1.0, 1.2], nt=256, dt=0.004)
        symbols, N = full_spectrum_symbols(c, acq)
        idx = (np.arange(256) - 128) % N
        expected = np.array([[np.fft.ifft(a * b.conj()).real[idx] for b in symbols]
                             for a in symbols])
        traces = kernel_k(c, acq).traces
        assert np.abs(traces - expected).max() <= 1e-15 * np.abs(expected).max()

    def test_dense_matrix_matches_columns(self):
        acq = line_acquisition([0.8, 1.0, 1.2], nt=96, dt=0.008)
        F = dense_forward_matrix(1.85, acq)
        rng = np.random.default_rng(3)
        for k in rng.integers(0, 96, size=6):
            e = np.zeros(96)
            e[k] = 1.0
            col = forward_F(1.85, acq, e).values.ravel()
            assert np.linalg.norm(F[:, k] - col) <= 1e-12


class TestNormalMatrix:
    # With 64-row blocks of the displacement term, nt - 1 = 511 and 1023
    # leave a partial last block and nt = 65 fills its one block exactly.
    @pytest.mark.parametrize("c", [1.6, 2.0, 2.4])  # below, at and above c_true
    @pytest.mark.parametrize("distances", [[1.0], [0.8, 1.0, 1.2]], ids=["1rec", "3rec"])
    @pytest.mark.parametrize("nt", [2, 3, 33, 65, 512, 1024])
    def test_matches_dense_gram(self, nt, distances, c):
        acq = line_acquisition(distances, nt=nt, dt=0.004)
        F = dense_forward_matrix(c, acq)
        expected = F.T @ F
        G, _ = _normal_matrix(c, acq, nt)
        assert np.abs(G - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("c", [1.6, 2.0, 2.4])
    @pytest.mark.parametrize("distances", [[1.0], [0.8, 1.0, 1.2]], ids=["1rec", "3rec"])
    @pytest.mark.parametrize("nt", [2, 3, 33, 65, 512, 1024])
    def test_trailing_block_and_diagonal_match_dense_gram(self, nt, distances, c):
        # Block sides of 1, 2, one past a 64-row block of E, and the toy's
        # ceil(r_max / (c dt)) + 16, each where it fits in nt.
        acq = line_acquisition(distances, nt=nt, dt=0.004)
        F = dense_forward_matrix(c, acq)
        expected = F.T @ F
        scale = np.abs(expected).max()
        toy_side = int(np.ceil(max(distances) / (c * 0.004))) + 16
        for b in sorted({b for b in (1, 2, 65, toy_side) if b <= nt}):
            block, diagonal = _normal_matrix(c, acq, b)
            assert block.shape == (b, b)
            assert np.abs(block - expected[nt - b :, nt - b :]).max() <= 1e-13 * scale, b
            assert np.abs(diagonal - np.diag(expected)).max() <= 1e-13 * scale, b

    @pytest.mark.parametrize("nt", [33, 512, 1024])
    def test_fortran_ordered_and_exactly_symmetric(self, nt):
        # Filled down columns, a block is the transpose of a row fill; E
        # being symmetric, the two agree bit for bit. With b - 1 one past a
        # multiple of 64 (b = 66, 130, 386) a last E block of one row broke
        # that by up to 7e-18.
        acq = line_acquisition([0.8, 1.0, 1.2], nt=nt, dt=0.004)
        for b in (1, 2, 3, 33, 66, 130, 200, 386, nt):
            G, _ = _normal_matrix(1.9, acq, min(b, nt))
            assert G.flags.f_contiguous
            assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("c", [1.6, 2.4])
    @pytest.mark.parametrize("distances", [[0.3, 0.5], [0.8, 1.0, 1.2]])
    def test_norm_bounded_by_spreading(self, distances, c):
        # Each receiver block crops a circulant whose symbol has modulus at
        # most 1 / r_i; the toy's condition bound rests on this.
        acq = line_acquisition(distances, nt=256, dt=0.004)
        top = np.linalg.eigvalsh(_normal_matrix(c, acq, acq.nt)[0]).max()
        assert top <= np.sum(acq.distances() ** -2.0) * (1.0 + 1e-12)


class TestPhaseCache:
    def test_table_is_read_only(self):
        table, _ = _phase_factors(1.9, line_acquisition([0.8, 1.0], nt=64, dt=0.004))
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    @pytest.mark.parametrize(
        "c, distances, nt, dt",
        [
            (1.9, [0.8, 1.0], 64, 0.002),
            (1.9, [0.8, 1.0], 80, 0.004),
            (2.1, [0.8, 1.0], 64, 0.004),
            (1.9, [0.8, 1.1], 64, 0.004),
        ],
        ids=["dt", "nt", "c", "receivers"],
    )
    def test_each_key_part_gives_its_own_table(self, c, distances, nt, dt):
        base, _ = _phase_factors(1.9, line_acquisition([0.8, 1.0], nt=64, dt=0.004))
        other, _ = _phase_factors(c, line_acquisition(distances, nt=nt, dt=dt))
        assert other is not base
        assert other.shape != base.shape or not np.array_equal(other, base)

    def test_forward_same_cold_and_warm(self):
        acq = line_acquisition([0.8, 1.0, 1.2], nt=96, dt=0.004)
        q = np.random.default_rng(4).standard_normal(96)
        _phase_table.cache_clear()
        cold = forward_F(1.85, acq, q).values
        assert _phase_table.cache_info().misses == 1
        warm = forward_F(1.85, acq, q).values
        assert _phase_table.cache_info().hits >= 1
        assert np.array_equal(cold, warm)
