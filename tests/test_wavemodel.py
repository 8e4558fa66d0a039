import json
from fractions import Fraction

import numpy as np
import pytest

from xfwi import (
    Acquisition,
    Dataset,
    HelmholtzModel1D,
    adjoint_F,
    assemble_A,
    dense_forward_matrix,
    dot_test,
    forward_F,
    forward_operator,
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
    dA_dm,
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
         [[1.0, 1.0, 1.0]]],
        ids=["inf", "-inf", "zero", "negative", "2-d"],
    )
    def test_rejects_each_bad_medium(self, medium):
        # medium_values reads only the min and the max; each must still reject
        model = HelmholtzModel1D(n=3, h=1.0, omega=1.0)
        with pytest.raises(RejectedInputError):
            assemble_A(model, medium)

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

    def test_bad_source_rejected(self):
        acq = line_acquisition([1.0], nt=64, dt=0.01)
        with pytest.raises(RejectedInputError):
            forward_F(2.0, acq, np.full(64, np.inf))
        with pytest.raises(RejectedInputError):
            forward_F(-1.0, acq, np.zeros(64))


class TestAdjoint:
    def test_dot_test(self):
        acq = line_acquisition([0.8, 1.0, 1.2], nt=128, dt=0.008)
        assert dot_test(forward_operator(2.1, acq), trials=10, seed=4) <= 1e-10

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
        G = _normal_matrix(c, acq)
        assert np.abs(G - expected).max() <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("nt", [33, 512, 1024])
    def test_fortran_ordered_and_exactly_symmetric(self, nt):
        # Filled down columns, G is the transpose of a row fill; E being
        # symmetric, the two agree bit for bit.
        G = _normal_matrix(1.9, line_acquisition([0.8, 1.0, 1.2], nt=nt, dt=0.004))
        assert G.flags.f_contiguous
        assert np.array_equal(G, G.T)

    @pytest.mark.parametrize("c", [1.6, 2.4])
    @pytest.mark.parametrize("distances", [[0.3, 0.5], [0.8, 1.0, 1.2]])
    def test_norm_bounded_by_spreading(self, distances, c):
        # Each receiver block crops a circulant whose symbol has modulus at
        # most 1 / r_i; the toy's condition bound rests on this.
        acq = line_acquisition(distances, nt=256, dt=0.004)
        top = np.linalg.eigvalsh(_normal_matrix(c, acq)).max()
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
