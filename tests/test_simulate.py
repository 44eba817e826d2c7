"""Monte Carlo sampler, spectral moments, and exact small-N evaluation."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from bipcorr import simulate
from bipcorr.model import InvalidParamsError, ModelParams, WeightLaw
from bipcorr.simulate import (
    EnsembleSpec,
    FiniteSizeCapError,
    WeightDistribution,
    estimate_correlators,
    exact_finite_N,
    sample_entries,
    sample_matrix,
    trace_moments,
    validate_ensemble,
)


def make_spec(N=16, alpha=F(1, 2), p=F(4), dist="rademacher", seed=0):
    return EnsembleSpec(N, ModelParams(alpha, p), WeightDistribution(dist), seed)


class TestWeightDistribution:
    def test_rademacher_values(self):
        rng = np.random.default_rng(0)
        values = WeightDistribution("rademacher").sample(rng, (40,))
        assert set(np.unique(values)) <= {-1.0, 1.0}

    def test_constant(self):
        rng = np.random.default_rng(0)
        values = WeightDistribution("constant:3/2").sample(rng, (5, 2))
        assert values.shape == (5, 2)
        assert np.all(values == 1.5)

    def test_gaussian_scale(self):
        rng = np.random.default_rng(0)
        values = WeightDistribution("gaussian:2").sample(rng, (20000,))
        assert abs(values.std() - 2.0) < 0.1

    def test_two_point(self):
        dist = WeightDistribution("two-point:2,1/4,-1")
        rng = np.random.default_rng(0)
        values = dist.sample(rng, (2000,))
        assert set(np.unique(values)) <= {2.0, -1.0}
        assert abs(np.mean(values == 2.0) - 0.25) < 0.05

    def test_rejects_malformed(self):
        for bad in (
            "uniform",
            "rademacher:1",
            "constant",
            "gaussian:x",
            "two-point:1,2",
            "two-point:1,3/2,-1",
            "constant:1e400",
            "gaussian:1e400",
            "two-point:1e400,1/2,1",
            # Nonzero parameters that round to 0.0 would run another law.
            "constant:1e-400",
            "gaussian:1e-400",
            "two-point:1e-400,1/2,1",
            "two-point:1,1e-400,2",
        ):
            with pytest.raises(ValueError):
                WeightDistribution(bad)


class TestLawParity:
    # V_2j, j = 1..4, in closed form, written out apart from model.WeightLaw.
    CLOSED_FORMS = {
        "rademacher": lambda j: F(1),
        "constant:3/2": lambda j: F(3, 2) ** (2 * j),
        "gaussian:2": lambda j: F(2) ** (2 * j) * math.prod(range(1, 2 * j, 2)),
        "two-point:2,1/4,-1": lambda j: F(1, 4) * 2 ** (2 * j) + F(3, 4) * (-1) ** (2 * j),
    }

    @pytest.mark.parametrize("spec", list(CLOSED_FORMS))
    def test_sampler_draws_the_law_whose_moments_are_read(self, spec):
        closed = [self.CLOSED_FORMS[spec](j) for j in range(1, 5)]
        law = WeightLaw(spec)
        assert [law.even_moment(j) for j in range(1, 5)] == closed
        # The empirical V_2 and V_4 of one draw lie within 5 standard errors
        # sqrt((V_4j - V_2j^2) / n) of the exact values.
        n = 200_000
        weights = WeightDistribution(spec).sample(np.random.default_rng(1931), n)
        for j in (1, 2):
            exact = float(law.even_moment(j))
            stderr = math.sqrt(float(closed[2 * j - 1] - closed[j - 1] ** 2) / n)
            empirical = float(np.mean(weights ** (2 * j)))
            assert abs(empirical - exact) <= 5 * stderr, (j, empirical, exact, stderr)


class TestEnsembleSpec:
    def test_part_size_floor(self):
        assert make_spec(N=10, alpha=F(1, 3)).part1_size == 3
        assert make_spec(N=10, alpha=F(2, 3)).part1_size == 6
        assert make_spec(N=7, alpha=F(1, 2)).part1_size == 3

    def test_validation(self):
        validate_ensemble(make_spec())
        cases = [
            (make_spec(N=0), "bad_matrix_size"),
            (make_spec(p=F(1, 2)), "p_out_of_range"),
            (make_spec(N=4, p=F(5)), "p_out_of_range"),
            (make_spec(seed=-1), "bad_seed"),
            # The generator takes 64 bits of the seed; 2^64 would alias 0.
            (make_spec(seed=2**64), "bad_seed"),
            (make_spec(N=2, alpha=F(1, 3), p=F(1)), "empty_part"),
            (EnsembleSpec(8, ModelParams(F(3, 2), F(1)), WeightDistribution("rademacher"), 0),
             "alpha_out_of_range"),
        ]
        for spec, code in cases:
            with pytest.raises(InvalidParamsError) as info:
                validate_ensemble(spec)
            assert info.value.code == code


class TestSampleMatrix:
    def test_structure(self):
        spec = make_spec(N=12, alpha=F(1, 3))
        A = sample_matrix(spec, 0)
        n1 = spec.part1_size
        assert A.shape == (12, 12)
        assert np.array_equal(A, A.T)
        assert np.all(A[:n1, :n1] == 0)
        assert np.all(A[n1:, n1:] == 0)

    def test_entry_values(self):
        spec = make_spec(N=20, p=F(4))
        A = sample_matrix(spec, 3)
        nonzero = A[A != 0]
        assert nonzero.size > 0
        assert np.allclose(np.abs(nonzero), 1 / math.sqrt(4))
        _, _, values = sample_entries(spec, 3)
        assert set(np.unique(values)) <= {-1 / math.sqrt(4), 1 / math.sqrt(4)}

    def test_deterministic_per_index(self):
        A1 = sample_matrix(make_spec(seed=5), 9)
        A2 = sample_matrix(make_spec(seed=5), 9)
        assert np.array_equal(A1, A2)

    def test_varies_with_index_and_seed(self):
        spec = make_spec(seed=5)
        assert not np.array_equal(sample_matrix(spec, 0), sample_matrix(spec, 1))
        assert not np.array_equal(
            sample_matrix(make_spec(seed=5), 0), sample_matrix(make_spec(seed=6), 0)
        )

    def test_entries_distinct_in_block_row_major(self):
        spec = make_spec(N=30, alpha=F(1, 3), p=F(6))
        n1, n2 = spec.part1_size, 30 - spec.part1_size
        rows, cols, values = sample_entries(spec, 4)
        assert rows.size == cols.size == values.size > 0
        assert np.all((0 <= rows) & (rows < n1)) and np.all((0 <= cols) & (cols < n2))
        flat = rows * n2 + cols
        assert np.all(np.diff(flat) > 0)

    def test_entries_equal_freshly_keyed_philox(self, monkeypatch):
        # The per-thread generator is re-keyed, not rebuilt; the draws must be
        # those of a new Philox keyed by (seed, index // chunk_size), whatever
        # came before.  Spec 0 has chunks of 80 samples: indices 0, 5 and 79
        # share chunk 0, 79 is its last block and 80 opens chunk 1.  Spec 2
        # has chunks of 213, so 212 is the last block of chunk 0.
        specs = [
            make_spec(N=30, alpha=F(1, 3), p=F(6), dist="gaussian:1", seed=0),
            make_spec(N=17, p=F(3), seed=7),
            make_spec(N=24, p=F(5, 2), dist="two-point:1,1/3,-1/2", seed=2**40),
        ]
        assert [spec.chunk_size for spec in specs] == [80, 251, 213]
        order = [
            (0, 5), (1, 0), (2, 3), (0, 79), (0, 5), (1, 2**33), (0, 0), (2, 212), (0, 80),
            (2, 3),
        ]
        got = [sample_entries(specs[s], index) for s, index in order]
        keys = []

        def fresh(seed, chunk):
            keys.append((seed, chunk))
            key = np.array([seed, chunk], dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key))

        monkeypatch.setattr(simulate, "_keyed_generator", fresh)
        for (s, index), entries in zip(order, got):
            want = sample_entries(specs[s], index)
            assert keys.pop() == (specs[s].seed, index // specs[s].chunk_size)
            for got_array, want_array in zip(entries, want):
                assert np.array_equal(got_array, want_array), (s, index)

    def test_matrix_is_dense_form_of_entries(self):
        spec = make_spec(N=21, alpha=F(2, 3), p=F(3), dist="gaussian:1")
        n1 = spec.part1_size
        for index in range(3):
            rows, cols, values = sample_entries(spec, index)
            A = np.zeros((21, 21))
            A[rows, n1 + cols] = values
            A[n1 + cols, rows] = values
            assert np.array_equal(sample_matrix(spec, index), A)

    @pytest.mark.parametrize("seed", [2**64, -1], ids=["2^64", "minus-one"])
    @pytest.mark.parametrize("draw", [sample_matrix, sample_entries], ids=["matrix", "entries"])
    def test_seed_outside_64_bits_rejected(self, draw, seed):
        # Masked to 64 bits, seed 2^64 would draw seed 0's matrix and -1 seed
        # 2^64 - 1's.
        with pytest.raises(InvalidParamsError) as info:
            draw(make_spec(N=40, seed=seed), 3)
        assert info.value.code == "bad_seed"

    @pytest.mark.parametrize("index", [2**64, -1], ids=["2^64", "minus-one"])
    def test_index_outside_64_bits_rejected(self, index):
        with pytest.raises(ValueError, match="sample index"):
            sample_entries(make_spec(N=40), index)

    def test_largest_seed_and_index_accepted(self):
        assert sample_matrix(make_spec(N=40, seed=2**64 - 1), 2**64 - 1).shape == (40, 40)

    def test_edge_count_is_binomial(self):
        # Each of the n1*n2 cross pairs is present with probability p/N.
        spec = make_spec(N=40, alpha=F(1, 2), p=F(4), seed=8)
        samples = 400
        pairs, q = 20 * 20, 4 / 40
        counts = [sample_entries(spec, index)[0].size for index in range(samples)]
        stderr = math.sqrt(pairs * q * (1 - q) / samples)
        assert abs(np.mean(counts) - pairs * q) <= 5 * stderr

    def test_edge_counts_of_a_chunk_are_independent(self):
        # 400 samples at N = 40 fill 5 chunks of 80.  Independent
        # Binomial(n1*n2, q) counts have variance n1*n2*q*(1-q), and the sample
        # variance has standard error about var * sqrt(2 / (samples - 1)); the
        # correlation of neighbouring counts has standard error about
        # 1 / sqrt(samples - 1).  A chunk that shared one count among its
        # blocks would leave neighbours correlated near 1, and one that drew
        # a single block's count for the whole chunk would shrink the variance.
        spec = make_spec(N=40, alpha=F(1, 2), p=F(4), seed=1729)
        assert spec.chunk_size == 80
        samples = 400
        pairs, q = 20 * 20, 4 / 40
        counts = np.array([sample_entries(spec, index)[0].size for index in range(samples)])
        variance = pairs * q * (1 - q)
        assert abs(counts.var(ddof=1) - variance) <= 5 * variance * math.sqrt(2 / (samples - 1))
        centred = counts - counts.mean()
        lag_one = np.sum(centred[1:] * centred[:-1]) / np.sum(centred * centred)
        assert abs(lag_one) <= 5 / math.sqrt(samples - 1)


def spectral_moments(A: np.ndarray, kmax: int) -> np.ndarray:
    """M_k = Tr(A^k)/N, k = 1..kmax, as eigenvalue power sums."""
    eigenvalues = np.linalg.eigvalsh(A)
    return np.array([np.sum(eigenvalues**k) for k in range(1, kmax + 1)]) / A.shape[0]


def bipartite(block) -> np.ndarray:
    """The symmetric matrix with cross block ``block`` and empty diagonal blocks."""
    X = np.array(block, dtype=float)
    n1, n2 = X.shape
    A = np.zeros((n1 + n2, n1 + n2))
    A[:n1, n1:] = X
    A[n1:, :n1] = X.T
    return A


class TestTraceMoments:
    @pytest.mark.parametrize("kmax", [6, 10])
    @pytest.mark.parametrize("alpha", [F(1, 3), F(1, 2)], ids=["third", "half"])
    def test_routes_agree_on_even_orders(self, kmax, alpha):
        # kmax = 10 reaches Tr(H^5) = ||B_5||^2, so the chain is compared
        # through two odd links (X) and one even link (X^T).
        for dist in ("rademacher", "gaussian:1", "two-point:1,1/2,2"):
            spec = make_spec(N=30, alpha=alpha, dist=dist)
            for index in range(1, 5):
                A = sample_matrix(spec, index)
                full = spectral_moments(A, kmax)
                moments = trace_moments(A, kmax, part_size=spec.part1_size)
                assert np.allclose(full[1::2], moments[1::2], rtol=1e-9, atol=1e-12), (dist, index)

    def assert_block_moments(self, block):
        A = bipartite(block)
        for kmax in (2, 4, 6, 10):
            full = spectral_moments(A, kmax)
            moments = trace_moments(A, kmax, part_size=len(block))
            assert np.allclose(full[1::2], moments[1::2], rtol=1e-9, atol=1e-12), kmax
            assert not moments[0::2].any()

    def test_block_with_four_cycle(self):
        # Columns 0 and 2 meet in rows 0 and 1, so H[0, 2] = 1*2 + 3*(-1/2)
        # merges two row pairs into one entry above the diagonal of X^T X.
        block = [[1.0, 0.0, 2.0, 0.0], [3.0, 0.5, -0.5, 0.0], [0.0, 1.5, 0.0, -2.0]]
        rows, cols = np.nonzero(block)
        values = np.array(block)[rows, cols]
        _, keys, upper = simulate._gram(rows, cols, values, 4)
        assert keys.tolist() == [0 * 4 + 1, 0 * 4 + 2, 1 * 4 + 2, 1 * 4 + 3]
        assert upper.tolist() == [1.5, 0.5, -0.25, -3.0]
        self.assert_block_moments(block)

    def test_block_with_column_of_degree_three(self):
        self.assert_block_moments([[2.0, 0.0], [-1.0, 0.0], [0.5, 3.0]])

    def test_block_with_single_entry(self):
        self.assert_block_moments([[0.0, 0.0, 0.0], [0.0, -1.5, 0.0]])

    def test_block_with_unequal_weights(self):
        # Every two rows share one column (a 6-cycle, no 4-cycle).
        self.assert_block_moments(
            [[0.25, 0.0, 0.0, -1.0], [0.0, 2.0, 0.0, 0.5], [-3.0, 0.75, 0.0, 0.0]]
        )

    @pytest.mark.parametrize("kmax", [4, 10])
    def test_chunk_equals_samples_alone(self, kmax):
        # The second and third samples put entries at the same (row, col)
        # positions; without the block offsets they would meet in false
        # 4-cycles.  n1 != n2, so a trace split by the wrong block size
        # moves sums between samples.
        samples = [
            [[1.0, 0.0, 2.0, 0.0], [3.0, 0.5, -0.5, 0.0], [0.0, 1.5, 0.0, -2.0]],
            [[0.25, 0.0, 0.0, -1.0], [0.0, 2.0, 0.0, 0.5], [-3.0, 0.75, 0.0, 0.0]],
            [[0.5, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, 2.5], [1.5, 0.25, 0.0, 0.0]],
        ]
        entries = []
        for block in samples:
            rows, cols = np.nonzero(block)
            entries.append((rows, cols, np.array(block)[rows, cols]))
        alone = np.vstack([simulate._block_moments(e, 1, 3, 4, 7, kmax) for e in entries])
        # Sample s at rows 3s and columns 4s on.
        chunk = (
            np.concatenate([rows + 3 * s for s, (rows, _, _) in enumerate(entries)]),
            np.concatenate([cols + 4 * s for s, (_, cols, _) in enumerate(entries)]),
            np.concatenate([values for _, _, values in entries]),
        )
        together = simulate._block_moments(chunk, 3, 3, 4, 7, kmax)
        assert np.array_equal(together, alone)
        for row, block in zip(alone, samples):
            full = spectral_moments(bipartite(block), kmax)
            assert np.allclose(full[1::2], row[1::2], rtol=1e-9, atol=1e-12)

    def test_merge_equals_unique(self):
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 40, 300)
        weights = rng.standard_normal(300)
        distinct, slot = np.unique(keys, return_inverse=True)
        merged, sums = simulate._merge(keys, weights, 40)
        assert np.array_equal(merged, distinct)
        assert np.array_equal(sums, np.bincount(slot, weights=weights))
        with pytest.raises(OverflowError):
            simulate._merge(keys[:2], weights[:2], 2**62)

    def test_all_zero_block(self):
        moments = trace_moments(np.zeros((12, 12)), 10, part_size=4)
        assert np.array_equal(moments, np.zeros(10))

    def test_odd_orders_exactly_zero_with_part_size(self):
        spec = make_spec(N=30, alpha=F(1, 3))
        moments = trace_moments(sample_matrix(spec, 1), 5, part_size=spec.part1_size)
        assert moments[0] == 0.0 and moments[2] == 0.0 and moments[4] == 0.0

    def test_second_moment_is_frobenius(self):
        spec = make_spec(N=24)
        A = sample_matrix(spec, 2)
        moments = trace_moments(A, 2, part_size=spec.part1_size)
        assert abs(moments[1] - (A * A).sum() / 24) < 1e-12


class TestEstimates:
    def test_odd_pairs_are_exact_zeros(self):
        # No sampling happens, so a huge N stays instant.
        spec = make_spec(N=10**6)
        est = estimate_correlators(spec, [(3, 2)], samples=100)[0]
        assert est.mean == 0.0 and est.stderr == 0.0
        assert est.samples == 100

    def test_batch_clamping(self):
        spec = make_spec(N=8)
        est = estimate_correlators(spec, [(2, 2)], samples=5, batches=20)[0]
        assert est.batches == 2
        single = estimate_correlators(spec, [(2, 2)], samples=3, batches=1)[0]
        assert single.batches == 1 and single.stderr == 0.0

    def test_input_validation(self):
        spec = make_spec(N=8)
        with pytest.raises(ValueError):
            estimate_correlators(spec, [(2, 2)], samples=1)
        with pytest.raises(ValueError, match="at least one"):
            estimate_correlators(spec, [], samples=10)
        with pytest.raises(ValueError):
            estimate_correlators(spec, [(0, 2)], samples=10)
        with pytest.raises(ValueError, match="batch"):
            estimate_correlators(spec, [(2, 2)], samples=10, batches=0)
        with pytest.raises(ValueError, match="thread"):
            estimate_correlators(spec, [(2, 2)], samples=10, threads=0)

    def test_shared_stream_across_pairs(self):
        # Estimating (2,2) alone or together with (4,2) must not change it.
        spec = make_spec(N=40, seed=3)
        alone = estimate_correlators(spec, [(2, 2)], samples=60)[0]
        together = estimate_correlators(spec, [(2, 2), (4, 2)], samples=60)
        assert together[0] == alone

    def test_odd_pair_does_not_raise_kmax(self, monkeypatch):
        # (7, 3) has covariance 0 by symmetry, so the moments stop at (2, 2)'s.
        seen = []
        block_moments = simulate._block_moments

        def recorded(*args):
            seen.append(args[-1])  # kmax
            return block_moments(*args)

        monkeypatch.setattr(simulate, "_block_moments", recorded)
        spec = make_spec(N=40, seed=3)
        alone = estimate_correlators(spec, [(2, 2)], samples=20)[0]
        assert estimate_correlators(spec, [(2, 2), (7, 3)], samples=20)[0] == alone
        assert set(seen) == {2}

    @pytest.mark.parametrize("kmax", [4, 6])
    def test_chunk_stream_equals_samples_alone(self, monkeypatch, kmax):
        # N = 40 has chunks of 80 samples, so 83 samples end in a partial
        # chunk of 3.  The moment rows the estimate takes, a chunk at a time
        # up to kmax 4 and a sample at a time from kmax 6, must be those of
        # each sample drawn alone, and must not depend on how many samples
        # follow.
        spec = make_spec(N=40, seed=4)
        assert spec.chunk_size == 80
        n1 = spec.part1_size
        block_moments = simulate._block_moments
        alone = np.vstack([
            block_moments(sample_entries(spec, index), 1, n1, 40 - n1, 40, kmax)
            for index in range(83)
        ])

        def taken(samples):
            rows = []

            def recorded(*args):
                rows.append(block_moments(*args))
                return rows[-1]

            monkeypatch.setattr(simulate, "_block_moments", recorded)
            estimate_correlators(spec, [(kmax, 2)], samples=samples)
            return np.vstack(rows)

        got = taken(83)
        assert np.array_equal(got, alone)
        assert np.array_equal(taken(80), got[:80])

    def test_thread_count_does_not_change_results_over_many_chunks(self):
        spec = make_spec(N=400, seed=13)
        assert spec.chunk_size == 8
        base = estimate_correlators(spec, [(2, 2), (4, 4)], samples=200, threads=1)
        for threads in (2, 3):
            assert estimate_correlators(spec, [(2, 2), (4, 4)], samples=200, threads=threads) == base

    def test_thread_count_does_not_change_results(self):
        spec = make_spec(N=60, seed=11)
        base = estimate_correlators(spec, [(2, 2), (4, 4)], samples=80, threads=1)
        for threads in (2, 5):
            assert estimate_correlators(spec, [(2, 2), (4, 4)], samples=80, threads=threads) == base

    def test_pair_with_first_moment_is_exact_zero(self):
        # k = 1 is a valid index, and odd, so its covariance is exactly 0.
        est = estimate_correlators(make_spec(N=8), [(1, 2)], samples=10)[0]
        assert (est.k, est.m, est.mean, est.stderr) == (1, 2, 0.0, 0.0)

    def test_estimate_near_limit(self):
        # Limit value for (2,2) at alpha=1/2, p=4, rademacher is 1/4.
        spec = EnsembleSpec(400, ModelParams(F(1, 2), F(4)), WeightDistribution("rademacher"), 7)
        est = estimate_correlators(spec, [(2, 2)], samples=500)[0]
        assert est == estimate_correlators(spec, [(2, 2)], samples=500)[0]
        assert est.stderr > 0
        assert abs(est.mean - 0.25) < 4 * est.stderr


class TestExactFiniteN:
    def test_two_cross_pair_case(self):
        value = exact_finite_N(2, ModelParams(F(1, 2), F(1)), "rademacher", 2, 2)
        assert value == F(1, 2)

    def test_constant_weights(self):
        params = ModelParams(F(1, 2), F(1))
        assert exact_finite_N(3, params, "constant:1", 2, 2) == F(16, 27)
        assert exact_finite_N(4, params, "constant:1", 2, 4) == F(99, 64)

    def test_degenerate_two_point_merges_states(self):
        params = ModelParams(F(1, 2), F(1))
        assert exact_finite_N(3, params, "two-point:1,1/3,1", 2, 2) == F(16, 27)

    def test_asymmetric_two_point(self):
        value = exact_finite_N(4, ModelParams(F(1, 3), F(2)), "two-point:2,1/4,-1", 2, 2)
        assert value == F(309, 256)

    def test_odd_indices_vanish(self):
        assert exact_finite_N(3, ModelParams(F(1, 2), F(1)), "constant:1", 3, 2) == 0

    def test_size_cap(self):
        with pytest.raises(FiniteSizeCapError):
            exact_finite_N(7, ModelParams(F(1, 2), F(1)), "constant:1", 2, 2)

    def test_largest_size_equals_float_enumeration(self):
        # N = 6 is the cap itself, so it is evaluated: 3 x 3 cross pairs, each
        # absent or present with the constant weight 1 / sqrt(p), give 2^9
        # layouts, enumerated here in floats from the full matrix A.
        N, p, k, m = 6, 2, 2, 4
        value = exact_finite_N(N, ModelParams(F(1, 2), F(p)), "constant:1", k, m)
        present = p / N
        mean_k = mean_m = mean_km = 0.0
        for layout in range(2**9):
            edges = [(i, 3 + j) for i in range(3) for j in range(3) if layout >> (3 * i + j) & 1]
            prob = present ** len(edges) * (1 - present) ** (9 - len(edges))
            A = np.zeros((N, N))
            for i, j in edges:
                A[i, j] = A[j, i] = 1 / math.sqrt(p)
            moment_k = np.trace(np.linalg.matrix_power(A, k)) / N
            moment_m = np.trace(np.linalg.matrix_power(A, m)) / N
            mean_k += prob * moment_k
            mean_m += prob * moment_m
            mean_km += prob * moment_k * moment_m
        assert float(value) == pytest.approx(N * (mean_km - mean_k * mean_m), rel=1e-12)

    def test_single_vertex_has_an_empty_part(self):
        with pytest.raises(InvalidParamsError) as info:
            exact_finite_N(1, ModelParams(F(1, 2), F(1)), "constant:1", 2, 2)
        assert info.value.code == "empty_part"

    def test_first_moment_vanishes(self):
        assert exact_finite_N(3, ModelParams(F(1, 2), F(1)), "constant:1", 1, 2) == 0

    def test_param_validation(self):
        with pytest.raises(InvalidParamsError):
            exact_finite_N(4, ModelParams(F(1, 2), F(5)), "constant:1", 2, 2)
        with pytest.raises(InvalidParamsError):
            exact_finite_N(4, ModelParams(F(1, 2), F(1)), "two-point:1,3/2,-1", 2, 2)
        with pytest.raises(InvalidParamsError) as info:
            exact_finite_N(2, ModelParams(F(1, 3), F(1)), "constant:1", 2, 2)
        assert info.value.code == "empty_part"

    def test_law_with_a_density_rejected(self):
        with pytest.raises(InvalidParamsError) as info:
            exact_finite_N(2, ModelParams(F(1, 2), F(1)), "gaussian:1", 2, 2)
        assert info.value.code == "continuous_weight_law"

    def test_rademacher_signs_count_on_a_cycle(self):
        # At N = 4 and alpha = 1/2 the four cross pairs close a 4-cycle,
        # which Tr(A^4) walks around, so the signs of the weights count.
        params = ModelParams(F(1, 2), F(2))
        assert exact_finite_N(4, params, "rademacher", 4, 4) == F(11, 16)
        assert exact_finite_N(4, params, "two-point:1,1/2,-1", 4, 4) == F(11, 16)
        assert exact_finite_N(4, params, "constant:1", 4, 4) == F(239, 256)

    def test_sampler_matches_exact_value(self):
        # The Monte Carlo estimator must agree with the exact N=2 covariance;
        # this ties the sampler's scaling conventions to the closed form.
        exact = float(exact_finite_N(2, ModelParams(F(1, 2), F(1)), "rademacher", 2, 2))
        hits = 0
        for seed in range(3):
            spec = EnsembleSpec(2, ModelParams(F(1, 2), F(1)), WeightDistribution("rademacher"), seed)
            est = estimate_correlators(spec, [(2, 2)], samples=4000)[0]
            if abs(est.mean - exact) <= 4 * est.stderr:
                hits += 1
        assert hits >= 2
