"""Domain types, the float64 distance, and bit-exact file round-trips."""

import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from oracles import brute_force_distances
from weakext import core
from weakext.core import (
    DataError,
    EmbeddingSet,
    LabelModelParams,
    LabelVector,
    RadiusConfig,
    VoteMatrix,
    load_embeddings,
    load_labels,
    load_votes,
    paired_distances,
    save_embeddings,
    save_labels,
    save_votes,
)


def pair_distance(u, v, metric="cosine") -> float:
    """``paired_distances`` of the two rows ``u`` and ``v``."""
    return float(paired_distances(EmbeddingSet(np.array([u, v], dtype=np.float64)), [0], [1], metric)[0])


def all_pairs(emb, metric="cosine"):
    """``paired_distances`` of every ordered pair of ``emb``'s rows, as an ``n x n`` block."""
    idx = np.arange(emb.n)
    return paired_distances(emb, np.repeat(idx, emb.n), np.tile(idx, emb.n), metric).reshape(emb.n, emb.n)


class TestCosineDistance:
    def test_identical_direction_is_exactly_zero(self):
        assert pair_distance([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_orthogonal(self):
        assert pair_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_antipodal(self):
        assert pair_distance([1.0, 0.0], [-1.0, 0.0]) == 2.0

    def test_hand_value_45_degrees(self):
        # hand arithmetic: 1 - <(1,0),(1,1)> / (1 * sqrt(2))
        expected = 1.0 - 1.0 / math.sqrt(2.0)
        assert abs(pair_distance([1.0, 0.0], [1.0, 1.0]) - expected) < 1e-15

    def test_symmetry_property(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(1, 20))
            u, v = rng.standard_normal(d), rng.standard_normal(d)
            assert pair_distance(u, v) == pair_distance(v, u)

    def test_power_of_two_scaling_exactly_zero(self):
        rng = np.random.default_rng(8)
        for k in range(-8, 9):
            u = rng.standard_normal(6)
            assert pair_distance(u, (2.0**k) * u) == 0.0

    def test_general_positive_scaling_near_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            u = rng.standard_normal(5)
            c = float(rng.uniform(0.1, 10.0))
            assert 0.0 <= pair_distance(u, c * u) <= 1e-12

    def test_range_bounds(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            u, v = rng.standard_normal(4), rng.standard_normal(4)
            assert 0.0 <= pair_distance(u, v) <= 2.0

    @pytest.mark.parametrize("t", [1e-10, 3e-9])
    def test_near_duplicates_keep_their_distance(self, t):
        # 2 sin^2(t/2): 5.0e-21 and 4.5e-18, where 1 - cos t rounds to 0
        want = 2.0 * math.sin(t / 2) ** 2
        got = pair_distance([1.0, 0.0], [math.cos(t), math.sin(t)])
        assert abs(got - want) <= 1e-3 * want, (got, want)


class TestPairedDistances:
    def test_matches_the_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((12, 5))
        emb = EmbeddingSet(x)
        rows, cols = [0, 3, 7], [1, 2, 9, 11]
        got, want = all_pairs(emb), brute_force_distances(x)
        for r in rows:
            for c in cols:
                assert abs(got[r, c] - want[r, c]) < 1e-12

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_bitwise_equal_to_the_oracle(self, metric):
        # the scan decides radii with paired_distances, and tests take exact radii from
        # brute_force_distances, so the oracle must carry the very same float64 values
        rng = np.random.default_rng(13)
        for d in (2, 16, 128):
            x = rng.standard_normal((150, d))
            assert np.array_equal(all_pairs(EmbeddingSet(x), metric), brute_force_distances(x, metric)), d

    @pytest.mark.parametrize("power", [-60, 0, 60])
    def test_cosine_pairs_equal_whole_unit_row_differences_bit_for_bit(self, power):
        # min(0.5 |unit[a] - unit[b]|^2, 2) taken on whole unit rows, where
        # paired_distances gathers chunks of data rows and divides each by
        # its norm in place; near duplicates of a few rows, at scales 2**power
        rng = np.random.default_rng(21)
        base = rng.standard_normal((40, 128))
        near = base[rng.integers(0, 40, 460)]
        near = near * (1.0 + 1e-12 * rng.standard_normal((460, 1))) + 1e-10 * rng.standard_normal((460, 128))
        x = np.ldexp(np.vstack([base, near]), power)
        unit = x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
        a, b = rng.integers(0, 500, 200_000), rng.integers(0, 500, 200_000)
        got = paired_distances(EmbeddingSet(x), a, b)
        for lo in range(0, a.size, 20_000):
            diff = unit[a[lo : lo + 20_000]] - unit[b[lo : lo + 20_000]]
            want = np.minimum(0.5 * np.einsum("ij,ij->i", diff, diff), 2.0)
            assert np.array_equal(got[lo : lo + 20_000], want), lo
        assert (got[a != b] < 1e-18).any() and (got[a != b] > 0.5).any()

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_pairs_hold_bounded_scratch(self, metric):
        # 200k pairs at d=128: two gathers of every pair would take 410 MB
        rng = np.random.default_rng(22)
        emb = EmbeddingSet(rng.standard_normal((1000, 128)))
        a, b = rng.integers(0, 1000, 200_000), rng.integers(0, 1000, 200_000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            paired_distances(emb, a, b, metric)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak  # the 1.6 MB result, two 512 KB buffers and the norms

    def test_out_of_range_pair_index_raises(self):
        emb = EmbeddingSet(np.eye(3) + 1.0)
        assert paired_distances(emb, [-1], [2])[0] == 0.0  # Python's reading of a negative index
        for bad in ([3], [-4]):
            with pytest.raises(IndexError):
                paired_distances(emb, [0], bad)

    def test_cosine_keeps_near_duplicates_apart(self):
        # rows at angles 1e-12..1e-6 from (1, 0): 1 - cos(t) = 2 sin(t/2)^2
        # is far below the 1.1e-16 rounding of 1 - <a,b>, yet each distance
        # keeps its relative precision, so the nearest one is the nearest
        t = np.geomspace(1e-12, 1e-6, 25)
        x = np.vstack([[1.0, 0.0], np.column_stack([np.cos(t), np.sin(t)]) * 3.0])
        got = paired_distances(EmbeddingSet(x), np.zeros(t.size, dtype=int), np.arange(1, t.size + 1))
        np.testing.assert_allclose(got, 2.0 * np.sin(t / 2) ** 2, rtol=1e-3)
        assert (np.diff(got) > 0).all()

    @pytest.mark.parametrize("power", [-1000, -560, 560, 1000])
    def test_euclidean_scales_exactly_at_any_spread(self, power):
        # plain squares of these differences underflow or overflow
        rng = np.random.default_rng(14)
        x = rng.standard_normal((40, 3))
        want = np.ldexp(all_pairs(EmbeddingSet(x), "euclidean"), power)
        emb = EmbeddingSet(np.ldexp(x, power))
        assert np.array_equal(all_pairs(emb, "euclidean"), want)
        assert np.array_equal(brute_force_distances(np.ldexp(x, power), "euclidean"), want)

    @pytest.mark.parametrize("power", [-600, 600])
    def test_unit_rows_ignore_the_scale(self, power):
        # plain squared norms of these rows underflow or overflow; the norms
        # scale exactly, so the unit rows and their distances do not move
        rng = np.random.default_rng(16)
        x = rng.standard_normal((40, 5))
        assert np.array_equal(EmbeddingSet(x * 2.0**power).norms, np.ldexp(EmbeddingSet(x).norms, power))
        assert np.array_equal(all_pairs(EmbeddingSet(x * 2.0**power)), all_pairs(EmbeddingSet(x)))
        # the oracle scales each row before norming it, so it too keeps every bit
        assert np.array_equal(brute_force_distances(x * 2.0**power), all_pairs(EmbeddingSet(x)))

    def test_euclidean_matches_norm(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(size=(10, 3))
        emb = EmbeddingSet(x)
        block = all_pairs(emb, "euclidean")
        for i in range(10):
            for j in range(10):
                assert abs(block[i, j] - np.linalg.norm(x[i] - x[j])) < 1e-9


class TestTypeInvariants:
    def test_embedding_rejects_nan(self):
        with pytest.raises(DataError, match="row 1"):
            EmbeddingSet(np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, 4.0]]))

    def test_embedding_rejects_zero_row(self):
        with pytest.raises(DataError, match="row 2"):
            EmbeddingSet(np.array([[1.0, 2.0], [2.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize(
        "dtype, held",
        [(np.float32, np.float32), (np.float64, np.float64), (np.float16, np.float64), (np.int64, np.float64)],
    )
    def test_embedding_dtype_follows_the_input(self, dtype, held):
        x = np.arange(1, 7).reshape(3, 2).astype(dtype)
        emb = EmbeddingSet(x)
        assert emb.data.dtype == held and emb.data.tolist() == x.tolist()
        assert emb.norms.dtype == np.float64 and paired_distances(emb, [0], [1]).dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_embedding_checks_run_over_chunks_of_rows(self, dtype):
        # 3 rows per 2**16-entry chunk: the zero row's chunk comes first, yet non-finite rows are reported first
        x = np.ones((12, 2**14), dtype=dtype)
        x[1] = 0.0
        with pytest.raises(DataError, match="all-zero embedding row 1"):
            EmbeddingSet(x)
        x[10, 5] = np.inf
        with pytest.raises(DataError, match="non-finite embedding entry in row 10"):
            EmbeddingSet(x)

    def test_embedding_rejects_wrong_ndim(self):
        with pytest.raises(DataError):
            EmbeddingSet(np.ones(4))

    def test_votes_alphabet(self):
        with pytest.raises(DataError, match=r"\(row 1, col 0\)"):
            VoteMatrix(np.array([[1, 0], [2, 0]]))
        with pytest.raises(DataError, match=r"entry 257 at \(row 0, col 1\)"):  # not wrapped to 1 by int8
            VoteMatrix(np.array([[0, 257]]))

    def test_labels_alphabet(self):
        with pytest.raises(DataError, match="row 1"):
            LabelVector(np.array([1, 0, -1]))

    def test_radii_nonnegative(self):
        with pytest.raises(DataError):
            RadiusConfig(np.array([0.1, -0.5]))

    def test_params_ranges(self):
        with pytest.raises(DataError):
            LabelModelParams(np.array([1.0]), np.array([0.0]), 0.5)
        with pytest.raises(DataError):
            LabelModelParams(np.array([0.8]), np.array([0.0]), 1.0)

    def test_arrays_are_frozen(self):
        votes = VoteMatrix(np.array([[1, 0], [0, -1]]))
        with pytest.raises(ValueError):
            votes.votes[0, 0] = -1
        emb = EmbeddingSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            emb.data[0, 0] = 2.0

    def test_lazy_array_is_built_once_under_concurrent_first_use(self):
        emb = EmbeddingSet(np.ones((4, 3)))
        workers = 4
        barrier, calls, got = threading.Barrier(workers), [], []

        def build():
            calls.append(1)
            time.sleep(0.05)  # every other thread arrives while this one builds
            return np.zeros(3)

        def use():
            barrier.wait(timeout=10)
            got.append(emb._cached("probe", build))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=use) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(calls) == 1
        assert len(got) == workers and all(g is got[0] for g in got)

    def test_constructor_copies_input(self):
        src = np.array([[1, 0], [0, -1]], dtype=np.int8)
        VoteMatrix(src)
        src[0, 0] = -1  # caller's array must stay writable

    def test_similarity_conversion(self):
        config = RadiusConfig.from_similarities([0.85, 1.0])
        np.testing.assert_allclose(config.radii, [0.15, 0.0], atol=0)


class TestEmbeddingIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        emb = EmbeddingSet(rng.standard_normal((3, 2)))
        p1, p2 = tmp_path / "a.emb", tmp_path / "b.emb"
        save_embeddings(emb, p1)
        loaded = load_embeddings(p1)
        save_embeddings(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_shape(self, tmp_path):
        emb = EmbeddingSet(np.ones((4, 7)))
        path = tmp_path / "x.emb"
        save_embeddings(emb, path)
        loaded = load_embeddings(path)
        assert (loaded.n, loaded.d) == (4, 7)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "x.emb"
        save_embeddings(EmbeddingSet(np.ones((3, 2))), path)
        data = path.read_bytes()
        path.write_bytes(data[:-4])
        with pytest.raises(DataError, match="truncated payload"):
            load_embeddings(path)

    def test_oversized_payload(self, tmp_path):
        path = tmp_path / "x.emb"
        save_embeddings(EmbeddingSet(np.ones((3, 2))), path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(DataError, match="mismatch"):
            load_embeddings(path)

    def test_nan_payload_names_row(self, tmp_path):
        path = tmp_path / "x.emb"
        save_embeddings(EmbeddingSet(np.ones((3, 2))), path)
        raw = bytearray(path.read_bytes())
        nan = np.array([np.nan], dtype="<f4").tobytes()
        offset = len(raw) - 2 * 4  # first value of row 2
        raw[offset : offset + 4] = nan
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="row 2"):
            load_embeddings(path)

    @pytest.mark.parametrize("header", [b"not json", b'[1, 2]', b'{"n": null, "d": 1}', b'{"n": 1, "d": "\xe9"}'])
    def test_bad_header(self, tmp_path, header):
        path = tmp_path / "x.emb"
        path.write_bytes(header + b"\n\x00\x00\x00\x00")
        with pytest.raises(DataError, match="header"):
            load_embeddings(path)

    def test_load_holds_the_float32_payload_once(self, tmp_path):
        x = np.random.default_rng(16).standard_normal((8000, 64)).astype(np.float32)
        path = tmp_path / "x.emb"
        save_embeddings(EmbeddingSet(x), path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            emb = load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert emb.data.dtype == np.float32 and emb.data.tobytes() == x.tobytes()
        assert not emb.data.flags.writeable
        # one copy of the data and the checks' chunk temporaries (2.0 MB), where the file's bytes, their
        # float64 conversion and the set's copy of that peaked at 8.3 MB
        assert peak < x.nbytes + 2**18, peak

    def test_float64_sets_are_written_rounded_chunk_by_chunk(self, tmp_path):
        x = np.random.default_rng(17).standard_normal((1000, 200))  # several 2**16-entry chunks, the last one short
        path = tmp_path / "x.emb"
        save_embeddings(EmbeddingSet(x), path)
        assert path.read_bytes() == b'{"d": 200, "n": 1000}\n' + x.astype("<f4").tobytes()

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b'{"d": 2, "n": 3}\n' + np.arange(1, 7, dtype="<f4").tobytes(), None),
            (b'{"d": 2, "n": 3}\n' + np.arange(1, 6, dtype="<f4").tobytes(), "truncated payload"),
            (b'{"d": 2, "n": 3}\n' + np.arange(1, 8, dtype="<f4").tobytes(), "mismatch"),
            (b'{"d": 1000000, "n": 1000000000}\n' + bytes(8), "does not fit in memory"),  # 4 PB
        ],
        ids=["whole", "short", "long", "huge-header"],
    )
    def test_load_from_a_pipe(self, tmp_path, raw, message):
        # no file size to check ahead: the payload's length shows as it is read
        fifo = tmp_path / "pipe.emb"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(raw,), daemon=True)
        writer.start()
        try:
            if message is None:
                assert load_embeddings(fifo).data.tolist() == [[1, 2], [3, 4], [5, 6]]
            else:
                with pytest.raises(DataError, match=message):
                    load_embeddings(fifo)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_zero_row_rejected_at_load(self, tmp_path):
        path = tmp_path / "x.emb"
        payload = np.array([[1.0, 2.0], [0.0, 0.0]], dtype="<f4")
        path.write_bytes(b'{"d": 2, "n": 2}\n' + payload.tobytes())
        with pytest.raises(DataError, match="row 1"):
            load_embeddings(path)


class TestCsvIO:
    def test_votes_single_row(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,0,-1\n")
        votes = load_votes(path)
        assert (votes.n, votes.m) == (1, 3)
        assert votes.votes.tolist() == [[1, 0, -1]]

    def test_votes_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        votes = VoteMatrix(rng.choice([-1, 0, 1], size=(20, 4)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_votes(votes, p1)
        save_votes(load_votes(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_out_of_alphabet_coordinates(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("2,0\n")
        with pytest.raises(DataError, match=r"\(row 0, col 0\)"):
            load_votes(path)

    def test_non_integer_coordinates(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,0\n0,x\n")
        with pytest.raises(DataError, match=r"\(row 1, col 1\)"):
            load_votes(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("")
        with pytest.raises(DataError, match="no rows"):
            load_votes(path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,0\n1\n")
        with pytest.raises(DataError, match="row 1"):
            load_votes(path)

    def test_labels_round_trip(self, tmp_path):
        labels = LabelVector(np.array([1, -1, 1, 1]))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_labels(labels, p1)
        save_labels(load_labels(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "text, rows",
        [
            (" 1,\t-1 , +1\n", [[1, -1, 1]]),
            ("01,-0,+0\n00,-01,1\n", [[1, 0, 0], [0, -1, 1]]),
            ("\n1,0\n\n  \n-1,1\n\n", [[1, 0], [-1, 1]]),  # blank lines anywhere
            ("1,0\r\n0,1\r\n", [[1, 0], [0, 1]]),
            ("1,0\n0,1", [[1, 0], [0, 1]]),  # no final newline
        ],
        ids=["spaces-signs", "leading-zeros", "blank-lines", "crlf", "no-final-newline"],
    )
    def test_accepted_spellings(self, tmp_path, text, rows):
        path = tmp_path / "v.csv"
        path.write_bytes(text.encode("ascii"))
        assert load_votes(path).votes.tolist() == rows

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,0\n0,1.0\n", "non-integer vote entry '1.0' at (row 1, col 1)"),
            ("1,0\n\nx,1\n", "non-integer vote entry 'x' at (row 2, col 0)"),
            ("1,,0\n", "non-integer vote entry '' at (row 0, col 1)"),
            ("1,0\n0,x\n1\n", "non-integer vote entry 'x' at (row 1, col 1)"),  # first fault wins
            ("1,0\n1\n0,x\n", "row 1 has 1 columns, expected 2"),
            ("1,0\n\n1,0,1\n", "row 2 has 3 columns, expected 2"),
            ("\n\n \n", "no rows"),
            ("1,2\n", "vote entry 2 at (row 0, col 1) not in [-1, 0, 1]"),
            ("1,0\n-1,257\n", "vote entry 257 at (row 1, col 1) not in [-1, 0, 1]"),
            ("99999999999999999999,0\n", "vote entry '99999999999999999999' at (row 0, col 0) is outside the int64 range"),
            ("0,1\n-9223372036854775809,0\n", "vote entry '-9223372036854775809' at (row 1, col 0) is outside the int64 range"),
            ("1,0\r\n\r0,caf\xe9\n", "non-ASCII byte 0xe9 in row 2"),
            ("-,1\n", "non-integer vote entry '-' at (row 0, col 0)"),
            ("1,0-1\n", "non-integer vote entry '0-1' at (row 0, col 1)"),
            ("1,0\n1,\n", "non-integer vote entry '' at (row 1, col 1)"),
        ],
        ids=["float", "letter", "empty-cell", "letter-before-ragged", "ragged-before-letter",
             "wide-after-blank", "only-blank", "out-of-alphabet", "beyond-int8", "beyond-int64",
             "below-int64", "non-ascii", "sign-alone", "inner-sign", "empty-last-cell"],
    )
    def test_rejected_spellings(self, tmp_path, text, message):
        path = tmp_path / "v.csv"
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(DataError) as err:
            load_votes(path)
        assert str(err.value) == f"{path}: {message}"

    def test_matches_a_per_cell_loop(self, tmp_path):
        # the reference: strip each line, skip blank ones, int() each cell
        rng = np.random.default_rng(15)
        spellings = ["1", "-1", "0", " 1", "+1", "01", "-0", "1 ", "\t-1", "+0", "001"]
        path = tmp_path / "v.csv"
        for _ in range(20):
            lines = [",".join(rng.choice(spellings, 3)) for _ in range(int(rng.integers(1, 40)))]
            for k in rng.integers(0, len(lines) + 1, 5):
                lines.insert(k, rng.choice(["", "  ", "\t"]))
            text = "\n".join(lines) + rng.choice(["", "\n"])
            path.write_text(text)
            want = [[int(c) for c in line.strip().split(",")] for line in text.split("\n") if line.strip()]
            assert load_votes(path).votes.tolist() == want

    @pytest.mark.parametrize(
        "big", [["9"], ["99", "10"], ["9" * 18, "1" + "0" * 17], ["1" + "0" * 18, "9223372036854775807"]],
        ids=["1-digit", "2-digit", "18-digit", "19-digit"],
    )
    def test_canonical_files_match_a_per_cell_loop(self, tmp_path, big):
        # only digits, "-", "," and "\n": parsed as one array up to 18 digits a cell, line by line past them
        rng = np.random.default_rng(len(big[0]))
        spellings = ["0", "1", "-1", "-0", "007", "-10", *big, *("-" + c for c in big)]
        path = tmp_path / "v.csv"
        for width in (1, 3, 7):
            for _ in range(5):
                lines = [",".join(rng.choice(spellings, width)) for _ in range(int(rng.integers(1, 60)))]
                for k in rng.integers(0, len(lines) + 1, 4):
                    lines.insert(k, "")
                text = "\n".join(lines) + rng.choice(["", "\n"])
                path.write_text(text)
                want = [[int(c) for c in line.split(",")] for line in text.split("\n") if line]
                fast = core._parse_canonical(path.read_bytes())
                assert (fast is None) == any(len(c.lstrip("-")) > 18 for c in text.replace(",", "\n").split())
                assert core._load_int_csv(path, "vote").tolist() == want
                if fast is not None:
                    assert fast.dtype == np.int64 and fast.tolist() == want

    def test_written_bytes(self, tmp_path):
        path = tmp_path / "v.csv"
        save_votes(VoteMatrix(np.array([[1, 0, -1], [0, 0, 1]])), path)
        assert path.read_bytes() == b"1,0,-1\n0,0,1\n"
        save_labels(LabelVector(np.array([-1, 1])), path)
        assert path.read_bytes() == b"-1\n1\n"
        save_votes(VoteMatrix(np.zeros((0, 2))), path)
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_writer_matches_a_per_row_join(self, tmp_path, dtype):
        rng = np.random.default_rng(18)
        hi = np.iinfo(dtype).max
        path = tmp_path / "v.csv"
        for shape in ((500, 4), (300, 1), (1, 6), (0, 3), (4, 0)):
            arr = rng.integers(-hi - 1, hi, shape, endpoint=True, dtype=dtype)
            arr[: shape[0] // 2] = arr[: shape[0] // 2] % 3 - 1  # repeated rows beside distinct ones
            core._save_int_csv(arr, path)
            assert path.read_text() == "".join(",".join(map(str, row)) + "\n" for row in arr.tolist())

    def test_labels_reject_zero(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("1\n0\n")
        with pytest.raises(DataError):
            load_labels(path)


class TestDistinct:
    def test_matches_numpy_unique_bit_for_bit(self):
        rng = np.random.default_rng(24)
        for _ in range(500):
            k = int(rng.integers(0, 30))
            x = rng.choice(np.round(rng.standard_normal(6), 1), k) if k else np.empty(0)
            x[x == 0] = 0.0  # one zero: numpy's hash keeps either of 0.0 and -0.0
            if k and rng.random() < 0.3:
                x[rng.integers(0, k, 2)] = np.nan
            for arr in (x, (x[~np.isnan(x)] * 10).astype(np.int64), x.reshape(1, -1)):
                want = np.unique(arr)
                got = core._distinct(arr)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), arr

    def test_of_zeros_keeps_the_first(self):
        assert np.signbit(core._distinct(np.array([1.0, -0.0, 0.0]))).tolist() == [True, False]
        assert np.signbit(core._distinct(np.array([0.0, -0.0]))).tolist() == [False]
