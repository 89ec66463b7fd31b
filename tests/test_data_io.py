import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftbench import data_io
from driftbench.data_io import (
    Batch,
    DataFormatError,
    Dataset,
    ParseStats,
    SyntheticConfig,
    atomic_write_text,
    dataset_checksum,
    format_sample_line,
    generate_synthetic,
    load_batch_file,
    load_dataset,
    parse_sample_line,
    write_batch_file,
)


def dense_line(label, values, concentration=None):
    head = f"{label};{concentration}" if concentration is not None else str(label)
    return head + " " + " ".join(f"{i + 1}:{v}" for i, v in enumerate(values))


class TestParse:
    def test_full_line_with_concentration(self):
        values = [round(0.1 * i - 5, 3) for i in range(128)]
        label, conc, features = parse_sample_line(dense_line(3, values, "250.000000"))
        assert label == 3
        assert conc == 250.0
        assert np.array_equal(features, np.array(values))

    def test_label_only_form(self):
        label, conc, features = parse_sample_line(dense_line(6, [0.0] * 128))
        assert label == 6
        assert math.isnan(conc)
        assert np.array_equal(features, np.zeros(128))

    def test_label_out_of_range(self):
        with pytest.raises(DataFormatError, match="label 7"):
            parse_sample_line("7;10.0 1:1.0")

    def test_index_out_of_range(self):
        with pytest.raises(DataFormatError, match=r"129.*'129:1.0'"):
            parse_sample_line("1 129:1.0")
        with pytest.raises(DataFormatError, match="0"):
            parse_sample_line("1 0:1.0")

    def test_non_increasing_indices(self):
        with pytest.raises(DataFormatError, match="strictly increasing"):
            parse_sample_line("1 2:1.0 2:2.0")
        with pytest.raises(DataFormatError, match="strictly increasing"):
            parse_sample_line("1 5:1.0 3:2.0")

    def test_unparseable_number(self):
        with pytest.raises(DataFormatError, match="1:abc"):
            parse_sample_line("1 1:abc")

    def test_malformed_token(self):
        with pytest.raises(DataFormatError, match="malformed feature token"):
            parse_sample_line("1 noseparator")

    def test_error_names_line_number(self):
        with pytest.raises(DataFormatError, match="line 17"):
            parse_sample_line("9 1:1.0", line_no=17)

    def test_empty_line(self):
        with pytest.raises(DataFormatError, match="empty"):
            parse_sample_line("   ")

    def test_missing_indices_zero_filled(self):
        stats = ParseStats()
        _, _, features = parse_sample_line("2 1:1.5 100:-2.0", stats=stats)
        expected = np.zeros(128)
        expected[0] = 1.5
        expected[99] = -2.0
        assert np.array_equal(features, expected)
        assert stats.samples_with_missing == 1
        assert stats.zero_filled == 126

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for i in range(20):
            conc = float(rng.uniform(5, 1000)) if i % 2 else math.nan
            label, features = int(rng.integers(1, 7)), rng.normal(size=128) * 1e3
            back_label, back_conc, back_features = parse_sample_line(
                format_sample_line(label, conc, features)
            )
            assert back_label == label
            assert back_conc == conc or math.isnan(back_conc) and math.isnan(conc)
            assert np.array_equal(back_features, features)


class TestLoad:
    def write(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_counts_and_months(self, tmp_path):
        self.write(tmp_path / "batch1.dat", [dense_line(1, range(128))] * 3)
        self.write(tmp_path / "batch2.dat", [dense_line(2, range(128))] * 2)
        ds = load_dataset(tmp_path)
        assert ds.batch_ids == [1, 2]
        assert [len(ds.batch(b)) for b in ds.batch_ids] == [3, 2]
        assert ds.batch(1).month_ids == (1, 2)
        assert ds.n_samples == 5

    def test_calibration_only_directory_is_valid(self, tmp_path):
        self.write(tmp_path / "batch1.dat", [dense_line(4, range(128))] * 5)
        ds = load_dataset(tmp_path)
        assert ds.batch_ids == [1]
        assert len(ds.batch(1)) == 5

    def test_missing_batch1_fatal(self, tmp_path):
        self.write(tmp_path / "batch2.dat", [dense_line(1, range(128))])
        with pytest.raises(DataFormatError, match="batch1.dat"):
            load_dataset(tmp_path)

    def test_gap_fatal(self, tmp_path):
        self.write(tmp_path / "batch1.dat", [dense_line(1, range(128))])
        self.write(tmp_path / "batch3.dat", [dense_line(1, range(128))])
        with pytest.raises(DataFormatError, match="batch2.dat"):
            load_dataset(tmp_path)

    def test_long_gap_is_named_as_one_range(self, tmp_path):
        self.write(tmp_path / "batch1.dat", [dense_line(1, range(128))])
        self.write(tmp_path / "batch20240101.dat", [dense_line(1, range(128))])
        with pytest.raises(DataFormatError, match=r"missing batch2\.dat \.\. batch20240100\.dat$"):
            load_dataset(tmp_path)

    def test_only_regular_batch_files_count(self, tmp_path):
        self.write(tmp_path / "batch1.dat", [dense_line(1, range(128))])
        for name in ("batch02.dat", "batch0.dat", "batch3.dat.bak", "Batch4.dat"):
            self.write(tmp_path / name, ["not a sample line"])
        (tmp_path / "batch2.dat").mkdir()
        assert load_dataset(tmp_path).batch_ids == [1]

    def test_twelve_batches_round_trip(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(n_classes=2, dim=128, per_class=2, n_batches=12))
        for bid in ds.batch_ids:
            write_batch_file(tmp_path / f"batch{bid}.dat", ds.batch(bid))
        back = load_dataset(tmp_path)
        assert back.batch_ids == list(range(1, 13))
        for bid in ds.batch_ids:
            assert np.array_equal(back.batch(bid).features, ds.batch(bid).features)
            assert np.array_equal(back.batch(bid).labels, ds.batch(bid).labels)

    def test_line_errors_aggregated_with_file_name(self, tmp_path):
        self.write(
            tmp_path / "batch1.dat",
            [dense_line(1, range(128)), "9 1:1.0", "1 1:zzz"],
        )
        with pytest.raises(DataFormatError, match=r"batch1\.dat: 2 malformed"):
            load_dataset(tmp_path)

    def test_empty_file_rejected(self, tmp_path):
        (tmp_path / "batch1.dat").write_text("\n")
        with pytest.raises(DataFormatError, match="no samples"):
            load_dataset(tmp_path)

    def test_non_utf8_byte_is_one_more_malformed_line(self, tmp_path):
        good = dense_line(1, range(128)).encode()
        (tmp_path / "batch1.dat").write_bytes(b"1 1:0\xff5\n" + good + b"\n9 1:1.0\n")
        with pytest.raises(DataFormatError) as exc:
            load_dataset(tmp_path)
        assert str(exc.value) == (
            "batch1.dat: 2 malformed line(s): line 1: byte 0xff at offset 5 is not UTF-8; "
            "line 3: label 9 outside {1..6} in token '9'"
        )

    def test_write_batch_file_round_trip(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(n_classes=3, dim=128, per_class=4, n_batches=1, seed=9))
        batch = ds.batch(1)
        write_batch_file(tmp_path / "batch1.dat", batch)
        back = load_dataset(tmp_path).batch(1)
        assert np.array_equal(back.features, batch.features)
        assert np.array_equal(back.labels, batch.labels)
        assert np.all(np.isnan(back.concentrations))


def per_line_reference(path):
    """Load a batch file line by line with ``parse_sample_line``, aggregating
    errors as ``load_batch_file`` does: the reference for its one-pass path."""
    stats = ParseStats()
    rows, errors = [], []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rows.append(parse_sample_line(line, line_no, stats))
            except DataFormatError as exc:
                errors.append(str(exc))
    if errors:
        shown = "; ".join(errors[:5])
        more = f" (+{len(errors) - 5} more)" if len(errors) > 5 else ""
        raise DataFormatError(f"{path.name}: {len(errors)} malformed line(s): {shown}{more}")
    if not rows:
        raise DataFormatError(f"{path.name}: no samples")
    labels, concentrations, features = zip(*rows)
    return np.array(labels), np.array(concentrations), np.stack(features), stats


def assert_loads_like_reference(path):
    """``load_batch_file`` gives bit-identical columns and equal stats to the
    reference, or the same error text; returns that text or None."""
    try:
        labels, concentrations, features, ref_stats = per_line_reference(path)
    except DataFormatError as ref_exc:
        with pytest.raises(DataFormatError) as exc:
            load_batch_file(path, 1)
        assert str(exc.value) == str(ref_exc)
        return str(exc.value)
    batch, stats = load_batch_file(path, 1)
    for got, want in (
        (batch.labels, labels),
        (batch.concentrations, concentrations),
        (batch.features, features),
    ):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert stats == ref_stats
    return None


def canonical_line(label, concentration=None):
    """A dense 128-feature line whose feature k reads ``k:k.25``."""
    return dense_line(label, [i + 1.25 for i in range(128)], concentration)


def forbid_per_line_parser(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the per-line parser ran on a dense file")

    monkeypatch.setattr(data_io, "parse_sample_line", fail)


def _swap_separators(tokens, k):
    # "1:5.0 2:7.0" -> "1:5.0:2 7.0": same count of spaces and colons
    if k + 1 < len(tokens) and ":" in tokens[k + 1]:
        idx, _, val = tokens[k + 1].partition(":")
        tokens[k : k + 2] = [f"{tokens[k]}:{idx}", val]


def _set_index(text):
    def mutate(tokens, k):
        idx, sep, val = tokens[k].partition(":")
        tokens[k] = text.format(idx=idx) + sep + val

    return mutate


def _set_value(text):
    def mutate(tokens, k):
        idx, _, val = tokens[k].partition(":")
        tokens[k] = f"{idx}:" + text.format(val=val)

    return mutate


def _append(text):
    def mutate(tokens, k):
        tokens[k] += text

    return mutate


def _set_head(text):
    def mutate(tokens, k):
        tokens[0] = text

    return mutate


TRAPS = [
    _swap_separators,
    _set_index("{idx}.0"),
    _set_index("{idx}e0"),
    _set_index("+{idx}"),
    _set_index("0{idx}"),
    _set_index("{idx};1"),
    _set_value("{val};3"),
    _set_value("{val}#"),
    _set_value("\t{val}"),
    _set_value("nan"),
    _set_value("-inf"),
    _set_value("1e400"),
    _set_value("1e-400"),
    _set_value("-0.0"),
    _set_value("1_0.5"),
    _set_value("١.5"),
    _set_value(""),
    _append(" "),
    _append("\t"),
    _append("\x0c"),
    _append("\r"),
    _set_head("7"),
    _set_head(" 3"),
    _set_head("3;0"),
    _set_head("3;nan"),
    _set_head("3;12;3"),
    lambda tokens, k: tokens.pop(k),
    lambda tokens, k: tokens.insert(k, tokens[k]),
    lambda tokens, k: tokens.insert(k, "#"),
    lambda tokens, k: tokens.__setitem__(k, tokens[k].replace(":", "")),
]


@st.composite
def batch_file_text(draw):
    """A batch file of dense or sparse lines with both head forms, number
    formats and line ends, and on some lines one trap from ``TRAPS``."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = rng.normal(size=128) * 10.0 ** draw(st.integers(-8, 8))
        if draw(st.integers(0, 5)):
            indices = range(1, 129)
        else:
            indices = sorted(draw(st.sets(st.integers(1, 128), min_size=1, max_size=6)))
        fmt = draw(st.sampled_from(["{!r}", "{:.6f}", "{:.3e}"]))
        tokens = [f"{i}:" + fmt.format(float(values[i - 1])) for i in indices]
        label = draw(st.integers(1, 6))
        tokens.insert(0, draw(st.sampled_from([f"{label}", f"{label};250.5", f"{label};1e3"])))
        if draw(st.integers(0, 4)) == 0:
            draw(st.sampled_from(TRAPS))(tokens, draw(st.integers(0, len(tokens) - 1)))
        lines.append(" ".join(tokens) + draw(st.sampled_from(["", "", " "])))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def cache_entry(path):
    return path.parent / data_io.CACHE_DIR / f"{path.name}.npy"


def spy_dense_parse(monkeypatch):
    """Count ``_parse_dense`` calls; the list gains one item per call."""
    calls = []
    parse = data_io._parse_dense

    def spy(path, digest):
        calls.append(path)
        return parse(path, digest)

    monkeypatch.setattr(data_io, "_parse_dense", spy)
    return calls


def write_random_batch(path, seed, n=5):
    rng = np.random.default_rng(seed)
    conc = rng.uniform(5, 1000, n)
    conc[::2] = math.nan
    batch = Batch(1, rng.normal(size=(n, 128)) * 1e3, rng.integers(1, 7, n), conc)
    write_batch_file(path, batch)
    return batch


def assert_same_columns(got, want):
    for name in ("labels", "concentrations", "features"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert got.features.flags.c_contiguous


class TestOnePass:
    """The one-pass parse of dense files against the per-line parser."""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("1:1.25 2:2.25", "1:1.25:2 2.25", "unparseable value in token '1:1.25:2'"),
            ("3:3.25", "3.0:3.25", "malformed feature index in token '3.0:3.25'"),
            ("1:1.25", "1e0:1.25", "malformed feature index in token '1e0:1.25'"),
            ("5:5.25", "5:5;25", "unparseable value in token '5:5;25'"),
            ("5:5.25", "5;6:5.25", "malformed feature index in token '5;6:5.25'"),
            ("7:7.25", "7:7.25#", "unparseable value in token '7:7.25#'"),
            ("128:128.25", "128:128.25 #", "malformed feature token '#'"),
            ("9:9.25", "9:nan", "non-finite value in token '9:nan'"),
            ("9:9.25", "9:inf", "non-finite value in token '9:inf'"),
            ("9:9.25", "9:1e400", "non-finite value in token '9:1e400'"),
            ("2:2.25", "2:\t2.25", "unparseable value in token '2:'"),
            ("3;250.5", "3;0", "concentration must be positive in token '3;0'"),
            # int() and float() take "_" separators and non-ASCII digits; the grammar does not.
            ("3;250.5", "0_3;250.5", "malformed label token '0_3;250.5'"),
            ("10:10.25", "1_0:10.25", "malformed feature index in token '1_0:10.25'"),
            ("3:3.25", "3:1_5", "unparseable value in token '3:1_5'"),
            ("3;250.5", "3;25_0.5", "unparseable concentration in token '3;25_0.5'"),
            ("3;250.5", "\u0663;250.5", "malformed label token '\u0663;250.5'"),
            ("3:3.25", "\u0663:3.25", "malformed feature index in token '\u0663:3.25'"),
            ("3:3.25", "3:\u0663.25", "unparseable value in token '3:\u0663.25'"),
            (
                "3;250.5",
                "3;\u0662\u0665\u0660.5",
                "unparseable concentration in token '3;\u0662\u0665\u0660.5'",
            ),
        ],
    )
    def test_trap_keeps_per_line_error(self, tmp_path, old, new, message):
        lines = [canonical_line(1), canonical_line(3, "250.5"), canonical_line(2, "12.0")]
        assert lines[1].count(old) == 1
        lines[1] = lines[1].replace(old, new)
        path = tmp_path / "batch1.dat"
        path.write_text("\n".join(lines) + "\n")
        expected = f"batch1.dat: 1 malformed line(s): line 2: {message}"
        assert assert_loads_like_reference(path) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "{a}\r\n{b}\r\n{c}\r\n",
            "{a} \n{b}  \n{c}\t\n",
            "{a}\n{b}\n{c}",
            "\n{a}\n\n  \n{b}\r\n\t\n{c}\n\n",
        ],
        ids=["crlf", "trailing-space", "no-final-newline", "blank-lines"],
    )
    def test_dense_variant_takes_one_pass(self, tmp_path, monkeypatch, text):
        # label-only heads mixed with label;concentration heads
        a, b, c = canonical_line(1), canonical_line(3, "250.5"), canonical_line(6, "1e3")
        path = tmp_path / "batch1.dat"
        path.write_bytes(text.format(a=a, b=b, c=c).encode())
        forbid_per_line_parser(monkeypatch)  # the reference keeps its own binding
        assert assert_loads_like_reference(path) is None

    def test_canonical_dense_file_never_reaches_per_line_parser(self, tmp_path, monkeypatch):
        batch = write_random_batch(tmp_path / "batch1.dat", seed=3, n=6)
        forbid_per_line_parser(monkeypatch)
        back, stats = load_batch_file(tmp_path / "batch1.dat", 1)
        assert back.features.tobytes() == batch.features.tobytes()
        assert back.labels.tobytes() == batch.labels.tobytes()
        assert back.concentrations.tobytes() == batch.concentrations.tobytes()
        assert stats == ParseStats(lines=6)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(text=batch_file_text())
    def test_matches_per_line_parser(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("gen") / "batch1.dat"
        path.write_bytes(text.encode())
        assert_loads_like_reference(path)


class TestCache:
    """The parsed-column cache beside the data (``.driftbench-cache/``)."""

    def test_hit_matches_miss_bit_for_bit(self, tmp_path, monkeypatch):
        for bid in (1, 2):
            write_random_batch(tmp_path / f"batch{bid}.dat", seed=bid, n=3 + bid)
        path = tmp_path / "batch1.dat"
        cold, cold_stats = load_batch_file(path, 1)
        cold_sum = dataset_checksum(load_dataset(tmp_path))
        assert cache_entry(path).is_file()
        calls = spy_dense_parse(monkeypatch)
        forbid_per_line_parser(monkeypatch)
        warm, warm_stats = load_batch_file(path, 1)
        assert calls == []
        assert_same_columns(warm, cold)
        assert warm_stats == cold_stats == ParseStats(lines=4)
        assert dataset_checksum(load_dataset(tmp_path)) == cold_sum
        assert calls == []

    def test_same_size_edit_with_restored_mtime_is_reparsed(self, tmp_path, monkeypatch):
        path = tmp_path / "batch1.dat"
        path.write_text(canonical_line(1) + "\n" + canonical_line(2, "250.5") + "\n")
        load_batch_file(path, 1)
        before = os.stat(path)
        path.write_text(path.read_text().replace("7:7.25", "7:8.25", 1))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(path).st_size == before.st_size
        assert os.stat(path).st_mtime_ns == before.st_mtime_ns
        calls = spy_dense_parse(monkeypatch)
        batch, _ = load_batch_file(path, 1)
        assert len(calls) == 1
        assert batch.features[0, 6] == 8.25

    @pytest.mark.parametrize("damage", ["truncated", "wrong-dtype", "pickled-object", "0-d"])
    def test_damaged_entry_is_ignored_and_rewritten(self, tmp_path, monkeypatch, damage):
        path = tmp_path / "batch1.dat"
        want = write_random_batch(path, seed=5)
        load_batch_file(path, 1)
        entry = cache_entry(path)
        good = entry.read_bytes()
        if damage == "truncated":
            entry.write_bytes(good[: len(good) - 100])
        else:
            key = data_io._file_key(path)
            with open(entry, "wb") as fh:
                np.save(fh, np.frombuffer(key, dtype=np.uint8))
                if damage == "wrong-dtype":
                    np.save(fh, want.labels.astype(np.int32))
                elif damage == "0-d":
                    np.save(fh, want.labels[0])
                else:
                    np.save(fh, want.labels.astype(object), allow_pickle=True)
                np.save(fh, want.concentrations)
                np.save(fh, want.features)
        calls = spy_dense_parse(monkeypatch)
        batch, stats = load_batch_file(path, 1)
        assert len(calls) == 1
        assert_same_columns(batch, want)
        assert stats == ParseStats(lines=5)
        assert entry.read_bytes() == good
        load_batch_file(path, 1)
        assert len(calls) == 1

    def test_file_rewritten_during_load_is_keyed_by_the_bytes_parsed(self, tmp_path, monkeypatch):
        path = tmp_path / "batch1.dat"
        write_random_batch(path, seed=11)
        load_batch_file(path, 1)
        hashed = write_random_batch(path, seed=12)
        file_key = data_io._file_key

        def key_then_rewrite(p):
            key = file_key(p)
            write_random_batch(p, seed=13, n=4)
            return key

        monkeypatch.setattr(data_io, "_file_key", key_then_rewrite)
        parsed, _ = load_batch_file(path, 1)
        monkeypatch.undo()
        calls = spy_dense_parse(monkeypatch)
        batch, stats = load_batch_file(path, 1)
        assert calls == []
        assert_same_columns(batch, parsed)
        assert stats == ParseStats(lines=4)
        write_random_batch(path, seed=12)
        batch, _ = load_batch_file(path, 1)
        assert len(calls) == 1
        assert_same_columns(batch, hashed)

    def test_entry_of_another_cache_version_is_ignored(self, tmp_path, monkeypatch):
        path = tmp_path / "batch1.dat"
        write_random_batch(path, seed=6)
        monkeypatch.setattr(data_io, "_CACHE_VERSION", data_io._CACHE_VERSION + 1)
        load_batch_file(path, 1)
        monkeypatch.undo()
        calls = spy_dense_parse(monkeypatch)
        load_batch_file(path, 1)
        assert len(calls) == 1

    @pytest.mark.parametrize("step", ["open", "replace"])
    def test_failed_entry_write_loads_and_leaves_nothing(self, tmp_path, monkeypatch, step):
        # A read-only directory fails at open; a full disk may fail later,
        # once the temp file exists.  Faked, so the test runs as any user.
        def fail(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        path = tmp_path / "batch1.dat"
        want = write_random_batch(path, seed=7)
        monkeypatch.setattr(data_io.os, step, fail)
        batch, stats = load_batch_file(path, 1)
        monkeypatch.undo()
        assert_same_columns(batch, want)
        assert stats == ParseStats(lines=5)
        assert list((tmp_path / data_io.CACHE_DIR).iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [data_io.CACHE_DIR, "batch1.dat"]

    def test_unusable_cache_directory_loads_and_is_left_alone(self, tmp_path):
        path = tmp_path / "batch1.dat"
        want = write_random_batch(path, seed=8)
        (tmp_path / data_io.CACHE_DIR).write_text("not a directory\n")
        batch, stats = load_batch_file(path, 1)
        assert_same_columns(batch, want)
        assert stats == ParseStats(lines=5)
        assert (tmp_path / data_io.CACHE_DIR).read_text() == "not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [data_io.CACHE_DIR, "batch1.dat"]

    @pytest.mark.parametrize(
        "lines",
        [
            [canonical_line(1), "2;12.5 1:1.0 3:3.0"],
            [canonical_line(1), "9 1:1.0", "1\t1:2.0"],
        ],
        ids=["sparse", "malformed"],
    )
    def test_fallback_files_are_never_cached(self, tmp_path, caplog, lines):
        path = tmp_path / "batch1.dat"
        path.write_text("\n".join(lines) + "\n")
        first = assert_loads_like_reference(path)
        assert assert_loads_like_reference(path) == first
        assert not (tmp_path / data_io.CACHE_DIR).exists()
        if first is None:
            warned = [r for r in caplog.records if "zero-filled" in r.getMessage()]
            assert len(warned) == 2

    def test_rewritten_file_keeps_one_entry(self, tmp_path, monkeypatch):
        path = tmp_path / "batch1.dat"
        write_random_batch(path, seed=9)
        load_batch_file(path, 1)
        want = write_random_batch(path, seed=10, n=7)
        load_batch_file(path, 1)
        assert [p.name for p in (tmp_path / data_io.CACHE_DIR).iterdir()] == ["batch1.dat.npy"]
        calls = spy_dense_parse(monkeypatch)
        batch, _ = load_batch_file(path, 1)
        assert calls == []
        assert_same_columns(batch, want)


class TestTypes:
    def test_batch_rejects_nonfinite_features(self):
        with pytest.raises(ValueError, match="finite"):
            Batch(1, np.array([[1.0, np.nan]]), [1])

    def test_batch_rejects_nonpositive_concentration(self):
        with pytest.raises(ValueError, match="concentration"):
            Batch(1, np.zeros((2, 4)), [1, 1], [np.nan, -3.0])
        with pytest.raises(ValueError, match="concentration"):
            Batch(1, np.zeros((1, 4)), [1], [np.inf])

    def test_batch_rejects_bad_labels_and_shapes(self):
        with pytest.raises(ValueError, match="labels must be >= 1"):
            Batch(1, np.zeros((2, 4)), [1, 0])
        with pytest.raises(ValueError, match="labels shape"):
            Batch(1, np.zeros((2, 4)), [1])
        with pytest.raises(ValueError, match="concentrations shape"):
            Batch(1, np.zeros((2, 4)), [1, 1], [5.0])
        with pytest.raises(ValueError, match="2-D"):
            Batch(1, np.zeros(4), [1])

    @pytest.mark.parametrize(
        "labels",
        [
            [1.7, 2.2],
            [1.0, 2.5],
            ["1", "2"],
            [np.nan, 1.0],
            [np.inf, 1.0],
            [1e30, 1.0],
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_batch_rejects_labels_that_are_not_integers(self, labels):
        with pytest.raises(ValueError, match="labels must be integers"):
            Batch(1, np.zeros((2, 2)), labels)

    def test_batch_accepts_integral_float_labels(self):
        batch = Batch(1, np.zeros((2, 2)), [1.0, 2.0])
        assert batch.labels.dtype == np.dtype(int)
        assert batch.labels.tolist() == [1, 2]

    def test_batch_columns_are_read_only_and_not_restacked(self):
        source = np.zeros((2, 3))
        labels = np.array([1, 2])
        batch = Batch(1, source, labels, [np.nan, 4.0])
        assert np.shares_memory(batch.features, source)
        assert np.shares_memory(batch.labels, labels)
        for column in (batch.features, batch.labels, batch.concentrations):
            with pytest.raises(ValueError):
                column[0] = 1
        source[0, 0] = 1.0  # the caller's own array stays writable

    def test_dataset_requires_contiguous_ids(self):
        with pytest.raises(ValueError, match="contiguous"):
            Dataset({2: Batch(2, np.zeros((1, 4)), [1])})


class TestSynthetic:
    def test_deterministic(self):
        cfg = SyntheticConfig(n_classes=3, dim=6, per_class=5, n_batches=3, drift_step=0.7, seed=5)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        for bid in a.batch_ids:
            assert np.array_equal(a.batch(bid).features, b.batch(bid).features)
            assert np.array_equal(a.batch(bid).labels, b.batch(bid).labels)

    def test_zero_drift_batches_are_distinct_draws(self):
        cfg = SyntheticConfig(n_classes=2, dim=4, per_class=6, n_batches=3, drift_step=0.0, seed=5)
        ds = generate_synthetic(cfg)
        assert not np.array_equal(ds.batch(1).features, ds.batch(2).features)

    def test_single_batch(self):
        ds = generate_synthetic(SyntheticConfig(n_classes=2, dim=4, per_class=3, n_batches=1, seed=1))
        assert ds.batch_ids == [1]
        assert ds.n_samples == 6

    def test_drift_is_exact_translation(self):
        base = dict(n_classes=3, dim=6, per_class=5, n_batches=3, seed=8)
        still = generate_synthetic(SyntheticConfig(drift_step=0.0, **base))
        moved = generate_synthetic(SyntheticConfig(drift_step=2.0, **base))
        for bid in still.batch_ids:
            delta = moved.batch(bid).features - still.batch(bid).features
            # one shared translation per batch, growing linearly with batch index
            assert np.allclose(delta, delta[0], atol=1e-12)
            assert np.isclose(np.linalg.norm(delta[0]), 2.0 * (bid - 1), atol=1e-9)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n_classes=1)
        with pytest.raises(ValueError):
            SyntheticConfig(per_class=1)
        with pytest.raises(ValueError):
            SyntheticConfig(n_batches=0)


class TestChecksum:
    """The digest is report provenance; these values were taken from the per-row model."""

    def test_synthetic_digest_pinned(self):
        ds = generate_synthetic(SyntheticConfig(n_classes=3, dim=5, per_class=4, n_batches=2, seed=9))
        assert dataset_checksum(ds) == (
            "bfacff1e2341361cbb4a2457b2de845fa3727f762440bc6351e909fea91ccfb9"
        )

    def test_parsed_digest_pinned(self, tmp_path):
        (tmp_path / "batch1.dat").write_text("1;250.5 1:1.5 2:-2.25 128:3.0\n2 1:0.125 64:7.0\n")
        (tmp_path / "batch2.dat").write_text("6;12.0 1:1e3 2:-4.5\n")
        assert dataset_checksum(load_dataset(tmp_path)) == (
            "c3b3afec78939f4c24ae1cd03814b0231f1429528edb2ee97ac5a395b3bc6536"
        )

    def test_dense_digest_pinned(self, tmp_path):
        rng = np.random.default_rng(21)
        for bid, n in ((1, 4), (2, 3)):
            conc = rng.uniform(5, 1000, n)
            conc[::2] = math.nan  # both head forms
            batch = Batch(bid, rng.normal(size=(n, 128)) * 1e3, rng.integers(1, 7, n), conc)
            write_batch_file(tmp_path / f"batch{bid}.dat", batch)
        assert dataset_checksum(load_dataset(tmp_path)) == (
            "4a0525c0f12c28bd65b369bb44dc9307fcc881b67e5c351bf692fde8f88d955a"
        )


class TestAtomicWrite:
    @pytest.mark.parametrize("stale", ["file", "dir"])
    def test_stale_tmp_name_neither_fatal_nor_touched(self, tmp_path, stale):
        stale_path = tmp_path / "report.csv.tmp"
        if stale == "file":
            stale_path.write_text("left by another run\n")
        else:
            stale_path.mkdir()
            (stale_path / "inner").write_text("x")
        atomic_write_text(tmp_path / "report.csv", "a,b\n")
        assert (tmp_path / "report.csv").read_text() == "a,b\n"
        if stale == "file":
            assert stale_path.read_text() == "left by another run\n"
        else:
            assert (stale_path / "inner").read_text() == "x"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.csv.tmp"]

    def test_failed_write_keeps_old_file_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "report.csv"
        target.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(target, "new\udc80\n")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_written_file_mode_follows_umask(self, tmp_path):
        umask = os.umask(0o022)
        try:
            atomic_write_text(tmp_path / "report.csv", "a\n")
        finally:
            os.umask(umask)
        assert (tmp_path / "report.csv").stat().st_mode & 0o777 == 0o644

    def test_mode_follows_umask_without_changing_it(self, tmp_path, monkeypatch):
        # Setting the umask to read it would change it for every thread at once.
        def fail(*args):
            raise AssertionError("os.umask called")

        umask = os.umask(0o027)
        try:
            monkeypatch.setattr(os, "umask", fail)
            atomic_write_text(tmp_path / "report.csv", "a\n")
        finally:
            monkeypatch.undo()
            os.umask(umask)
        assert (tmp_path / "report.csv").stat().st_mode & 0o777 == 0o666 & ~0o027
