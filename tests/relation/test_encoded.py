"""Dictionary-encoded columnar storage: round-trips, spill lifecycle,
fingerprint streaming equality, and the bounded-memory property of
``mmap`` mode."""

import gc
import os
import pickle
import tracemalloc
from array import array

import pytest

from repro.guard import ESTIMATED_BYTES_PER_CLUSTERED_ROW, Budget
from repro.relation import Relation, read_csv, read_csv_text
from repro.relation import encoded as storage
from repro.relation.encoded import (
    CODE_BYTES,
    STORAGE_MODES,
    ColumnEncoder,
    StorageUnavailable,
    encode_column,
    encode_relation,
    resolve_storage,
    spill_directory,
    use_storage,
)

ENCODING_MODES = STORAGE_MODES


@pytest.fixture
def spill_dir(tmp_path, monkeypatch):
    """Point mmap spills at a private directory so the tests can watch
    spill files appear and disappear."""
    directory = tmp_path / "spill"
    monkeypatch.setenv(storage.SPILL_DIR_ENV, str(directory))
    return directory


def spill_files(directory):
    if not directory.exists():
        return []
    return sorted(p for p in directory.iterdir() if p.suffix == ".i32")


class TestEncodeRoundTrip:
    VALUES = ("b", "a", None, "b", "c", "a", None, "b")

    @pytest.mark.parametrize("mode", ENCODING_MODES)
    def test_decoded_view_equals_source(self, mode, spill_dir):
        column = encode_column(self.VALUES, storage=mode)
        assert len(column) == len(self.VALUES)
        assert tuple(column) == self.VALUES
        assert column == self.VALUES
        assert column[2] is None
        assert column[1:4] == self.VALUES[1:4]
        assert hash(column) == hash(self.VALUES)

    @pytest.mark.parametrize("mode", ENCODING_MODES)
    def test_dictionary_is_first_seen_order(self, mode, spill_dir):
        column = encode_column(self.VALUES, storage=mode)
        assert column.dictionary == ["b", "a", None, "c"]
        assert list(column.codes) == [0, 1, 2, 0, 3, 1, 2, 0]
        assert column.n_codes == 4

    @pytest.mark.parametrize("mode", ENCODING_MODES)
    def test_code_buffer_is_int32_little_endian_agnostic(self, mode, spill_dir):
        column = encode_column(self.VALUES, storage=mode)
        buffer = column.code_buffer()
        assert len(bytes(buffer)) == len(self.VALUES) * CODE_BYTES
        assert bytes(buffer) == array("i", [0, 1, 2, 0, 3, 1, 2, 0]).tobytes()

    def test_encoded_and_mmap_agree_bit_for_bit(self, spill_dir):
        in_memory = encode_column(self.VALUES, storage="encoded")
        spilled = encode_column(self.VALUES, storage="mmap")
        assert in_memory.dictionary == spilled.dictionary
        assert bytes(in_memory.code_buffer()) == bytes(spilled.code_buffer())
        assert in_memory == spilled

    def test_empty_column_degrades_to_in_memory(self, spill_dir):
        column = encode_column((), storage="mmap")
        assert column.storage == "encoded"  # empty mmap is invalid
        assert len(column) == 0
        assert spill_files(spill_dir) == []


class TestSpillLifecycle:
    def test_spill_file_lives_and_dies_with_the_column(self, spill_dir):
        column = encode_column(("x", "y", "x"), storage="mmap")
        files = spill_files(spill_dir)
        assert len(files) == 1
        assert column.spill_path == str(files[0])
        assert os.path.getsize(files[0]) == 3 * CODE_BYTES
        del column
        gc.collect()
        assert spill_files(spill_dir) == []

    def test_abort_unlinks_a_half_built_spill(self, spill_dir):
        class Boom(RuntimeError):
            pass

        def batches():
            # Enough codes to force at least one chunk flush, then explode.
            yield array("i", range(storage.SPILL_CHUNK_CODES + 5))
            raise Boom

        encoder = ColumnEncoder(storage="mmap")
        with pytest.raises(Boom):
            for codes in batches():
                encoder.extend_codes(codes)
        assert len(spill_files(spill_dir)) == 1  # half built
        encoder.abort()
        assert spill_files(spill_dir) == []

    def test_pickle_rebuilds_as_in_memory_column(self, spill_dir):
        column = encode_column(("x", "y", "x", None), storage="mmap")
        clone = pickle.loads(pickle.dumps(column))
        assert clone.storage == "encoded"
        assert clone.spill_path is None
        assert clone == column
        assert clone.dictionary == column.dictionary

    def test_spill_directory_precedence(self, tmp_path, monkeypatch):
        override = tmp_path / "explicit"
        via_env = tmp_path / "env"
        monkeypatch.setenv(storage.SPILL_DIR_ENV, str(via_env))
        assert spill_directory(str(override)) == str(override)
        assert override.is_dir()  # created on resolution
        assert spill_directory() == str(via_env)
        monkeypatch.delenv(storage.SPILL_DIR_ENV)
        assert os.path.isdir(spill_directory())  # system temp fallback


class TestModeSelection:
    def test_resolve_rejects_unknown_modes(self):
        with pytest.raises(StorageUnavailable):
            resolve_storage("parquet")
        assert resolve_storage(None) == "encoded"
        assert resolve_storage("  MMAP ") == "mmap"

    def test_use_storage_restores_previous_mode(self):
        before = storage.ACTIVE
        with use_storage("mmap"):
            assert storage.ACTIVE == "mmap"
            with use_storage(None):  # no-op context
                assert storage.ACTIVE == "mmap"
        assert storage.ACTIVE == before

    def test_set_storage_rejects_unknown_and_keeps_armed_mode(self):
        before = storage.ACTIVE
        with pytest.raises(StorageUnavailable):
            storage.set_storage("parquet")
        assert storage.ACTIVE == before

    def test_unusable_environment_value_warns_and_degrades(self, monkeypatch):
        monkeypatch.setenv(storage.ENV_VAR, "parquet")
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert storage._from_environment() == "encoded"

    def test_budget_accounting_follows_storage(self):
        # Both modes feed the kernel the same dense codes, so one
        # per-row estimate holds whichever is armed.
        assert ESTIMATED_BYTES_PER_CLUSTERED_ROW == 8
        for mode in STORAGE_MODES:
            with use_storage(mode):
                budget = Budget(max_cluster_bytes=1)
            assert budget.bytes_per_clustered_row == 8

    def test_objects_is_no_longer_a_mode(self, monkeypatch, capsys):
        from repro.cli import build_parser

        with pytest.raises(StorageUnavailable):
            resolve_storage("objects")
        monkeypatch.setenv(storage.ENV_VAR, "objects")
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert storage._from_environment() == "encoded"
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["data.csv", "--storage", "objects"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


CSV = "a,b\n" + "".join(f"{i % 4},{i % 3}\n" for i in range(50))


class TestFingerprintStreaming:
    """Satellite regression: the fingerprint computed *during* the
    streaming read must equal the post-hoc path byte for byte, in every
    storage mode."""

    @pytest.mark.parametrize("mode", STORAGE_MODES)
    def test_streamed_equals_post_hoc(self, mode, spill_dir):
        with use_storage(mode):
            relation = read_csv_text(CSV)
        assert relation._fingerprint is not None  # streamed, not lazy
        streamed = relation.fingerprint()
        # Post-hoc: a fresh Relation over the same boxed values, hashed
        # from scratch by Relation.fingerprint itself.
        rebuilt = Relation(
            relation.column_names,
            [tuple(relation.column(i)) for i in range(relation.n_columns)],
            name=relation.name,
        )
        assert rebuilt._fingerprint is None
        assert rebuilt.fingerprint() == streamed

    def test_all_modes_agree(self, spill_dir):
        prints = set()
        for mode in STORAGE_MODES:
            with use_storage(mode):
                prints.add(read_csv_text(CSV).fingerprint())
        assert len(prints) == 1

    def test_distinct_relations_get_distinct_fingerprints(self):
        base = read_csv_text(CSV).fingerprint()
        assert read_csv_text(CSV.replace("3", "5")).fingerprint() != base
        # Same cells, different column names: still a different relation.
        assert read_csv_text(CSV.replace("a,b", "a,c")).fingerprint() != base


class TestEncodeRelation:
    def test_objects_mode_is_a_noop(self, spill_dir):
        """``encode_relation`` attaches nothing: the relation is returned
        as it was, with the encodings it was built with."""
        for mode in STORAGE_MODES:
            with use_storage(mode):
                relation = read_csv_text(CSV)
            before = [relation.encoding(i) for i in range(relation.n_columns)]
            assert encode_relation(relation) is relation
            assert encode_relation(relation, storage="encoded") is relation
            after = [relation.encoding(i) for i in range(relation.n_columns)]
            assert all(a is b for a, b in zip(before, after))

    def test_sidecar_encoding_for_object_relations(self, spill_dir):
        """A relation built from Python object columns is encoded at
        construction, in the storage mode armed at the time."""
        for mode in STORAGE_MODES:
            with use_storage(mode):
                built = Relation(["a", "b"], [("x", "y", "x"), (1, None, 1)])
            for index in range(built.n_columns):
                encoding = built.encoding(index)
                assert encoding is not None
                assert encoding.storage == mode
                assert tuple(encoding) == built.column(index)

    def test_projection_carries_encodings(self):
        with use_storage("encoded"):
            relation = read_csv_text(CSV)
        projected = relation.project([1, 0])
        assert projected.encoding(0) is not None
        assert tuple(projected.encoding(0)) == relation.column(1)

    @pytest.mark.parametrize("mode", STORAGE_MODES)
    def test_derived_relations_do_not_share_appended_columns(
        self, mode, spill_dir
    ):
        """Regression: a projection used to alias its source's columns,
        so appending to the source grew the projection's columns past its
        row count (and put out-of-range row ids in its PLIs)."""
        from repro.pli import RelationIndex, pli_from_column

        with use_storage(mode):
            source = read_csv_text("a,b\n1,x\n2,y\n3,x\n1,x\n")
            derived = [
                source.project(["a"]),
                source.head(3),
                source.deduplicated(),
            ]
            source.append_rows([("4", "z"), ("1", "q")])
        assert [relation.n_rows for relation in derived] == [4, 3, 3]
        for relation in derived:
            for index in range(relation.n_columns):
                column = relation.column(index)
                assert len(column) == relation.n_rows
                assert len(column.dictionary) == len(set(column))
                assert RelationIndex(relation).column_pli(index) == (
                    pli_from_column(tuple(column))
                )
        assert derived[0].column(0) == ("1", "2", "3", "1")
        assert source.column(0) == ("1", "2", "3", "1", "4", "1")

    @pytest.mark.parametrize("mode", STORAGE_MODES)
    def test_head_and_dedup_keep_first_seen_codes(self, mode, spill_dir):
        with use_storage(mode):
            source = read_csv_text("a,b\nx,1\ny,2\nx,1\nz,2\n")
            head = source.head(2)
            dedup = source.deduplicated()
        assert head.encoding(0).dictionary == ["x", "y"]
        assert list(head.encoding(0).codes) == [0, 1]
        assert dedup.column(0) == ("x", "y", "z")
        assert list(dedup.encoding(1).codes) == [0, 1, 1]
        assert dedup.encoding(0).storage == source.encoding(0).storage


class TestBoundedMemory:
    """Satellite regression gating the mmap path: peak traced memory of a
    streaming read is bounded by dictionaries + chunk buffer, not rows."""

    ROWS = 120_000

    def _csv(self, tmp_path):
        path = tmp_path / "wide.csv"
        with open(path, "w") as handle:
            handle.write("a,b\n")
            for i in range(self.ROWS):
                handle.write(f"{i % 16},{i % 7}\n")
        return path

    def test_mmap_read_peak_is_below_the_encoded_payload(
        self, tmp_path, spill_dir
    ):
        path = self._csv(tmp_path)
        payload = self.ROWS * 2 * CODE_BYTES  # in-memory encoded code bytes

        with use_storage("mmap"):
            gc.collect()
            tracemalloc.start()
            relation = read_csv(path)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()

        assert relation.n_rows == self.ROWS
        assert relation.encoding(0).storage == "mmap"
        # The full code payload never sits in the heap: resident cost is
        # the two 16/7-entry dictionaries plus one bounded chunk buffer.
        assert peak < payload, (
            f"mmap read peaked at {peak} B, >= the {payload} B payload"
        )

    def test_encoded_read_materializes_the_payload(self, tmp_path):
        # Control: the in-memory mode must hold the code arrays, so its
        # peak sits at or above the payload — proving the mmap assertion
        # above measures the right thing.
        path = self._csv(tmp_path)
        payload = self.ROWS * 2 * CODE_BYTES
        with use_storage("encoded"):
            gc.collect()
            tracemalloc.start()
            relation = read_csv(path)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert relation.n_rows == self.ROWS
        assert peak >= payload
