"""``repro ingest``: validate / import / list / gc / replay from the shell."""

import numpy as np
import pytest

from repro.cli import main
from repro.cpu.trace import MemoryTrace
from repro.ingest import IngestStore, write_binary_trace, write_text_trace


def make_trace(seed=8, n=250) -> MemoryTrace:
    rng = np.random.default_rng(seed)
    return MemoryTrace(
        "cli-test", "ref",
        rng.integers(0, 1 << 30, size=n, dtype=np.uint64) * 8,
        rng.random(n) < 0.3,
        rng.integers(0, 30, size=n, dtype=np.int64),
    )


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "store")


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "input.trace"
    write_text_trace(make_trace(), path)
    return str(path)


class TestValidate:
    def test_valid_file(self, capsys, store_dir, trace_file):
        assert main(["ingest", "--store", store_dir,
                     "--validate", trace_file]) == 0
        out = capsys.readouterr().out
        assert f"{trace_file}: ok — cli-test/ref, 250 references" in out

    def test_invalid_file_exits_1(self, capsys, store_dir, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"#repro-trace v1\nR fish 3\n")
        assert main(["ingest", "--store", store_dir,
                     "--validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "invalid" in out
        assert "must be an integer" in out
        assert ":2:" in out  # the typed error carries the line number

    def test_mixed_valid_and_invalid(self, capsys, store_dir, trace_file, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"nonsense")
        assert main(["ingest", "--store", store_dir,
                     "--validate", trace_file,
                     "--validate", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "ok" in out and "invalid" in out


class TestImportListGc:
    def test_import_prints_digest(self, capsys, store_dir, trace_file):
        assert main(["ingest", "--store", store_dir,
                     "--import", trace_file]) == 0
        out = capsys.readouterr().out
        digest = make_trace().content_digest()
        assert f"imported {trace_file} -> ingest:{digest}" in out

    def test_list_shows_entries(self, capsys, store_dir, trace_file):
        main(["ingest", "--store", store_dir, "--import", trace_file])
        capsys.readouterr()
        assert main(["ingest", "--store", store_dir, "--list"]) == 0
        out = capsys.readouterr().out
        assert "1 traces" in out
        assert "cli-test/ref" in out
        assert "250 refs" in out

    def test_gc_reports_sweep(self, capsys, store_dir, trace_file):
        main(["ingest", "--store", store_dir, "--import", trace_file])
        capsys.readouterr()
        assert main(["ingest", "--store", store_dir, "--gc"]) == 0
        assert "gc: kept 1, quarantined 0" in capsys.readouterr().out

    def test_gc_exits_1_when_it_quarantines(self, capsys, store_dir, trace_file):
        main(["ingest", "--store", store_dir, "--import", trace_file])
        capsys.readouterr()
        entry = next(IngestStore(store_dir).root.glob("*.rtb"))
        entry.write_bytes(entry.read_bytes()[:50])
        assert main(["ingest", "--store", store_dir, "--gc"]) == 1
        assert "quarantined 1" in capsys.readouterr().out


class TestReplay:
    def _import(self, store_dir, tmp_path) -> str:
        path = tmp_path / "replay.rtb"
        trace = make_trace()
        write_binary_trace(trace, path)
        assert main(["ingest", "--store", store_dir,
                     "--import", str(path)]) == 0
        return trace.content_digest()

    def test_replay_by_prefix(self, capsys, store_dir, tmp_path):
        digest = self._import(store_dir, tmp_path)
        capsys.readouterr()
        assert main(["ingest", "--store", store_dir,
                     "--replay", digest[:10],
                     "--scheme", "static:100"]) == 0
        out = capsys.readouterr().out
        assert f"ingest:{digest[:16]} under " in out
        assert "cycles" in out and "dummy accesses" in out

    def test_replay_verify_is_identical(self, capsys, store_dir, tmp_path):
        digest = self._import(store_dir, tmp_path)
        capsys.readouterr()
        assert main(["ingest", "--store", store_dir,
                     "--replay", digest,
                     "--scheme", "base_oram",
                     "--chunk-refs", "37",
                     "--verify"]) == 0
        assert "streaming vs in-memory: identical" in capsys.readouterr().out

    def test_replay_verify_with_warmup(self, capsys, store_dir, tmp_path):
        digest = self._import(store_dir, tmp_path)
        capsys.readouterr()
        assert main(["ingest", "--store", store_dir,
                     "--replay", digest,
                     "--warmup", "500",
                     "--verify"]) == 0
        assert "identical" in capsys.readouterr().out

    @pytest.mark.parametrize("field", [
        "n_instructions", "real_accesses", "dummy_accesses", "epochs",
    ])
    def test_replay_verify_names_the_first_differing_field(
        self, capsys, monkeypatch, store_dir, tmp_path, field
    ):
        # Fields beyond cycles/power/waste are part of the contract too:
        # a streamed replay that differs only there must fail --verify.
        import repro.sim.streaming as sim_streaming

        replay = sim_streaming.run_timing_streaming

        def skewed(*args, **kwargs):
            result = replay(*args, **kwargs)
            if field == "n_instructions":
                result.n_instructions += 1
            elif field == "epochs":
                result.epochs = [*result.epochs, result.epochs[-1]]
            else:
                setattr(result.controller, field,
                        getattr(result.controller, field) + 1)
            return result

        digest = self._import(store_dir, tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(sim_streaming, "run_timing_streaming", skewed)
        assert main(["ingest", "--store", store_dir,
                     "--replay", digest,
                     "--scheme", "dynamic:4x4",
                     "--verify"]) == 1
        out = capsys.readouterr().out
        assert f"streaming vs in-memory: MISMATCH in {field}" in out


class TestArgHandling:
    def test_no_action_exits_2(self, capsys, store_dir):
        assert main(["ingest", "--store", store_dir]) == 2
        assert "nothing to do" in capsys.readouterr().err
