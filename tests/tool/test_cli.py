"""Tests for the regionwiz command-line interface."""

import json
from pathlib import Path

import pytest

from repro.tool.cli import main
from repro.workloads import figure


def write_source(tmp_path, program):
    path = tmp_path / f"{program.name}.c"
    path.write_text(program.full_source)
    return str(path)


class TestCli:
    def test_consistent_program_exit_zero(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig1"))
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "region lifetime is consistent" in out

    def test_inconsistent_program_exit_one(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig2c"))
        assert main([path]) == 1
        out = capsys.readouterr().out
        assert "HIGH" in out

    def test_low_ranked_hidden_by_default(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig5"))
        assert main([path]) == 0  # only a low-ranked warning
        assert main([path, "--all"]) == 1
        out = capsys.readouterr().out
        assert "low" in out

    def test_rc_interface_flag(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("rcc_string"))
        assert main([path, "--interface", "rc"]) == 1

    def test_verbose_shows_store_locations(self, tmp_path, capsys):
        path = write_source(tmp_path, figure("fig2c"))
        main([path, "-v"])
        out = capsys.readouterr().out
        assert "pointer stored at" in out

    def test_missing_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.c")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "bad.c"
        path.write_text("int main( {")
        assert main([str(path)]) == 2
        assert "bad.c" in capsys.readouterr().err

    def test_ablation_flags(self, tmp_path):
        path = write_source(tmp_path, figure("fig9"))
        assert main([
            path,
            "--context-insensitive",
            "--no-heap-cloning",
            "--field-insensitive",
            "--sound-offsets",
            "--max-contexts", "64",
        ]) == 1

    def test_json_output(self, tmp_path, capsys):
        import json

        path = write_source(tmp_path, figure("fig2c"))
        assert main([path, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["consistent"] is False
        assert payload["statistics"]["high_ranked"] == 1

    def test_refine_flag_suppresses_fig5(self, tmp_path):
        path = write_source(tmp_path, figure("fig5"))
        assert main([path, "--all"]) == 1
        assert main([path, "--all", "--refine"]) == 0

    def test_open_mode(self, tmp_path, capsys):
        from repro.interfaces import APR_HEADER

        path = tmp_path / "lib.c"
        path.write_text(APR_HEADER + """
        struct node { void *other; };
        void link_objects(struct node *a, struct node *b) { a->other = b; }
        """)
        assert main([str(path), "--open"]) == 1
        out = capsys.readouterr().out
        assert "HIGH" in out

    def test_multiple_files_concatenate(self, tmp_path):
        from repro.interfaces import APR_HEADER

        header = tmp_path / "apr.h.c"
        header.write_text(APR_HEADER)
        body = tmp_path / "main.c"
        body.write_text(figure("fig1").source)
        assert main([str(header), str(body)]) == 0


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class TestBatchCli:
    def write_figures(self, tmp_path, names):
        return [
            write_source(tmp_path, figure(name)) for name in names
        ]

    def batch_json(self, capsys, argv):
        code = main(argv)
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == code
        for entry in payload["results"]:
            entry.pop("metrics", None)
        payload.pop("fleet_metrics", None)
        # Every CLI invocation mints a fresh run id; serial/parallel
        # equivalence is defined modulo that identifier.
        payload.pop("run_id", None)
        return code, payload

    def test_rc_corpus_detected_in_batch_mode(self, tmp_path, capsys):
        # Regression: --batch used to hardcode the APR interface, so an
        # .rc unit analyzed "clean" with no region model at all while
        # the single-run CLI (auto-detecting rc) reported the warning.
        source = (EXAMPLES / "fig1_connection_broken.rc").read_text()
        path = tmp_path / "fig1_connection_broken.rc"
        path.write_text(source)
        single = main([str(path)])
        capsys.readouterr()
        batch = main(["--batch", str(path)])
        capsys.readouterr()
        assert single == 1
        assert batch == 1

    def test_rc_clean_example_through_both_paths(self, tmp_path, capsys):
        source = (EXAMPLES / "fig1_connection.rc").read_text()
        path = tmp_path / "fig1_connection.rc"
        path.write_text(source)
        assert main([str(path)]) == 0
        capsys.readouterr()
        assert main(["--batch", str(path)]) == 0

    def test_jobs_flag_matches_serial_output(self, tmp_path, capsys):
        paths = self.write_figures(tmp_path, ["fig1", "fig2c", "fig2a"])
        code_serial, serial = self.batch_json(
            capsys, ["--batch", "--keep-going", "--json", *paths]
        )
        code_parallel, parallel = self.batch_json(
            capsys, ["--batch", "--keep-going", "--json", "--jobs", "2", *paths]
        )
        assert code_serial == code_parallel == 1
        assert serial == parallel

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        paths = self.write_figures(tmp_path, ["fig1"])
        assert main(["--batch", "--jobs", "0", *paths]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_chunk_flag_matches_serial_output(self, tmp_path, capsys):
        paths = self.write_figures(tmp_path, ["fig1", "fig2c", "fig2a"])
        code_serial, serial = self.batch_json(
            capsys, ["--batch", "--keep-going", "--json", *paths]
        )
        code_chunked, chunked = self.batch_json(
            capsys,
            ["--batch", "--keep-going", "--json", "--jobs", "2",
             "--chunk", "2", *paths],
        )
        assert code_serial == code_chunked == 1
        assert serial == chunked

    def test_cache_flag_warm_run_hits(self, tmp_path, capsys):
        paths = self.write_figures(tmp_path, ["fig1", "fig2c"])
        cache_dir = str(tmp_path / "cache")
        argv = ["--batch", "--keep-going", "--json", "--cache", cache_dir]
        _, cold = self.batch_json(capsys, argv + paths)
        assert cold["cache"] == {"hits": 0, "misses": 2}
        _, warm = self.batch_json(capsys, argv + paths)
        assert warm["cache"] == {"hits": 2, "misses": 0}
        assert all(entry.get("cached") for entry in warm["results"])

    def test_no_cache_overrides_cache(self, tmp_path, capsys):
        paths = self.write_figures(tmp_path, ["fig1"])
        cache_dir = str(tmp_path / "cache")
        argv = ["--batch", "--json", "--cache", cache_dir, "--no-cache"]
        _, payload = self.batch_json(capsys, argv + paths)
        assert "cache" not in payload
        assert not (tmp_path / "cache").exists()

    def test_hard_timeout_reaches_the_supervise_policy(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.tool.cli as cli
        from repro.tool.batch import BatchResult

        seen = {}

        def fake_run_batch(units, **kwargs):
            seen.update(kwargs)
            return BatchResult()

        monkeypatch.setattr(cli, "run_batch", fake_run_batch)
        paths = self.write_figures(tmp_path, ["fig1"])
        argv = ["--batch", "--jobs", "2", "--hard-timeout", "5", *paths]
        assert main(argv) == 0
        assert seen["jobs"] == 2
        assert seen["hard_timeout"] == 5.0


class TestQueryCli:
    """``--query FILE:LINE``: the demand-driven single-question mode."""

    #: examples/fig1_connection_broken.rc line 26 stores the dangling
    #: back-pointer; line 29 (``return 0;``) holds no pointer access.
    STORE_LINE = 26
    NO_ACCESS_LINE = 29

    def example(self, tmp_path):
        source = (EXAMPLES / "fig1_connection_broken.rc").read_text()
        path = tmp_path / "fig1_connection_broken.rc"
        path.write_text(source)
        return str(path)

    def warnings(self, capsys, argv):
        code = main([*argv, "--json"])
        return code, json.loads(capsys.readouterr().out)["warnings"]

    def test_store_line_gives_exactly_that_warning(self, tmp_path, capsys):
        path = self.example(tmp_path)
        _, full = self.warnings(capsys, [path])
        code, queried = self.warnings(
            capsys, [path, "--query", f"{path}:{self.STORE_LINE}"]
        )
        assert code == 1
        assert len(queried) == 1 and queried == full
        assert queried[0]["rank"] == "high"
        assert queried[0]["stores"] == [f"{path}:{self.STORE_LINE}:21"]

    def test_basename_spec_matches(self, tmp_path, capsys):
        path = self.example(tmp_path)
        spec = f"fig1_connection_broken.rc:{self.STORE_LINE}"
        code, queried = self.warnings(capsys, [path, "--query", spec])
        assert code == 1 and len(queried) == 1

    def test_line_without_access_is_clean(self, tmp_path, capsys):
        path = self.example(tmp_path)
        code, queried = self.warnings(
            capsys, [path, "--query", f"{path}:{self.NO_ACCESS_LINE}"]
        )
        assert code == 0
        assert queried == []

    @pytest.mark.parametrize("flag", ["--batch", "--open"])
    def test_conflicting_modes_exit_2(self, tmp_path, capsys, flag):
        path = self.example(tmp_path)
        code = main([path, flag, "--query", f"{path}:{self.STORE_LINE}"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"--query cannot be combined with {flag}" in err

    @pytest.mark.parametrize(
        "spec", ["no-line-number", ":26", "file.rc:x", "file.rc:0"]
    )
    def test_malformed_spec_exits_2(self, tmp_path, capsys, spec):
        path = self.example(tmp_path)
        assert main([path, "--query", spec]) == 2
        assert "--query" in capsys.readouterr().err
