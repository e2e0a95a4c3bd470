"""The shared source-analysis core (``repro.analysis.program``).

One run parses every file once, whichever passes read it; the package
scope falls back to the whole tree on fixture trees; an undecodable file
is a ``SRC000`` finding, never a crash; and the call resolution the DIM
and RES engines share resolves module-local names first.
"""

import ast
import textwrap
from collections import defaultdict

import pytest

from repro.analysis import (
    AnalysisContext,
    analyze_dimensions,
    analyze_lifecycle,
    analyze_source,
    run_passes,
)
from repro.analysis.lifecycle.engine import LifecycleProgram
from repro.analysis.program import SourceTree
from repro.hardware import single_node_cluster

#: one planted finding per source-reading family
_PLANTED = {
    "clock.py": """
        import time

        def stamp():
            return time.time()
        """,
    "budget.py": """
        from repro.units import MS, Bytes

        def budget(num_bytes: Bytes) -> float:
            return num_bytes + 5 * MS
        """,
    "leak.py": """
        def leak(ledger, n):
            r = ledger.reserve(n)
            return n
        """,
}


def _write(root, files):
    for name, source in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(source, bytes):
            path.write_bytes(source)
        else:
            path.write_text(textwrap.dedent(source))


def _by_pass(findings):
    grouped = defaultdict(list)
    for finding in findings:
        grouped[finding.pass_name].append(finding)
    return dict(grouped)


class TestParseOnce:
    def test_one_run_parses_each_file_once(self, tmp_path, monkeypatch):
        _write(tmp_path, {
            **{f"sim/{name}": source for name, source in _PLANTED.items()},
            "cluster/daemon.py": "import random\nrandom.shuffle([])\n",
            "units.py": "GB = 1e9\n",
            "report.py": "CAPACITY = 40 * 1e9\n",
            "broken.py": "def broken(:\n",
        })
        files = len(list(tmp_path.rglob("*.py")))
        real_parse = ast.parse
        calls = []

        def counting_parse(source, *args, **kwargs):
            calls.append(source)
            return real_parse(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        combined = run_passes(AnalysisContext(source_root=tmp_path),
                              ("source", "dims", "lifecycle"))
        assert len(calls) == files
        monkeypatch.setattr(ast, "parse", real_parse)

        separate = [
            *analyze_source(tmp_path).findings,
            *analyze_dimensions(tmp_path).findings,
            *analyze_lifecycle(tmp_path).findings,
        ]
        assert _by_pass(combined.findings) == _by_pass(separate)
        codes = {f.code for f in combined.findings}
        assert {"SRC000", "DET020", "CLU002", "DIM001", "DIM010",
                "RES001"} <= codes

    def test_a_new_run_sees_an_edited_file(self, tmp_path):
        _write(tmp_path, {"sim/clock.py": _PLANTED["clock.py"]})
        assert [f.code for f in analyze_source(tmp_path).findings] == \
            ["CLU001", "DET020"]
        _write(tmp_path, {"sim/clock.py": "def stamp(now):\n    return now\n"})
        assert analyze_source(tmp_path).findings == []

    def test_the_pre_run_hook_parses_nothing(self, tmp_path):
        ctx = AnalysisContext(cluster=single_node_cluster(),
                              source_root=tmp_path)
        run_passes(ctx, ("config", "topology", "faults"), cheap_only=True)
        assert "sources" not in vars(ctx)


class TestUndecodableSource:
    @pytest.mark.parametrize("entry, planted, expected", [
        (analyze_source, "clock.py", ["CLU001", "DET020", "SRC000"]),
        (analyze_dimensions, "budget.py", ["DIM001"]),
        (analyze_lifecycle, "leak.py", ["RES001"]),
    ], ids=["source", "dims", "lifecycle"])
    def test_non_utf8_file_is_reported_not_raised(self, tmp_path, entry,
                                                  planted, expected):
        _write(tmp_path, {
            "sim/latin.py": b"x = 1\nname = '\xff'\n",
            f"sim/{planted}": _PLANTED[planted],
        })
        report = entry(tmp_path)
        assert sorted(f.code for f in report.findings) == expected
        for finding in report.findings:
            if finding.code == "SRC000":
                assert finding.location == "sim/latin.py:2"
                assert "utf-8" in finding.message
            else:
                assert finding.location.startswith(f"sim/{planted}:")


class TestSourceTree:
    def test_scope_prefers_named_packages(self, tmp_path):
        _write(tmp_path, {"sim/a.py": "", "cluster/b.py": "", "top.py": ""})
        sources = SourceTree(tmp_path)
        assert [loc for _, loc in sources.modules(("sim", "absent"))] == \
            ["sim/a.py"]
        assert [loc for _, loc in sources.modules(("absent",))] == \
            ["cluster/b.py", "sim/a.py", "top.py"]

    def test_exclude_matches_basenames_anywhere(self, tmp_path):
        _write(tmp_path, {"units.py": "", "sim/units.py": "", "sim/a.py": ""})
        sources = SourceTree(tmp_path)
        assert [source.location
                for source in sources.files(exclude=("units.py",))] == \
            ["sim/a.py"]

    def test_unparseable_files_are_kept_with_their_error(self, tmp_path):
        _write(tmp_path, {"bad.py": "x = 1\ndef broken(:\n", "ok.py": ""})
        sources = SourceTree(tmp_path)
        bad, ok = sources.files()
        assert bad.tree is None and bad.error_line == 2
        assert isinstance(bad.error, SyntaxError)
        assert ok.tree is not None and ok.error is None
        assert [loc for _, loc in sources.modules()] == ["ok.py"]


class TestSharedResolution:
    def _program(self, tmp_path, files):
        _write(tmp_path, files)
        program = LifecycleProgram(SourceTree(tmp_path).modules())
        program.infer()
        return program

    def test_module_local_definition_wins(self, tmp_path):
        program = self._program(tmp_path, {
            "a.py": "def close(ledger, r):\n    ledger.settle(r)\n",
            "b.py": "def close(ledger, r):\n    return r\n",
        })
        a, b = program.modules
        assert program.resolve_call(a, "close").module == "a.py"
        assert program.resolve_call(b, "close").module == "b.py"

    def test_disagreeing_summaries_do_not_resolve(self, tmp_path):
        program = self._program(tmp_path, {
            "a.py": "def close(ledger, r):\n    ledger.settle(r)\n",
            "b.py": "def close(ledger, r):\n    return r\n",
            "c.py": "def other():\n    pass\n",
        })
        assert program.resolve_call(program.modules[2], "close") is None

    def test_static_methods_are_not_methods(self, tmp_path):
        program = self._program(tmp_path, {"a.py": textwrap.dedent("""
            class Pool:
                def grow(self):
                    pass

                @staticmethod
                def make():
                    pass
            """)})
        functions = program.modules[0].functions
        assert functions["grow"].is_method
        assert functions["grow"].qualname == "Pool.grow"
        assert not functions["make"].is_method
