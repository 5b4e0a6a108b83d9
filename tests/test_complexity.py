"""The kernel-vs-policy code split (S3.1 modularity analog)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.complexity import (
    count_code_lines,
    count_settings,
    kernel_policy_split,
    render_split,
)


class TestLineCounting:
    def test_counts_ignore_blanks_comments_docstrings(self, tmp_path: Path):
        source = tmp_path / "m.py"
        source.write_text(
            '"""Module docstring\nspanning lines."""\n'
            "\n"
            "# a comment\n"
            "x = 1\n"
            "def f():\n"
            '    """one-line docstring"""\n'
            "    return x\n"
        )
        assert count_code_lines(source) == 3

    def test_empty_file(self, tmp_path: Path):
        source = tmp_path / "empty.py"
        source.write_text("")
        assert count_code_lines(source) == 0


class TestSettingsCounting:
    def test_counts_defaults_of_every_function(self, tmp_path: Path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "m.py").write_text(
            "from dataclasses import dataclass\n"
            "def f(a, b=1, *args, c, d=None, e=2, **kw):\n"
            "    def inner(x=0):\n"
            "        return x\n"
            "    return lambda y=1: y\n"
            "class C:\n"
            "    def __init__(self, n=3):\n"
            "        self.n = n\n"
            "    async def _go(self, *, t=1.0):\n"
            "        pass\n"
            "@dataclass\n"
            "class D:\n"
            "    field: int = 4\n"
        )
        (tmp_path / "top.py").write_text("def g(p, q=(1, 2)):\n    pass\n")
        # f: b, d, e; inner: x; __init__: n; _go: t; g: q (the lambda and
        # the dataclass field are not counted)
        assert count_settings(tmp_path) == 7
        assert count_settings(tmp_path / "pkg") == 6


class TestSplit:
    def test_policy_exceeds_kernel(self):
        """The paper's point: most VM code moved out of the kernel ---
        the process-level policy side outweighs what the kernel keeps."""
        split = kernel_policy_split()
        assert split.kernel_lines > 500          # a real kernel model
        assert split.policy_lines > split.kernel_lines * 0.8
        assert 0.3 < split.reduction_fraction < 0.8

    def test_by_package_covers_declared_modules(self):
        split = kernel_policy_split()
        assert set(split.by_package) == {"core", "managers", "spcm"}
        assert all(v > 0 for v in split.by_package.values())

    def test_render(self):
        text = render_split()
        assert "kernel keeps" in text
        assert "process level" in text
