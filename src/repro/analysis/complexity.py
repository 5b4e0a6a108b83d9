"""Kernel-vs-policy code accounting (the paper's S3.1 modularity claim).

"In the kernel that uses external page-cache management, the machine
independent virtual memory module is approximately 4500 lines of C code,
as compared to approximately 6900 lines for the previous version.  Most of
the excised code is migrated to the page-cache managers so there is no
real saving in the total amount of the code required for the same
functionality.  However it is significant in reducing the size of the
kernel."

The analogous measurement on this repository: count the lines of the
kernel-resident modules versus the process-level policy modules, and show
that the policy code (which a conventional design would carry *inside*
the kernel) exceeds the kernel itself --- the same modularity shift.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

#: modules that would be kernel-resident in a conventional design
KERNEL_MODULES = ("core",)
#: policy moved out of the kernel by external page-cache management
POLICY_MODULES = ("managers", "spcm")


@dataclass(frozen=True)
class CodeSplit:
    kernel_lines: int
    policy_lines: int
    by_package: dict[str, int]

    @property
    def conventional_kernel_lines(self) -> int:
        """What a conventionally-structured kernel would carry."""
        return self.kernel_lines + self.policy_lines

    @property
    def reduction_fraction(self) -> float:
        """Fraction of the conventional kernel moved out to user level."""
        total = self.conventional_kernel_lines
        return self.policy_lines / total if total else 0.0


def count_code_lines(path: Path) -> int:
    """Non-blank, non-comment source lines of one file."""
    lines = 0
    in_docstring = False
    delimiter = ""
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if in_docstring:
            if delimiter in line:
                in_docstring = False
            continue
        if not line or line.startswith("#"):
            continue
        if line.startswith(('"""', "'''")):
            delimiter = line[:3]
            # one-line docstring?
            if line.count(delimiter) >= 2 and len(line) > 3:
                continue
            in_docstring = True
            continue
        lines += 1
    return lines


def count_settings(root: Path) -> int:
    """Parameters with a default value, positional and keyword-only, of
    every function and method in the ``.py`` files under ``root``
    (nested and private ones included; dataclass fields are not
    parameters)."""
    settings = 0
    for path in sorted(Path(root).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                settings += len(args.defaults) + sum(
                    default is not None for default in args.kw_defaults
                )
    return settings


def package_lines(root: Path, package: str) -> int:
    """Code lines of one package under ``root``."""
    pkg_dir = root / package
    return sum(
        count_code_lines(f) for f in sorted(pkg_dir.rglob("*.py"))
    )


def kernel_policy_split(src_root: Path | None = None) -> CodeSplit:
    """Measure the repository's kernel/policy code split."""
    root = (
        src_root
        if src_root is not None
        else Path(__file__).resolve().parent.parent
    )
    by_package = {
        pkg: package_lines(root, pkg)
        for pkg in KERNEL_MODULES + POLICY_MODULES
    }
    return CodeSplit(
        kernel_lines=sum(by_package[p] for p in KERNEL_MODULES),
        policy_lines=sum(by_package[p] for p in POLICY_MODULES),
        by_package=by_package,
    )


def render_split(split: CodeSplit | None = None) -> str:
    """The S3.1-style summary, for the report."""
    s = split if split is not None else kernel_policy_split()
    lines = [
        "Kernel vs. process-level policy (code lines, S3.1 analog)",
        "-" * 58,
    ]
    for pkg, count in sorted(s.by_package.items()):
        where = "kernel" if pkg in KERNEL_MODULES else "process-level"
        lines.append(f"  {pkg:<10s} {count:6d}  ({where})")
    lines.append("-" * 58)
    lines.append(
        f"  kernel keeps {s.kernel_lines} lines; a conventional design "
        f"would carry {s.conventional_kernel_lines}"
    )
    lines.append(
        f"  ({s.reduction_fraction * 100:.0f}% of VM code moved to "
        "process level)"
    )
    return "\n".join(lines)
