"""cli.py reads exactly the config keys that its SCHEMA declares.

The scan reads the source with `ast` only.  A read is a subscript whose
index is two string constants, such as `cfg["data", "frequencies"]`.  A
read of a key that SCHEMA lacks would end a run with a KeyError
traceback (exit 1) instead of a config error, and a SCHEMA key that is
read nowhere is accepted in a config file and then silently ignored.
"""

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "eigenwave" / "cli.py"


def schema_keys(tree: ast.AST) -> set[tuple[str, str]]:
    """(section, key) for each entry of the `SCHEMA = {...}` dict literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "SCHEMA" for t in targets):
            return {
                (section.value, key.value)
                for section, keys in zip(node.value.keys, node.value.values)
                for key in keys.keys
            }
    raise AssertionError("no SCHEMA assignment")


def config_reads(tree: ast.AST) -> dict[tuple[str, str], int]:
    """(section, key) -> first line of a `x["section", "key"]` subscript."""
    reads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple):
            parts = node.slice.elts
            if len(parts) == 2 and all(
                isinstance(p, ast.Constant) and isinstance(p.value, str) for p in parts
            ):
                item = (parts[0].value, parts[1].value)
                reads[item] = min(reads.get(item, node.lineno), node.lineno)
    return reads


def schema_faults(source: str) -> list[str]:
    tree = ast.parse(source)
    schema, reads = schema_keys(tree), config_reads(tree)
    unknown = [f"[{s}] {k} (line {line}) not in SCHEMA" for (s, k), line in reads.items()
               if (s, k) not in schema]
    unread = [f"[{s}] {k} never read" for s, k in schema if (s, k) not in reads]
    return sorted(unknown) + sorted(unread)


def test_cli_reads_exactly_the_schema_keys():
    assert schema_faults(CLI.read_text(encoding="utf-8")) == []


def test_scan_finds_unknown_and_unread_keys():
    source = (
        "SCHEMA: dict = {\n"
        '    "data": {"path": (str, None), "snr_db": (float, None)},\n'
        '    "output": {"dir": (str, "out")},\n'
        "}\n"
        "def run(cfg):\n"
        '    return cfg["data", "path"], cfg["output", "dir"], cfg["data", "snr"]\n'
    )
    assert schema_faults(source) == [
        "[data] snr (line 6) not in SCHEMA",
        "[data] snr_db never read",
    ]
