"""cli.py reads exactly the config keys that its SCHEMA declares.

The scan reads the source with `ast` only.  A read is a subscript whose
index is two string constants, such as `cfg["data", "frequencies"]`.  A
read of a key that SCHEMA lacks would end a run with a KeyError
traceback (exit 1) instead of a config error, and a SCHEMA key that is
read nowhere is accepted in a config file and then silently ignored.
A read followed by `or <default>` gives the key a second default beside
its SCHEMA entry, so that is a fault too.
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


def is_config_read(node: ast.AST) -> bool:
    """A subscript whose index is two string constants."""
    return (
        isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
        and len(node.slice.elts) == 2
        and all(isinstance(p, ast.Constant) and isinstance(p.value, str) for p in node.slice.elts)
    )


def config_reads(tree: ast.AST) -> dict[tuple[str, str], int]:
    """(section, key) -> first line of a `x["section", "key"]` subscript."""
    reads = {}
    for node in ast.walk(tree):
        if is_config_read(node):
            item = tuple(p.value for p in node.slice.elts)
            reads[item] = min(reads.get(item, node.lineno), node.lineno)
    return reads


def fallbacks(tree: ast.AST) -> list[str]:
    """`x["section", "key"] or <default>`: a default beside SCHEMA's."""
    return [
        f"[{value.slice.elts[0].value}] {value.slice.elts[1].value} (line {node.lineno}) "
        "falls back with `or`"
        for node in ast.walk(tree)
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or)
        for value in node.values[:-1]
        if is_config_read(value)
    ]


def schema_faults(source: str) -> list[str]:
    tree = ast.parse(source)
    schema, reads = schema_keys(tree), config_reads(tree)
    unknown = [f"[{s}] {k} (line {line}) not in SCHEMA" for (s, k), line in reads.items()
               if (s, k) not in schema]
    unread = [f"[{s}] {k} never read" for s, k in schema if (s, k) not in reads]
    return sorted(unknown) + sorted(unread) + sorted(fallbacks(tree))


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
        "def fallback(cfg):\n"
        '    return cfg["output", "dir"] or "out", None or cfg["data", "path"]\n'
    )
    assert schema_faults(source) == [
        "[data] snr (line 6) not in SCHEMA",
        "[data] snr_db never read",
        "[output] dir (line 8) falls back with `or`",
    ]
