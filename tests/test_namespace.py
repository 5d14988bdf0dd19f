"""The lazy package namespace, the modules each CLI subcommand loads, the
value semantics of the two record classes, and no dead code in src."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import p1bundles
from p1bundles import cech
from p1bundles.cech import Section
from p1bundles.laurent import ONE_POLY, ZERO_POLY, z_power
from p1bundles.lmatrix import LaurentMatrix
from p1bundles.splitter import Factorization

DATA = Path(__file__).parent / "data"

# Runs cli.main on the given arguments, then prints the loaded module names
# as the last line of stderr.
_LOADED = """
import sys
from p1bundles.cli import main
code = main(sys.argv[1:])
print(code, " ".join(sorted(sys.modules)), file=sys.stderr)
"""


def _loaded(*args):
    r = subprocess.run(
        [sys.executable, "-c", _LOADED, *args], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    code, names = r.stderr.splitlines()[-1].split(" ", 1)
    return int(code), set(names.split())


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    diag, o3 = str(DATA / "diag.bundle"), str(DATA / "o3.bundle")
    cert, out = str(tmp_path / "diag.fact"), str(tmp_path / "out.bundle")
    no_cech = [
        (["split", diag, "-o", cert], 0),
        (["verify", diag, cert], 0),
        (["op", "tensor", diag, o3, "-o", out], 0),
        (["h0", str(DATA / "invalid.bundle")], 1),
        (["split", str(DATA / "syntax_error.bundle")], 2),
    ]
    for args, expected in no_cech:
        code, names = _loaded(*args)
        assert code == expected, args
        assert "p1bundles.cech" not in names, args
        assert "dataclasses" not in names, args
    for args in (["h0", o3], ["h1", o3], ["chi", o3], ["profile", o3, "--from", "-2", "--to", "1"]):
        code, names = _loaded(*args)
        assert code == 0, args
        assert "p1bundles.cech" in names, args
        assert "p1bundles.splitter" not in names, args
        assert "dataclasses" not in names, args


def test_only_a_count_over_the_threshold_loads_the_splitter(tmp_path):
    # h0 of a small file solves its Cech system, and its child never
    # imports the splitter; a profile whose Cech plan is over the
    # certificate threshold reads the splitting type, so its child does.
    from p1bundles import random_bundle
    from p1bundles.text import format_bundle

    small = random_bundle([2, 0, -1], 2, seed=21)
    large = random_bundle([1, 0], 2, 4).tensor(random_bundle([1, 0, -1], 2, 5))
    assert 0 < cech._plan(small, 0, 0).cells <= cech._CERTIFICATE_CELLS
    assert cech._plan(large, -4, 4).cells > cech._CERTIFICATE_CELLS
    path = tmp_path / "e.bundle"
    for e, args, loads in (
        (small, ["h0", str(path)], False),
        (large, ["profile", str(path), "--from", "-4", "--to", "4"], True),
    ):
        path.write_text(format_bundle(e))
        code, names = _loaded(*args)
        assert code == 0, args
        assert ("p1bundles.splitter" in names) == loads, args


def test_cli_runs_as_a_module_without_a_warning():
    # runpy warns when the package has already imported the module it runs.
    argv = [sys.executable, "-W", "error", "-m", "p1bundles.cli", "deg", str(DATA / "o3.bundle")]
    r = subprocess.run(argv, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stderr == ""


def test_submodules_resolve_as_attributes():
    for name in ("cech", "splitter", "lmatrix", "cli"):
        assert getattr(p1bundles, name) is sys.modules[f"p1bundles.{name}"]
    assert set(p1bundles.__all__) <= set(dir(p1bundles))
    with pytest.raises(AttributeError):
        p1bundles.no_such_name


def test_public_names_are_read_off_their_home_module(monkeypatch):
    # Nothing is copied into the package, so a function patched on its home
    # module is what the package returns, and the original once restored.
    assert "h0_dim" not in vars(p1bundles)
    assert p1bundles.h0_dim is cech.h0_dim
    original = cech.h0_dim
    monkeypatch.setattr(cech, "h0_dim", len)
    assert p1bundles.h0_dim is len
    monkeypatch.undo()
    assert p1bundles.h0_dim is original


def test_section_is_a_read_only_value():
    a = Section((ONE_POLY, z_power(1)))
    b = Section((ONE_POLY, z_power(1)))
    assert a == b and hash(a) == hash(b)
    assert a != Section((z_power(1), ONE_POLY))
    assert a != (ONE_POLY, z_power(1))
    assert Section(components=a.components) == a
    assert repr(a) == f"Section(components={a.components!r})"
    assert list(a) == [ONE_POLY, z_power(1)] and len(a) == 2
    with pytest.raises(AttributeError):
        a.components = ()
    with pytest.raises(AttributeError):
        a.extra = 1


def test_factorization_is_a_read_only_value():
    one = LaurentMatrix.identity(2)
    d = LaurentMatrix([[z_power(-1), ZERO_POLY], [ZERO_POLY, ONE_POLY]])
    f = Factorization(one, one, d)
    assert f == Factorization(w=one, u=one, d=d)
    assert hash(f) == hash(Factorization(one, one, d))
    assert f != Factorization(one, one, one)
    assert (f.w, f.u, f.d) == (one, one, d)
    assert repr(f) == f"Factorization(w={one!r}, u={one!r}, d={d!r})"
    with pytest.raises(AttributeError):
        f.d = one


def test_src_has_no_unused_import_and_no_orphan_private_name():
    # Every name a module imports is read in that module, and every private
    # top-level name (one leading underscore) is read somewhere in src, so
    # a deleted path leaves no helper or import behind.  __init__.py maps
    # names to their home modules and is left out.
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(p1bundles.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
    }
    read = set()  # names read anywhere in src
    unused = []
    for name, tree in trees.items():
        nodes = list(ast.walk(tree))
        here = {
            n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        here |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        read |= here
        for node in nodes:
            if isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                read |= {alias.name for alias in node.names}
            elif not isinstance(node, ast.Import):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in here:
                    unused.append(f"{name}: import {bound}")
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for d in defined:
                if d.startswith("_") and not d.startswith("__") and d not in read:
                    orphans.append(f"{name}: {d}")
    assert (unused, orphans) == ([], [])

