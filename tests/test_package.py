import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pidirr


def test_every_public_name_resolves():
    # In a fresh interpreter, so that the lazily loaded modules are not yet
    # imported when dir() is asked: dir() lists every name, the star import
    # binds every name, and each is the object its module defines.
    code = (
        "import sys\n"
        "import pidirr\n"
        "assert 'pidirr.corpus' not in sys.modules\n"
        "missing = set(pidirr.__all__) - set(dir(pidirr))\n"
        "assert not missing, f'dir(pidirr) misses {sorted(missing)}'\n"
        "namespace = {}\n"
        "exec('from pidirr import *', namespace)\n"
        "unbound = set(pidirr.__all__) - set(namespace)\n"
        "assert not unbound, f'the star import misses {sorted(unbound)}'\n"
        "from pidirr import axioms, corpus, lattice, union_info\n"
        "assert namespace['check_axioms'] is axioms.check_axioms\n"
        "assert namespace['load_example'] is corpus.load_example\n"
        "assert namespace['join'] is lattice.join\n"
        "assert namespace['full_report'] is pidirr.irreducibility.full_report\n"
        "assert not hasattr(union_info, 'check_axioms')\n"
    )
    src = str(Path(pidirr.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_export_list_is_the_modules_export_lists():
    from pidirr import distributions, irreducibility, parts, union_info

    exported = pidirr.__all__
    assert len(exported) == len(set(exported))
    lazy = [name for names in pidirr._LAZY.values() for name in names]
    expected = [
        *distributions.__all__,
        *parts.__all__,
        *union_info.__all__,
        *irreducibility.__all__,
        *lazy,
        "__version__",
    ]
    expected.remove("brute_force_union_oracle")
    assert exported == expected
    for module, names in pidirr._LAZY.items():
        assert list(names) == import_module(f"pidirr.{module}").__all__, module


def test_star_import_leaves_out_the_oracle():
    code = (
        "import sys\n"
        "from pidirr import *\n"
        "loaded = {'pidirr.oracle', 'scipy.optimize'} & set(sys.modules)\n"
        "assert not loaded, f'the star import loads {sorted(loaded)}'\n"
    )
    src = str(Path(pidirr.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
