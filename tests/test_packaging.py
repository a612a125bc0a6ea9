"""``setup.py`` declares the package: metadata, modules and the ``.rel``
standard library, so a built tree works away from the source checkout."""

import os
import pathlib
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _setup(*args, **kwargs):
    return subprocess.run([sys.executable, "setup.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          **kwargs)


def test_metadata_is_declared():
    result = _setup("--name", "--version")
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split()[-2:] == ["repro", repro.__version__]


def test_built_tree_runs_outside_the_source_tree(tmp_path):
    lib = tmp_path / "lib"
    built = _setup("-q", "build", "--build-lib", str(lib))
    assert built.returncode == 0, built.stderr[-2000:]
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    env["PYTHONPATH"] = str(lib)
    probe = ("import repro\n"
             "print(repro.__file__)\n"
             "print(sorted(repro.connect().execute("
             "'TC[{(1,2);(2,3)}]').tuples))\n")
    result = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    where, closure = result.stdout.splitlines()
    assert pathlib.Path(where).is_relative_to(lib)
    assert closure == "[(1, 2), (1, 3), (2, 3)]"
