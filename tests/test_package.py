import inspect
import os
import subprocess
import sys
from pathlib import Path

import seqcong

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_public_class_and_function_is_exported():
    bound = {
        name
        for name, value in vars(seqcong).items()
        if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
    }
    assert bound <= set(seqcong.__all__)


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from seqcong import *", namespace)
    assert set(seqcong.__all__) <= set(namespace)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -S keeps site hooks out, so only the package's own imports count
    probe = "import sys, seqcong.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
