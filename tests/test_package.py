import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

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


def _python(*args, stdin=None):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], input=stdin, capture_output=True, env=env, timeout=60)


ENGINES = {"seqcong.counting", "seqcong.generalized", "seqcong.ideals", "seqcong.kinds"}


def test_import_registers_every_submodule_and_runs_none():
    probe = ("import json, sys, seqcong\n"
             "mods = {n: m for n, m in sys.modules.items() if n.startswith('seqcong.')}\n"
             "print(json.dumps([sorted(mods), sorted(n for n, m in mods.items() if '__builtins__' in vars(m))]))")
    done = _python("-c", probe)
    assert done.returncode == 0, done.stderr
    registered, ran = json.loads(done.stdout)
    assert registered == ["seqcong.bijections", "seqcong.counting", "seqcong.errors", "seqcong.generalized",
                          "seqcong.ideals", "seqcong.kinds", "seqcong.partition"]
    assert ran == []


@pytest.mark.parametrize("argv,engine", [
    (["map", "--fn", "pi"], None),
    (["convert", "--to", "cnotation"], None),
    (["check", "--pred", "seqcong"], None),
    (["gmap", "--fn", "sigmaAB"], "seqcong.generalized"),
    (["gcheck"], "seqcong.generalized"),
], ids=["map", "convert", "check", "gmap", "gcheck"])
def test_batch_commands_run_only_the_modules_they_use(argv, engine):
    done = _python(str(SRC.parent / "tests" / "cli_probe.py"), *argv, "--input", "-", stdin=b"[3,2]\n[4,4]\n")
    assert done.returncode == 0 and len(done.stdout.splitlines()) == 2, done.stderr
    ran = set(json.loads(done.stderr.decode().splitlines()[-1]))
    assert {"seqcong.bijections", "seqcong.errors", "seqcong.partition"} <= ran
    assert ran & ENGINES == ({engine} if engine else set())


RAN = ("print(json.dumps(sorted(n for n, m in sys.modules.items()"
       " if n.startswith('seqcong.') and '__builtins__' in vars(m))))")


@pytest.mark.parametrize("code,want", [
    # bench/workloads.py's counting_mix set-up probe
    ("specs = [seqcong.IdealSpec.parse(k) for k in ['R', 'D', 'P_parity', 'Adiff', 'Rprime']]",
     ["seqcong.errors", "seqcong.kinds"]),
    ("bound = seqcong.AnalysisBound(12, 6)", ["seqcong.errors", "seqcong.kinds"]),
    ("spec = seqcong.IdealSpec.parse('S')",
     ["seqcong.bijections", "seqcong.errors", "seqcong.kinds", "seqcong.partition"]),
    ("assert seqcong.count_members(seqcong.IdealSpec('D'), 30) == 296",
     ["seqcong.bijections", "seqcong.counting", "seqcong.errors", "seqcong.kinds", "seqcong.partition"]),
], ids=["specs", "bound", "S", "count"])
def test_specs_and_counts_run_no_engine(code, want):
    # building a spec compiles neither the engines nor counting; a count adds counting and what it imports
    done = _python("-c", f"import json, sys, seqcong\n{code}\n{RAN}")
    assert (done.returncode, json.loads(done.stdout or "null")) == (0, want), done.stderr


@pytest.mark.parametrize("argv,lines", [
    (["count", "--pred", "D", "--upto", "30"], 31),
    (["enumerate", "--pred", "D", "--size", "12"], 15),
], ids=["count", "enumerate"])
def test_ideal_kind_commands_run_no_engine(argv, lines):
    done = _python(str(SRC.parent / "tests" / "cli_probe.py"), *argv)
    assert done.returncode == 0 and len(done.stdout.splitlines()) == lines, done.stderr
    ran = set(json.loads(done.stderr.decode().splitlines()[-1]))
    assert ran & ENGINES == {"seqcong.counting", "seqcong.kinds"}


THREADS = """
import sys, threading
import seqcong

sys.setswitchinterval(1e-6)
barrier, got = threading.Barrier(8), []

def touch():
    barrier.wait()
    try:
        from seqcong.ideals import members_within
        got.append(members_within)
    except Exception as exc:
        got.append(repr(exc))

threads = [threading.Thread(target=touch) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
print(len(got), sum(f is sys.modules["seqcong.ideals"].members_within for f in got), [f for f in got if type(f) is str])
"""


def test_first_use_from_eight_threads_at_once():
    for _ in range(5):
        done = _python("-c", THREADS)
        assert (done.returncode, done.stdout, done.stderr) == (0, b"8 8 []\n", b"")


def test_a_submodule_taken_by_name_has_run():
    probe = ("import sys\nfrom seqcong import ideals\nimport seqcong.generalized\n"
             "print('__builtins__' in vars(ideals), ideals is sys.modules['seqcong.ideals'],\n"
             "      '__builtins__' in vars(seqcong.generalized), hasattr(ideals, 'members_within'))")
    done = _python("-c", probe)
    assert (done.returncode, done.stdout) == (0, b"True True True True\n"), done.stderr


def test_values_unpickle_in_a_fresh_interpreter():
    values = [seqcong.Partition([5, 3, 1]), seqcong.IdealSpec("P_mod", 3), seqcong.IdealSpec("S")]
    done = _python("-c", "import pickle, sys; print(repr(pickle.load(sys.stdin.buffer)))",
                   stdin=pickle.dumps(values))
    assert (done.returncode, done.stdout.decode()) == (0, repr(values) + "\n"), done.stderr
    twins = pickle.loads(pickle.dumps(values))
    assert twins == values and twins[1].contains(seqcong.Partition([7, 4, 1]))
