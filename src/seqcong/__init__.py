"""Sequentially congruent partitions: representations, bijections, and ideal analysis.

Importing the package runs none of its submodules.  Each one is registered in
``sys.modules`` at import and runs on its first missing attribute, once,
under one re-entrant lock: a thread that touches it second waits for the
first, so first use from several threads at once is safe.  A public name
(``seqcong.Partition``) or a submodule taken by name (``seqcong.ideals``,
``from seqcong import ideals``) comes back from a module that has run.

So a ``seqcong map`` process never compiles or runs ``counting``, ``ideals``,
``kinds`` or ``generalized``, and one that builds an ``IdealSpec`` or counts a
kind runs ``kinds`` and never ``ideals``.  :func:`seqcong.cli.main` then
calls ``gc.freeze()``: a process keeps what it loaded until it exits, so no
collection, the one at exit included, needs to walk that heap again.
"""

import sys
from _thread import RLock as _RLock
from importlib.machinery import PathFinder as _PathFinder

__version__ = "0.1.0"

# submodule -> the public names it gives the package
_NAMES = {
    "bijections": """CNotation from_c_notation is_seq_congruent pi_map pi_sigma_closed_form psi_inverse
        psi_map render_square_decomposition sigma_map to_c_notation""",
    "counting": """CountSeries count_all_partitions count_into_powers count_members enumerate_members
        enumerate_partitions enumerate_seqcong_by_largest enumerate_seqcong_by_size
        enumerate_with_parts_from iter_members_of_size iter_partition_tuples member_counts""",
    "errors": """CanonicalFormError ContainmentError DomainError HorizonError NotSequentiallyCongruentError
        ResourceError SpecError""",
    "generalized": """GenSpec NNotation SequenceRule eta is_in_SBA is_in_Sjk is_in_Sk n_decode n_encode pi_AB
        pi_prime_AB psi_k sigma_AB sigma_k sigma_prime_AB tau""",
    "ideals": """ClosureReport LinkEntry LinkReport LSetReport ModulusReport OrderReport SubidealRefutation
        andrews_compose andrews_decompose check_ideal_closure check_modulus compute_L count_parity_ideal
        infer_linking linked_refutation_example members_within order_estimate order_refute seqcong_ideal_exit
        weak_order_estimate weak_order_refute""",
    "kinds": "AnalysisBound IdealSpec is_member",
    "partition": """EMPTY FrequencyMap Partition conjugate durfee_size from_frequencies head_above
        is_self_conjugate oplus_merge remove_parts render_diagram scalar_mul shift star_add tail unshift""",
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = sorted(_HOME)

_lock, _started = _RLock(), set()


def _run(module):
    """Run a registered submodule's code unless it has run or is running in this thread."""
    with _lock:
        if type(module) is _Submodule and module.__name__ not in _started:
            _started.add(module.__name__)
            try:
                module.__spec__.loader.exec_module(module)
            except BaseException:  # a later touch runs it again and meets the same error
                _started.discard(module.__name__)
                raise
            module.__class__ = type(sys)
    return module


class _Submodule(type(sys)):
    """A registered submodule whose code has not run yet."""

    def __getattr__(self, name):
        return type(sys).__getattribute__(_run(self), name)


def _register(name: str) -> _Submodule:
    spec = _PathFinder.find_spec(f"{__name__}.{name}", __path__)
    module = _Submodule(spec.name)
    module.__spec__, module.__loader__, module.__package__ = spec, spec.loader, __name__
    module.__file__, module.__cached__ = spec.origin, spec.cached
    return module


# one update, so no thread sees some submodules registered and others not
sys.modules.update({module.__name__: module for module in map(_register, _NAMES)})


def __getattr__(name: str):
    home = _HOME.get(name, name)
    if home not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _run(sys.modules[f"{__name__}.{home}"])
    value = value if home == name else getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_NAMES))
