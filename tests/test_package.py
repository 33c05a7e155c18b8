import inspect

import seqcong


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
