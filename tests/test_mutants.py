"""The mutant catalogue (``tests/mutants.py``) follows the source: every
entry's old text occurs once in its file, and every test it names exists."""

import mutants


def test_every_mutant_applies_once_and_names_existing_tests():
    for m in mutants.CATALOGUE:
        assert mutants.applies(m), m.name
        for test in m.tests:
            path, *names = test.split("::")
            source = (mutants.ROOT / path).read_text()
            assert all(f"def {n}(" in source or f"class {n}" in source for n in names), test
