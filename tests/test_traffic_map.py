"""The traffic map's allow-list (``tests/traffic_allowlist.txt``) follows the
source: every entry names a function defined in ``src/graphspec`` and gives
its reason.  Whether the replay enters it is the CI step's to check, as the
map runs the whole replay."""

import traffic_map


def test_every_allowlist_entry_is_a_defined_function_with_a_reason():
    names = {traffic_map.key(*fn) for fn in traffic_map.defined()}
    assert "combinatorial.friedman_bounds.<locals>.lower_bound" in names
    assert not any("<lambda>" in name or "<listcomp>" in name for name in names)
    for name, reason in traffic_map.read_allowlist().items():
        assert name in names and reason, name
