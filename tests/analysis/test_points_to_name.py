"""``Solution.points_to_name`` answers for exactly one pointer.

Variable names need not be unique: two linked units may each have a
``static int *cell``, and a linked 557.xz gives 135 names to more than
one pointer.  The accessor scans the pointers instead of keeping a name
index, and refuses a name that no pointer or several pointers have
instead of answering for one of them.
"""

import pytest

from repro.analysis import ConstraintProgram, parse_name, run_configuration


def solved(*names):
    """Each pointer ``names[i]`` points to its own location ``x<i>``."""
    program = ConstraintProgram("names")
    for i, name in enumerate(names):
        x = program.add_memory(f"x{i}")
        program.add_base(program.add_register(name), x)
    return run_configuration(program, parse_name("IP+WL(FIFO)"))


def test_same_named_pointers_raise_with_their_count():
    solution = solved("cell", "other", "cell")
    with pytest.raises(ValueError, match="2 pointers are named 'cell'"):
        solution.points_to_name("cell")
    assert solution.names(solution.points_to_name("other")) == {"x1"}


def test_a_name_no_pointer_has_raises_key_error():
    solution = solved("p")
    with pytest.raises(KeyError, match="no pointer is named 'r'"):
        solution.points_to_name("r")
