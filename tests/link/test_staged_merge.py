"""Staged linking over the re-linkable joint symbol table.

A linked program keeps its joint symbol table, and the LIR exporter
writes it as ``.symbol`` lines, so an exported joint ``.lir`` links
again with more members (``repro audit escape ab.lir c.c d.c``).  That
front door leans on exactly the properties proven here: linking is
associative over the joint table, also through an export∘parse round
trip; diagnostics survive through merge levels (including the
type-conflict case an unprototyped declaration could launder); and a
partial link must stay *open* — internalizing a strict subset of the
program changes the answer.
"""

import json

import pytest

from repro.analysis import parse_name, run_configuration
from repro.interchange import export_constraint_text, parse_constraint_text
from repro.link import LinkError, LinkOptions, link_programs
from repro.pipeline import Pipeline

CONFIG = parse_name("IP+WL(FIFO)")


def program_of(name, source):
    pipeline = Pipeline()
    return pipeline.constraints(pipeline.source(name, source)).program


def named_json(program):
    return json.dumps(
        run_configuration(program, CONFIG).to_named_canonical(),
        sort_keys=True,
        separators=(",", ":"),
    )


def reparsed(linked):
    """A linked program after an export∘parse round trip (``ab.lir``)."""
    return parse_constraint_text(
        export_constraint_text(linked.program), "ab.lir"
    )


def four_tus():
    a = program_of(
        "a.c",
        "int cell;\nint *ap = &cell;\nint helper(void) { return cell; }\n",
    )
    b = program_of(
        "b.c",
        "extern int cell;\nint *bp = &cell;\nint helper(void);\n"
        "int bfn(void) { return helper(); }\n",
    )
    c = program_of(
        "c.c",
        "int helper(void);\nint (*hp)(void) = helper;\n"
        "int cfn(void) { return hp(); }\n",
    )
    d = program_of(
        "d.c",
        "extern int *ap;\nint **dpp = &ap;\nint main(void) { return **dpp; }\n",
    )
    return a, b, c, d


class TestAssociativity:
    def test_merge_orders_agree_with_flat(self):
        """Flat, balanced, left-deep and exported-then-relinked merge
        shapes produce the same named canonical solution (open mode)."""
        a, b, c, d = four_tus()
        flat = link_programs([a, b, c, d], LinkOptions())
        ab = link_programs([a, b], LinkOptions())
        cd = link_programs([c, d], LinkOptions())
        balanced = link_programs([ab.program, cd.program], LinkOptions())
        abc = link_programs([ab.program, c], LinkOptions())
        left_deep = link_programs([abc.program, d], LinkOptions())
        relinked = link_programs([reparsed(ab), c, d], LinkOptions())
        oracle = named_json(flat.program)
        assert named_json(balanced.program) == oracle
        assert named_json(left_deep.program) == oracle
        assert named_json(relinked.program) == oracle

    def test_internalize_at_root_only_matches_flat(self):
        a, b, c, d = four_tus()
        options = LinkOptions(internalize=True, keep=("main",))
        flat = link_programs([a, b, c, d], options)
        ab = link_programs([a, b], LinkOptions())
        cd = link_programs([c, d], LinkOptions())
        staged = link_programs([ab.program, cd.program], options)
        relinked = link_programs([reparsed(ab), c, d], options)
        oracle = named_json(flat.program)
        assert named_json(staged.program) == oracle
        assert named_json(relinked.program) == oracle

    def test_interior_internalize_is_unsound(self):
        """Internalizing at an interior node hides ``helper`` and
        ``ap`` from the other half of the tree — the staged result
        diverges from the flat link (which is why a partial link must
        stay open)."""
        a, b, c, d = four_tus()
        options = LinkOptions(internalize=True, keep=("main",))
        flat = link_programs([a, b, c, d], options)
        ab_closed = link_programs([a, b], options)  # wrong: not the root
        cd = link_programs([c, d], LinkOptions())
        staged = link_programs([ab_closed.program, cd.program], options)
        assert named_json(staged.program) != named_json(flat.program)


class TestDiagnosticsThroughMergeLevels:
    def test_duplicate_definition_surfaces_at_second_level(self):
        a = program_of("a.c", "int shared;\n")
        b = program_of("b.c", "int bval;\n")
        c = program_of("c.c", "int shared;\n")
        d = program_of("d.c", "int dval;\n")
        ab = link_programs([a, b], LinkOptions())
        cd = link_programs([c, d], LinkOptions())
        with pytest.raises(LinkError) as exc:
            link_programs([ab.program, cd.program], LinkOptions())
        (message,) = exc.value.errors
        assert "duplicate definition of symbol 'shared'" in message
        assert "linked(a.c+b.c)" in message
        assert "linked(c.c+d.c)" in message

    def test_kind_mismatch_surfaces_at_second_level(self):
        a = program_of("a.c", "int f(void) { return 0; }\n")
        b = program_of("b.c", "int bval;\n")
        c = program_of("c.c", "extern int f;\nint g(void) { return f; }\n")
        d = program_of("d.c", "int dval;\n")
        ab = link_programs([a, b], LinkOptions())
        cd = link_programs([c, d], LinkOptions())
        with pytest.raises(LinkError) as exc:
            link_programs([ab.program, cd.program], LinkOptions())
        (message,) = exc.value.errors
        assert "kind mismatch" in message and "'f'" in message

    def test_unprototyped_decl_does_not_launder_type_conflict(self):
        """The joint symbol table keeps the most specific type among
        unresolved occurrences: after merging an unprototyped ``g()``
        declaration with a prototyped one, a later merge against a
        conflicting definition must still raise."""
        a = program_of("a.c", "int g();\nint ua(void) { return g(); }\n")
        b = program_of(
            "b.c", "int g(int *p);\nint ub(int *q) { return g(q); }\n"
        )
        ab = link_programs([a, b], LinkOptions())
        joint = ab.program.symbols["g"]
        assert "..." not in joint.type_key  # prototyped key survived
        conflicting = program_of("c.c", "int g(double d) { return (int)d; }\n")
        with pytest.raises(LinkError) as exc:
            link_programs([ab.program, conflicting], LinkOptions())
        (message,) = exc.value.errors
        assert "type mismatch for symbol 'g'" in message

    def test_unprototyped_only_decl_still_links_loosely(self):
        """With no prototyped occurrence anywhere, the C89 leniency is
        preserved through merge levels."""
        a = program_of("a.c", "int g();\nint ua(void) { return g(); }\n")
        b = program_of("b.c", "int bval;\n")
        ab = link_programs([a, b], LinkOptions())
        assert "..." in ab.program.symbols["g"].type_key
        defining = program_of("c.c", "int g(double d) { return (int)d; }\n")
        linked = link_programs([ab.program, defining], LinkOptions())
        assert linked.program.symbols["g"].defined


class TestJointTableShape:
    def test_resolved_symbols_marked_defined(self):
        a, b, c, d = four_tus()
        ab = link_programs([a, b], LinkOptions())
        syms = ab.program.symbols
        assert syms["cell"].defined and syms["helper"].defined
        assert syms["cell"].linkage == "external"

    def test_unresolved_imports_stay_imports(self):
        _, b, c, _ = four_tus()
        bc = link_programs([b, c], LinkOptions())
        helper = bc.program.symbols["helper"]
        assert not helper.defined
        assert helper.linkage == "import"

    def test_escapes_recomputed_not_accumulated(self):
        """Linkage-seeded external accessibility is recomputed at every
        level: a symbol resolved at the second level is externally
        accessible there for linkage reasons only if still exported,
        not because a lower level once imported it."""
        a, b, c, d = four_tus()
        options = LinkOptions(internalize=True, keep=("main",))
        ab = link_programs([a, b], LinkOptions())
        cd = link_programs([c, d], LinkOptions())
        root = link_programs([ab.program, cd.program], options)
        resolution = root.resolutions["helper"]
        assert resolution.internalized
