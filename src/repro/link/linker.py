"""The cross-TU constraint linker.

:func:`link_programs` merges per-TU constraint programs (paper phase-1
artifacts) into one joint program, in three steps:

1. **Symbol resolution.**  Non-``internal`` symbols are grouped by name.
   At most one occurrence may be a definition (two strong definitions is
   a link error naming both modules); declarations whose printed type
   conflicts with the definition's are rejected the same way.
   Unprototyped declarations (``i32(...)``) are compatible with any
   definition, like a C89 implicit declaration.

2. **Renumbering.**  Programs are processed in link order; every
   variable gets a dense joint index at its first occurrence, and later
   occurrences of a *resolved symbol* map onto the representative
   created by the first.  The per-module original→joint maps are kept on
   the result (:attr:`LinkedProgram.var_maps`) so per-TU solutions can
   be compared against the joint one.  Because the first member's
   variables are renumbered identically regardless of what follows, a
   TU-prefix ladder observes the same joint indexes for TU₀ at every
   rung.

3. **De-escaping.**  Semantic flags (escapes observed in data flow) are
   OR-merged and are untouchable.  Linkage-seeded escapes are discarded
   and *recomputed* for the joint unit: an import satisfied by a member
   definition no longer feeds Ω by itself, and ``ImpFunc`` survives only
   on still-unresolved functions.  Exported definitions stay externally
   accessible (the linked unit is still an incomplete program) unless
   :attr:`LinkOptions.internalize` hides them.

Monotonicity: ``ImpFunc``/Ω over-approximate *any* possible external
code, including the member TUs themselves, so replacing the implicit
model of a TU with its real constraints can only shrink the solution —
|Ω| and every concretized Sol set are non-increasing along any TU-prefix
chain (the Hypothesis property suite checks exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..analysis.constraints import (
    EMPTY_LIST_ROW,
    EMPTY_SET_ROW,
    CallConstraint,
    ConstraintProgram,
    FuncConstraint,
    ProgramSymbol,
    writable_list,
    writable_set,
)
from ..obs import Registry, scope as _obs_scope


class LinkError(Exception):
    """Symbol-resolution failure; ``errors`` lists every violation."""

    def __init__(self, errors: List[str]):
        self.errors = errors
        super().__init__("\n".join(errors))


@dataclass(frozen=True)
class LinkOptions:
    """Link-time policy knobs.

    ``internalize=False`` (the default) keeps concatenation semantics:
    exported definitions remain externally accessible, exactly as if the
    member sources had been pasted into one file — the sound, monotone
    mode the prefix ladder uses.  ``internalize=True`` treats the link
    set as the whole program (LTO-style): exported definitions outside
    ``keep`` lose their linkage escape.  Only sound when the link set
    really is closed, so it is never applied to prefixes.
    """

    internalize: bool = False
    keep: Tuple[str, ...] = ("main",)

    @property
    def cache_key(self) -> str:
        if not self.internalize:
            return "open"
        return "internalize:" + ",".join(sorted(self.keep))

    def to_dict(self) -> Dict:
        return {"internalize": self.internalize, "keep": sorted(self.keep)}

    @classmethod
    def from_dict(cls, data: Dict) -> "LinkOptions":
        return cls(
            internalize=bool(data["internalize"]), keep=tuple(data["keep"])
        )


@dataclass
class SymbolResolution:
    """Link-time fate of one non-internal symbol name."""

    name: str
    kind: str  # "func" | "data"
    var: int  # joint constraint variable
    defined_in: Optional[str]  # member module name, None if unresolved
    referenced_by: List[str]  # member modules that only declare it
    internalized: bool = False

    @property
    def resolved(self) -> bool:
        return self.defined_in is not None

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "var": self.var,
            "defined_in": self.defined_in,
            "referenced_by": list(self.referenced_by),
            "internalized": self.internalized,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SymbolResolution":
        return cls(
            name=data["name"],
            kind=data["kind"],
            var=int(data["var"]),
            defined_in=data["defined_in"],
            referenced_by=list(data["referenced_by"]),
            internalized=bool(data["internalized"]),
        )


@dataclass
class LinkedProgram:
    """A joint constraint program plus link provenance."""

    program: ConstraintProgram
    options: LinkOptions
    members: List[str]  # module names in link order
    #: per member module: original variable index → joint index
    var_maps: Dict[str, List[int]]
    #: per non-internal symbol name, its link-time resolution
    resolutions: Dict[str, SymbolResolution]
    _summary: Optional[Dict[str, int]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------

    def member_vars(self, member: str) -> List[int]:
        """Joint indexes of one member's variables (its image)."""
        return self.var_maps[member]

    def resolved_imports(self) -> List[str]:
        """Names that some member imports and another member defines."""
        return sorted(
            name
            for name, res in self.resolutions.items()
            if res.resolved and res.referenced_by
        )

    def unresolved_imports(self) -> List[str]:
        """Names no member defines (still satisfied only by Ω)."""
        return sorted(
            name for name, res in self.resolutions.items() if not res.resolved
        )

    def summary(self) -> Dict[str, int]:
        """Member, variable, constraint and symbol counts.  Computed on
        the first call and kept (a linked program is never edited):
        every served ``open``, ``update`` and ``status`` reports it."""
        if self._summary is None:
            self._summary = {
                "members": len(self.members),
                "joint_vars": self.program.num_vars,
                "joint_constraints": self.program.num_constraints(),
                "symbols": len(self.resolutions),
                "resolved_imports": len(self.resolved_imports()),
                "unresolved_imports": len(self.unresolved_imports()),
            }
        return dict(self._summary)

    # ------------------------------------------------------------------
    # Canonical serialisation (pipeline stage cache)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "program": self.program.to_dict(),
            "options": self.options.to_dict(),
            "members": list(self.members),
            "var_maps": {m: list(v) for m, v in self.var_maps.items()},
            "resolutions": [
                self.resolutions[name].to_dict()
                for name in sorted(self.resolutions)
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LinkedProgram":
        var_maps = data["var_maps"]
        if not isinstance(var_maps, dict):
            raise ValueError("var_maps is not a mapping")
        return cls(
            program=ConstraintProgram.from_dict(data["program"]),
            options=LinkOptions.from_dict(data["options"]),
            members=list(data["members"]),
            var_maps={m: list(v) for m, v in var_maps.items()},
            resolutions={
                r["name"]: SymbolResolution.from_dict(r)
                for r in data["resolutions"]
            },
        )


# ----------------------------------------------------------------------


def _types_conflict(def_key: str, decl_key: str) -> bool:
    """A declaration conflicts with the definition it resolves to unless
    the printed types match or the declaration is unprototyped (C89
    implicit / empty parameter list, printed with ``...``)."""
    return def_key != decl_key and "..." not in decl_key


def resolve_symbols(
    programs: Sequence[ConstraintProgram],
) -> Dict[str, List[Tuple[ConstraintProgram, ProgramSymbol]]]:
    """Group non-internal symbols by name, validating resolution rules.

    Raises :class:`LinkError` on duplicate strong definitions or
    def/decl type conflicts; each message names both offending modules.
    """
    occurrences: Dict[str, List[Tuple[ConstraintProgram, ProgramSymbol]]] = {}
    for program in programs:
        for sym in program.symbols.values():
            if sym.linkage == "internal":
                continue
            occurrences.setdefault(sym.name, []).append((program, sym))

    errors: List[str] = []
    for name in sorted(occurrences):
        occs = occurrences[name]
        defined = [(p, s) for p, s in occs if s.defined]
        if len(defined) > 1:
            mods = " and ".join(f"'{p.name}'" for p, _ in defined[:2])
            errors.append(
                f"duplicate definition of symbol '{name}' in modules {mods}"
            )
            continue
        if not defined:
            continue
        def_program, def_sym = defined[0]
        for program, sym in occs:
            if sym.defined:
                continue
            if sym.kind != def_sym.kind:
                errors.append(
                    f"symbol kind mismatch for '{name}': {def_sym.kind}"
                    f" definition in module '{def_program.name}',"
                    f" {sym.kind} declaration in module '{program.name}'"
                )
            elif _types_conflict(def_sym.type_key, sym.type_key):
                errors.append(
                    f"type mismatch for symbol '{name}': defined as"
                    f" {def_sym.type_key} in module '{def_program.name}',"
                    f" declared as {sym.type_key} in module '{program.name}'"
                )
    if errors:
        raise LinkError(errors)
    return occurrences


def _renumber(
    linked: ConstraintProgram,
    program: ConstraintProgram,
    rep: Dict[str, int],
) -> List[int]:
    """Append one member's variables to ``linked``; returns its
    original → joint map.

    A non-internal symbol whose name is already in ``rep`` maps onto
    that representative (widening its ``in_p``); every other variable
    gets the next joint index, in member order.  The runs of fresh
    variables between two merged ones are appended with whole-list
    operations, so the per-variable work is one map entry.
    """
    n = program.num_vars
    sym_by_var = {
        s.var: s for s in program.symbols.values() if s.linkage != "internal"
    }
    merged = sorted(v for v, s in sym_by_var.items() if s.name in rep)
    fresh = [v for v in sym_by_var if sym_by_var[v].name not in rep]
    mapping: List[int] = []
    runs: List[Tuple[int, int]] = []  # [lo, hi) runs of fresh variables
    start = linked.num_vars
    lo = 0
    for v in merged + [n]:
        if v > lo:
            mapping.extend(range(start, start + v - lo))
            start += v - lo
            runs.append((lo, v))
        if v < n:
            j = rep[sym_by_var[v].name]
            # Classification must agree across occurrences; tolerate a
            # pointer-compatible occurrence widening the joint var.
            if program.in_p[v]:
                linked.in_p[j] = True
            mapping.append(j)
        lo = v + 1
    for lo, hi in runs:
        linked.var_names.extend(program.var_names[lo:hi])
        linked.in_p.extend(program.in_p[lo:hi])
        linked.in_m.extend(program.in_m[lo:hi])
    added = start - len(linked.base)
    linked.base.extend([EMPTY_SET_ROW] * added)
    linked.simple_out.extend([EMPTY_SET_ROW] * added)
    linked.load_from.extend([EMPTY_LIST_ROW] * added)
    linked.store_into.extend([EMPTY_LIST_ROW] * added)
    cleared = [False] * added
    for flags in (
        linked.flag_ea,
        linked.flag_pte,
        linked.flag_pe,
        linked.flag_sscalar,
        linked.flag_lscalar,
        linked.flag_impfunc,
        linked.flag_extfunc,
        linked.flag_extcall,
    ):
        flags.extend(cleared)
    for v in fresh:
        rep[sym_by_var[v].name] = mapping[v]
    return mapping


def _copy_member(
    linked: ConstraintProgram, program: ConstraintProgram, m: List[int]
) -> None:
    """OR one member's constraints and semantic flags into ``linked``
    through its joint map ``m``, visiting only non-empty rows.  A row
    that holds only a self-edge once mapped stays the shared empty
    row."""
    mget = m.__getitem__
    n = program.num_vars
    for v in compress(range(n), program.base):
        writable_set(linked.base, m[v]).update(map(mget, program.base[v]))
    simple_out = linked.simple_out
    for v in compress(range(n), program.simple_out):
        j = m[v]
        out = writable_set(simple_out, j)
        out.update(map(mget, program.simple_out[v]))
        out.discard(j)
        if not out:
            simple_out[j] = EMPTY_SET_ROW
    for v in compress(range(n), program.load_from):
        writable_list(linked.load_from, m[v]).extend(
            map(mget, program.load_from[v])
        )
    for v in compress(range(n), program.store_into):
        writable_list(linked.store_into, m[v]).extend(
            map(mget, program.store_into[v])
        )
    for source, target in (
        (program.flag_pte, linked.flag_pte),
        (program.flag_pe, linked.flag_pe),
        (program.flag_sscalar, linked.flag_sscalar),
        (program.flag_lscalar, linked.flag_lscalar),
    ):
        for v in compress(range(n), source):
            target[m[v]] = True
    linkage_ea = program.linkage_ea
    for v in compress(range(n), program.flag_ea):
        if v not in linkage_ea:
            linked.mark_externally_accessible(m[v])  # semantic
    for fc in program.funcs:
        linked.add_func(
            m[fc.func],
            None if fc.ret is None else m[fc.ret],
            [None if a is None else m[a] for a in fc.args],
            variadic=fc.variadic,
        )
    for cc in program.calls:
        linked.add_call(
            m[cc.target],
            None if cc.ret is None else m[cc.ret],
            [None if a is None else m[a] for a in cc.args],
        )


def link_programs(
    programs: Sequence[ConstraintProgram],
    options: Optional[LinkOptions] = None,
    registry: Optional[Registry] = None,
) -> LinkedProgram:
    """Merge per-TU constraint programs into one joint program.

    ``registry`` (optional) receives ``link.*`` counters and one timer
    per pass (``link.resolve`` / ``link.renumber`` / ``link.copy`` /
    ``link.deescape``); profiling never changes the linked output.
    """
    options = options if options is not None else LinkOptions()
    programs = list(programs)
    if not programs:
        raise LinkError(["cannot link zero programs"])
    names = [p.name for p in programs]
    if len(set(names)) != len(names):
        raise LinkError([f"duplicate member module names: {names}"])
    for program in programs:
        if program.omega is not None:
            raise LinkError(
                [
                    f"module '{program.name}' is EP-lowered; link phase-1"
                    " (implicit-Ω) programs and lower the joint program"
                ]
            )

    with _obs_scope(registry, "link.resolve"):
        occurrences = resolve_symbols(programs)
    defined_in: Dict[str, str] = {}
    def_sym_of: Dict[str, ProgramSymbol] = {}
    for name, occs in occurrences.items():
        for program, sym in occs:
            if sym.defined:
                defined_in[name] = program.name
                def_sym_of[name] = sym

    linked = ConstraintProgram("linked(" + "+".join(names) + ")")

    # --- pass 1: renumber ---------------------------------------------
    rep: Dict[str, int] = {}  # symbol name → joint representative var
    var_maps: Dict[str, List[int]] = {}
    with _obs_scope(registry, "link.renumber"):
        for program in programs:
            var_maps[program.name] = _renumber(linked, program, rep)

    # --- pass 2: copy constraints and semantic flags ------------------
    with _obs_scope(registry, "link.copy"):
        for program in programs:
            _copy_member(linked, program, var_maps[program.name])

    # --- pass 3: de-escape (recompute linkage seeds) ------------------
    resolutions: Dict[str, SymbolResolution] = {}
    with _obs_scope(registry, "link.deescape"):
        for name in sorted(occurrences):
            occs = occurrences[name]
            j = rep[name]
            resolved = name in defined_in
            kind = occs[0][1].kind
            referenced_by = [p.name for p, s in occs if not s.defined]
            internalized = False
            if not resolved:
                # Still satisfied only by the external world.
                linked.mark_externally_accessible(j, linkage=True)
                if kind == "func" and any(
                    p.flag_impfunc[s.var] for p, s in occs
                ):
                    linked.mark_imported_function(j)
            elif options.internalize and name not in options.keep:
                internalized = True  # hidden: no linkage escape
            else:
                linked.mark_externally_accessible(j, linkage=True)
            resolutions[name] = SymbolResolution(
                name=name,
                kind=kind,
                var=j,
                defined_in=defined_in.get(name),
                referenced_by=referenced_by,
                internalized=internalized,
            )
            # Joint symbol table: the linked program is itself linkable.
            # For unresolved symbols the joint declaration keeps the most
            # specific (prototyped) type among the occurrences, so a later
            # staged merge against a definition still sees any conflict —
            # an unprototyped first occurrence must not launder a
            # conflicting prototyped one behind "...".
            def_sym = def_sym_of.get(name)
            if def_sym is not None:
                type_key = def_sym.type_key
            else:
                type_key = min(
                    (s.type_key for _, s in occs),
                    key=lambda k: ("..." in k, k),
                )
            linked.add_symbol(
                ProgramSymbol(
                    name=name,
                    var=j,
                    kind=kind,
                    linkage=(
                        "internal"
                        if internalized
                        else ("external" if resolved else "import")
                    ),
                    defined=resolved,
                    type_key=type_key,
                )
            )

    if registry is not None and registry.enabled:
        registry.add("link.links")
        registry.add("link.members", len(programs))
        registry.add("link.symbols", len(resolutions))
        registry.add("link.joint_vars", linked.num_vars)
        resolved_n = sum(
            1
            for res in resolutions.values()
            if res.resolved and res.referenced_by
        )
        unresolved_n = sum(
            1 for res in resolutions.values() if not res.resolved
        )
        registry.add("link.resolved_imports", resolved_n)
        registry.add("link.unresolved_imports", unresolved_n)

    return LinkedProgram(
        program=linked,
        options=options,
        members=names,
        var_maps=var_maps,
        resolutions=resolutions,
    )


# ----------------------------------------------------------------------
# Containment of a previous link (the served warm start)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Containment:
    """How a previous joint program sits inside a new one.

    When contained, ``var_map`` maps every previous joint variable to
    its new one (injectively) and ``queue`` lists the new joint
    variables a warm-started solve must visit; otherwise ``var_map`` is
    None and ``miss`` says why (``"member removed"``, ``"variable
    map"`` or ``"not contained"``).
    """

    var_map: Optional[List[int]]
    queue: List[int]
    miss: Optional[str] = None


def _missed(reason: str) -> Containment:
    return Containment(None, [], reason)


def _name_index(program: ConstraintProgram) -> Optional[Dict[str, int]]:
    """Variable name → index, or None when a name repeats."""
    index = {name: v for v, name in enumerate(program.var_names)}
    return index if len(index) == program.num_vars else None


def _rows_contained(
    program: ConstraintProgram, m: List[int], joint: ConstraintProgram
) -> bool:
    """Every row and flag ``program`` contributed through ``m`` is in
    ``joint`` (semantic escapes are checked with the joint ``ea``)."""
    mget = m.__getitem__
    rng = range(program.num_vars)
    for v in compress(rng, program.base):
        if not joint.base[m[v]].issuperset(map(mget, program.base[v])):
            return False
    for v in compress(rng, program.simple_out):
        j = m[v]
        row = set(map(mget, program.simple_out[v]))
        row.discard(j)
        if not row <= joint.simple_out[j]:
            return False
    for rows, joint_rows in (
        (program.load_from, joint.load_from),
        (program.store_into, joint.store_into),
    ):
        for v in compress(rng, rows):
            if not set(joint_rows[m[v]]).issuperset(map(mget, rows[v])):
                return False
    for flags, joint_flags in (
        (program.flag_pte, joint.flag_pte),
        (program.flag_pe, joint.flag_pe),
        (program.flag_sscalar, joint.flag_sscalar),
        (program.flag_lscalar, joint.flag_lscalar),
    ):
        if not all(joint_flags[m[v]] for v in compress(rng, flags)):
            return False
    return True


def _mapped_funcs(program: ConstraintProgram, m: List[int]) -> Set:
    return {
        FuncConstraint(
            m[fc.func],
            None if fc.ret is None else m[fc.ret],
            tuple(None if a is None else m[a] for a in fc.args),
            fc.variadic,
        )
        for fc in program.funcs
    }


def _mapped_calls(program: ConstraintProgram, m: List[int]) -> Set:
    return {
        CallConstraint(
            m[cc.target],
            None if cc.ret is None else m[cc.ret],
            tuple(None if a is None else m[a] for a in cc.args),
        )
        for cc in program.calls
    }


def _grown(
    old: ConstraintProgram,
    new: ConstraintProgram,
    inverse: List[int],
    candidates: Iterable[int],
) -> List[int]:
    """The mapped ``candidates`` whose rows or flags grew.  Containment
    holds, so a row grew exactly when it got longer."""
    grown = []
    for b in candidates:
        a = inverse[b]
        if a < 0:
            continue
        if (
            len(new.base[b]) != len(old.base[a])
            or len(new.simple_out[b]) != len(old.simple_out[a])
            or len(set(new.load_from[b])) != len(set(old.load_from[a]))
            or len(set(new.store_into[b])) != len(set(old.store_into[a]))
            or new.flag_pte[b] > old.flag_pte[a]
            or new.flag_pe[b] > old.flag_pe[a]
            or new.flag_sscalar[b] > old.flag_sscalar[a]
            or new.flag_lscalar[b] > old.flag_lscalar[a]
        ):
            grown.append(b)
    return grown


def contain(
    old: LinkedProgram,
    old_programs: Mapping[str, ConstraintProgram],
    new: LinkedProgram,
    new_programs: Mapping[str, ConstraintProgram],
) -> Containment:
    """Whether ``new``'s joint program contains ``old``'s, and how.

    ``*_programs`` map member names to the member programs each link
    was built from.  Every previous joint variable is mapped to a new
    one: a member whose program object is unchanged maps through its
    two ``var_maps`` entries, a rebuilt member by variable name within
    the member.  Containment then means that, under the map, every
    variable keeps ``in_p`` and ``in_m``, every previous ``base``,
    ``simple_out``, ``load_from`` and ``store_into`` row and every
    ``ea``, ``pte``, ``pe``, ``sscalar`` and ``lscalar`` flag is still
    there, every previous Func and Call constraint is still there,
    ``ImpFunc`` is unchanged and no previous variable gains a Func.

    An unchanged member's rows are contained by construction, so only
    the rebuilt members' rows are walked; the link-level facts (the
    joint ``in_p``/``in_m``, ``ea`` and ``ImpFunc``) are checked for
    every variable.  The queue is the new variables, the mapped ones
    whose rows or flags grew, and the targets of new Call constraints
    (internals §3).
    """
    if old.options != new.options:
        return _missed("not contained")
    if any(name not in new.var_maps for name in old.members):
        return _missed("member removed")
    before, after = old.program, new.program
    var_map = [-1] * before.num_vars
    rebuilt: List[str] = []
    for name in old.members:
        om, nm = old.var_maps[name], new.var_maps[name]
        program = old_programs[name]
        if program is new_programs[name]:
            pairs: Iterable[Tuple[int, int]] = zip(om, nm)
        else:
            index = _name_index(new_programs[name])
            if index is None or _name_index(program) is None:
                return _missed("variable map")
            try:
                pairs = [
                    (om[v], nm[index[var]])
                    for v, var in enumerate(program.var_names)
                ]
            except KeyError:
                return _missed("variable map")
            rebuilt.append(name)
        for a, b in pairs:
            c = var_map[a]
            if c != b:
                if c != -1:
                    return _missed("variable map")
                var_map[a] = b
    inverse = [-1] * after.num_vars
    for a, b in enumerate(var_map):
        if b < 0 or inverse[b] >= 0:
            return _missed("variable map")
        inverse[b] = a

    # Link-level facts, for every variable.
    if [after.in_p[b] for b in var_map] != before.in_p or [
        after.in_m[b] for b in var_map
    ] != before.in_m:
        return _missed("not contained")
    escaped = compress(range(before.num_vars), before.flag_ea)
    if not all(after.flag_ea[var_map[a]] for a in escaped):
        return _missed("not contained")
    imp_old = sum(before.flag_impfunc)
    imp_mapped = 0
    for b in compress(range(after.num_vars), after.flag_impfunc):
        a = inverse[b]
        if a >= 0:
            if not before.flag_impfunc[a]:
                return _missed("not contained")
            imp_mapped += 1
    if imp_mapped != imp_old:
        return _missed("not contained")

    # The rebuilt members' rows, Funcs and Calls.
    added = [name for name in new.members if name not in old.var_maps]
    old_funcs: Set = set()
    old_calls: Set = set()
    for name in rebuilt:
        program = old_programs[name]
        m = [var_map[a] for a in old.var_maps[name]]
        if not _rows_contained(program, m, after):
            return _missed("not contained")
        old_funcs |= _mapped_funcs(program, m)
        old_calls |= _mapped_calls(program, m)
    new_funcs: Set = set()
    new_calls: Set = set()
    candidates: Set[int] = set()
    for name in rebuilt + added:
        program, m = new_programs[name], new.var_maps[name]
        new_funcs |= _mapped_funcs(program, m)
        new_calls |= _mapped_calls(program, m)
        candidates.update(m)
    # A rebuilt member's constraint may now come from another member
    # (or have come from one before): only what the focused sets miss
    # is looked up in the whole joint program.
    if not old_funcs <= new_funcs and not old_funcs <= set(after.funcs):
        return _missed("not contained")
    if not old_calls <= new_calls and not old_calls <= set(after.calls):
        return _missed("not contained")
    gained_funcs = new_funcs - old_funcs
    if gained_funcs:
        gained_funcs -= _mapped_funcs(before, var_map)
        if any(inverse[fc.func] >= 0 for fc in gained_funcs):
            return _missed("not contained")
    gained_calls = new_calls - old_calls
    if gained_calls:
        gained_calls -= _mapped_calls(before, var_map)

    queue = {b for b in candidates if inverse[b] < 0}
    queue.update(_grown(before, after, inverse, sorted(candidates)))
    queue.update(cc.target for cc in gained_calls)
    return Containment(var_map, sorted(queue))
