"""Synthetic C corpus generator (the SPEC CPU2017 substitute).

The paper evaluates on 3659 C files from nine SPEC benchmarks and four
open-source programs (Table III).  Those sources are not redistributable
here, so this module generates *compilable, deterministic, pointer-heavy
C translation units* whose structural features match what drives the
paper's results: mixes of static/exported/imported symbols, pointer
chains, heap allocation, escaping pointers, indirect calls through
function pointers, linked structures, pointer/integer casts, and scalar
loads/stores over pointer-carrying memory.

Every file is generated from a :class:`FileSpec` (profile knobs + seed),
so the corpus is fully reproducible.  Profiles named after the paper's
Table III rows are defined in :data:`PROFILES`; their per-file size
distributions mirror the relative mean/max shapes of the table (scaled
down — the solver under test is pure Python).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class FileSpec:
    """Recipe for one synthetic translation unit."""

    name: str
    seed: int
    #: rough number of statements to emit across all functions
    size: int = 120
    n_structs: int = 2
    n_globals: int = 8
    n_functions: int = 6
    static_fraction: float = 0.4
    extern_call_rate: float = 0.12
    malloc_rate: float = 0.08
    cast_rate: float = 0.06
    fnptr_rate: float = 0.08
    escape_rate: float = 0.10
    loop_rate: float = 0.15
    #: number of extern declarations (the header surface of a real C
    #: file: every prototype is an imported, externally accessible
    #: symbol).  Defaults to tracking file size, like real headers do.
    n_imports: int = -1
    #: heavy-tail mode: dense webs of escaped pointer cells dereferenced
    #: through exported double pointers (the gdevp14.c-style pathology)
    pathological: bool = False

    # -- multi-TU program fields (defaults are all no-ops, so single-file
    # -- generation and its pinned rng sequences are byte-unchanged) ----
    #: name prefix making this unit's symbols program-unique (``u0_``)
    prefix: str = ""
    #: fixed (name, kind, static) function plan; empty = draw from rng
    function_plan: Tuple[Tuple[str, str, bool], ...] = ()
    #: exported ``int*`` globals this unit must define (cross-TU data)
    exported_ptr_globals: Tuple[str, ...] = ()
    #: sibling units' exported functions, declared extern and callable
    sibling_fns: Tuple[Tuple[str, str], ...] = ()
    #: sibling units' exported ``int*`` globals, declared extern
    sibling_ptr_globals: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Profile:
    """A Table III row: file count and size distribution."""

    name: str
    files: int
    mean_insts: int
    max_insts: int
    knobs: Dict[str, float] = field(default_factory=dict)


#: Table III rows.  ``files``/sizes are the paper's numbers; the suite
#: scales them down for Python-speed runs while preserving the relative
#: shapes between benchmarks.
PROFILES: Dict[str, Profile] = {
    p.name: p
    for p in [
        Profile("500.perlbench", 68, 22725, 165497, {"cast_rate": 0.10}),
        Profile("502.gcc", 372, 16244, 535524, {"fnptr_rate": 0.14}),
        Profile("505.mcf", 12, 1228, 4778, {"malloc_rate": 0.12}),
        Profile("507.cactuBSSN", 345, 5691, 123596, {"loop_rate": 0.25}),
        Profile("525.x264", 35, 10963, 87991, {"malloc_rate": 0.10}),
        Profile("526.blender", 996, 8600, 443034, {"escape_rate": 0.15}),
        Profile("538.imagick", 97, 11195, 154125, {"malloc_rate": 0.14}),
        Profile("544.nab", 20, 5741, 22276, {}),
        Profile("557.xz", 89, 1448, 18935, {"static_fraction": 0.6}),
        Profile("emacs-29.4", 143, 14085, 260284, {"fnptr_rate": 0.18}),
        Profile("gdb-15.2", 251, 5508, 101443, {"extern_call_rate": 0.2}),
        Profile("ghostscript-10.04", 1116, 7042, 441161, {"escape_rate": 0.2}),
        Profile("sendmail-8.18.1", 115, 3752, 39205, {"cast_rate": 0.12}),
    ]
}


# ----------------------------------------------------------------------
# Typed generation environment
# ----------------------------------------------------------------------


@dataclass
class Var:
    name: str
    kind: str  # 'int' | 'ptr' | 'pptr' | 'struct' | 'structp' | 'arr' | 'fnptr'
    struct: Optional[str] = None


class _FunctionBody:
    """Accumulates statements with correct indentation."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.depth = 1

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.depth + text)


class CFileGenerator:
    """Generates one deterministic C translation unit."""

    def __init__(self, spec: FileSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.structs: List[str] = []
        self.globals: List[Var] = []
        self.global_linkage: Dict[str, str] = {}
        self.functions: List[Tuple[str, str]] = []  # (name, signature kind)
        self.static_functions: List[str] = []
        self.imported_fns: List[str] = []
        self._counter = 0

    # ------------------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{self.spec.prefix}{prefix}{self._counter}"

    def generate(self) -> str:
        parts: List[str] = [self._prelude()]
        parts.append(self._struct_defs())
        parts.append(self._global_defs())
        parts.extend(self._function_defs())
        return "\n".join(p for p in parts if p)

    # ------------------------------------------------------------------

    def _prelude(self) -> str:
        lines = [
            f"/* synthetic corpus file {self.spec.name} (seed {self.spec.seed}) */",
            "extern void* malloc(unsigned long size);",
            "extern void free(void* ptr);",
            "extern void* memcpy(void* dst, const void* src, unsigned long n);",
            "extern int* ext_get_ptr(void);",
            "extern void ext_publish(int* p);",
            "extern int ext_compute(int v);",
            "extern int* ext_table[4];",
        ]
        # The include-header surface: a realistic C file declares far
        # more external symbols than it defines.  Every one of them is
        # externally accessible, which is precisely what makes Sol(Ω)
        # large and the explicit-Ω representation expensive.
        n_imports = self.spec.n_imports
        if n_imports < 0:
            n_imports = max(12, self.spec.size // 2)
        for i in range(n_imports):
            kind = self.rng.random()
            if kind < 0.55:
                self.imported_fns.append(f"api_fn{i}")
                lines.append(f"extern int api_fn{i}(int* arg);")
            elif kind < 0.8:
                self.imported_fns.append(f"api_vfn{i}")
                lines.append(f"extern void api_vfn{i}(void);")
            elif kind < 0.92:
                lines.append(f"extern int api_var{i};")
                self.globals.append(Var(f"api_var{i}", "int"))
            else:
                lines.append(f"extern int* api_pvar{i};")
                self.globals.append(Var(f"api_pvar{i}", "ptr"))
        # Cross-TU surface: sibling units' exported functions and shared
        # pointer globals.  Declared after the rng-drawn imports so the
        # draw sequence of a prefix-free spec is untouched.
        for name, kind in self.spec.sibling_fns:
            lines.append(f"extern {_signature(name, kind)};")
            self.functions.append((name, kind))
        for name in self.spec.sibling_ptr_globals:
            lines.append(f"extern int* {name};")
            self.globals.append(Var(name, "ptr"))
        return "\n".join(lines)

    def _struct_defs(self) -> str:
        out = []
        for i in range(self.spec.n_structs):
            name = f"{self.spec.prefix}node{i}"
            self.structs.append(name)
            out.append(
                f"struct {name} {{\n"
                f"    int value;\n"
                f"    struct {name}* next;\n"
                f"    int* payload;\n"
                f"}};"
            )
        return "\n".join(out)

    def _linkage(self) -> str:
        return (
            "static "
            if self.rng.random() < self.spec.static_fraction
            else ""
        )

    def _global_defs(self) -> str:
        rng = self.rng
        out = []
        # Shared pointer cells this unit exports to its siblings: the
        # cross-TU data edges of a multi-unit program.
        for name in self.spec.exported_ptr_globals:
            out.append(f"int* {name};")
            self.globals.append(Var(name, "ptr"))
            self.global_linkage[name] = "extern"
        if self.spec.pathological:
            # A field of escaped pointer cells plus exported hubs.
            n_cells = max(20, self.spec.size // 3)
            for i in range(n_cells):
                tname = self.fresh("t")
                out.append(f"int {tname};")
                self.globals.append(Var(tname, "int"))
                cname = self.fresh("cell")
                out.append(f"int* {cname} = &{tname};")
                self.globals.append(Var(cname, "ptr"))
            for i in range(max(2, self.spec.n_globals // 4)):
                hname = self.fresh("hub")
                out.append(f"int** {hname};")
                self.globals.append(Var(hname, "pptr"))
                self.global_linkage[hname] = "extern"
        for i in range(self.spec.n_globals):
            link = self._linkage()
            roll = rng.random()
            if roll < 0.35:
                name = self.fresh("g_int")
                out.append(f"{link}int {name} = {rng.randrange(100)};")
                self.globals.append(Var(name, "int"))
            elif roll < 0.60:
                name = self.fresh("g_ptr")
                target = self._pick_global("int")
                init = f" = &{target.name}" if target and not link else ""
                out.append(f"{link}int* {name}{init};")
                self.globals.append(Var(name, "ptr"))
            elif roll < 0.75:
                name = self.fresh("g_arr")
                out.append(f"{link}int {name}[{rng.randrange(4, 16)}];")
                self.globals.append(Var(name, "arr"))
            elif roll < 0.9 and self.structs:
                name = self.fresh("g_node")
                struct = rng.choice(self.structs)
                out.append(f"{link}struct {struct} {name};")
                self.globals.append(Var(name, "struct", struct))
            elif roll < 0.95:
                name = self.fresh("g_pp")
                out.append(f"{link}int** {name};")
                self.globals.append(Var(name, "pptr"))
            else:
                # Exported pointer table: the classic doubled-up-pointee
                # generator (every target escapes *and* stays explicit
                # in any solver without PIP).
                name = self.fresh("g_tab")
                ints = [g for g in self.globals if g.kind == "int"]
                n = rng.randrange(3, 8)
                inits = [
                    f"&{rng.choice(ints).name}" if ints else "0"
                    for _ in range(n)
                ]
                out.append(f"int* {name}[{n}] = {{{', '.join(inits)}}};")
                self.globals.append(Var(name, "ptrtab"))
                link = ""
            self.global_linkage[name] = "static" if link else "extern"
        return "\n".join(out)

    def _pick_global(self, kind: str) -> Optional[Var]:
        candidates = [g for g in self.globals if g.kind == kind]
        return self.rng.choice(candidates) if candidates else None

    # ------------------------------------------------------------------

    def _function_defs(self) -> List[str]:
        rng = self.rng
        specs = []
        if self.spec.function_plan:
            # Planned mode (multi-TU programs): names, kinds and the
            # static set are fixed by the program planner so sibling
            # units can import exactly the exported surface.
            for name, kind, static in self.spec.function_plan:
                if static:
                    self.static_functions.append(name)
                specs.append((name, kind, static))
                self.functions.append((name, kind))
        else:
            for i in range(self.spec.n_functions):
                name = f"{self.spec.prefix}fn{i}"
                static = rng.random() < self.spec.static_fraction
                if static:
                    self.static_functions.append(name)
                kind = rng.choice(
                    ["int(intp)", "ptr(intp)", "int(node)", "void(intp,int)"]
                )
                specs.append((name, kind, static))
                self.functions.append((name, kind))
        # Prototypes first so any function can call any other.
        protos = []
        for name, kind, static in specs:
            sig = _signature(name, kind, self.spec.prefix)
            protos.append(f"{'static ' if static else ''}{sig};")
        bodies = ["\n".join(protos)]
        per_fn = max(6, self.spec.size // max(1, len(specs)))
        for name, kind, static in specs:
            bodies.append(self._function(name, kind, static, per_fn))
        return bodies

    def _function(self, name: str, kind: str, static: bool, budget: int) -> str:
        rng = self.rng
        body = _FunctionBody()
        env: List[Var] = []
        struct = self.structs[0] if self.structs else None
        # Parameters become part of the environment.
        if kind == "int(intp)" or kind == "ptr(intp)":
            env.append(Var("ap", "ptr"))
        elif kind == "int(node)" and struct:
            env.append(Var("an", "structp", struct))
        elif kind == "void(intp,int)":
            env.append(Var("ap", "ptr"))
            env.append(Var("ai", "int"))
        # A few locals to start with.
        body.emit("int acc = 0;")
        env.append(Var("acc", "int"))
        local_int = self.fresh("v")
        body.emit(f"int {local_int} = 1;")
        env.append(Var(local_int, "int"))
        ptr = self.fresh("p")
        body.emit(f"int* {ptr} = &{local_int};")
        env.append(Var(ptr, "ptr"))
        if struct:
            node = self.fresh("n")
            body.emit(f"struct {struct} {node};")
            env.append(Var(node, "struct", struct))
            body.emit(f"{node}.next = 0;")
            body.emit(f"{node}.payload = {ptr};")

        for _ in range(budget):
            self._statement(body, env)

        # Return.
        if kind.startswith("int"):
            body.emit("return acc;")
        elif kind.startswith("ptr"):
            ptrs = [v for v in env if v.kind == "ptr"]
            body.emit(f"return {rng.choice(ptrs).name};" if ptrs else "return 0;")
        header = (
            f"{'static ' if static else ''}"
            f"{_signature(name, kind, self.spec.prefix)}"
        )
        return header + " {\n" + "\n".join(body.lines) + "\n}"

    # ------------------------------------------------------------------

    def _statement(self, body: _FunctionBody, env: List[Var]) -> None:
        rng = self.rng
        spec = self.spec
        ints = [v for v in env if v.kind == "int"]
        ptrs = [v for v in env if v.kind == "ptr"]
        pptrs = [v for v in env if v.kind == "pptr"] + [
            g for g in self.globals if g.kind == "pptr"
        ]
        structps = [v for v in env if v.kind == "structp"]
        structs = [v for v in env if v.kind == "struct"]
        arrs = [v for v in env if v.kind == "arr"]
        g_ints = [g for g in self.globals if g.kind == "int"]
        g_ptrs = [g for g in self.globals if g.kind == "ptr"]
        g_tabs = [g for g in self.globals if g.kind == "ptrtab"]

        if spec.pathological and pptrs and rng.random() < 0.45:
            # Concentrated hub traffic: dereferences through escaped
            # double pointers over a large field of escaped cells.
            pp = rng.choice(pptrs).name
            pool = ptrs + g_ptrs if g_ptrs else ptrs
            if pool:
                p = rng.choice(pool).name
                what = rng.random()
                if what < 0.3:
                    body.emit(f"{pp} = &{p};")
                elif what < 0.75:
                    body.emit(f"if ({pp}) *{pp} = {p};")
                else:
                    name = self.fresh("d")
                    body.emit(f"int* {name} = {pp} ? *{pp} : {p};")
                    env.append(Var(name, "ptr"))
                return

        roll = rng.random()
        if roll < spec.escape_rate and ptrs:
            # Escape traffic: pointers flow out of the module, and
            # unknown-origin pointers flow back in.
            p = rng.choice(ptrs).name
            what = rng.random()
            if what < 0.25 and g_ptrs:
                g = rng.choice(g_ptrs).name
                body.emit(f"{g} = {p};")  # store into (possibly exported) global
            elif what < 0.5 and g_ptrs:
                g = rng.choice(g_ptrs).name
                name = self.fresh("d")
                body.emit(f"int* {name} = {g};")  # derive from escaped global
                env.append(Var(name, "ptr"))
            elif what < 0.6:
                body.emit(f"ext_publish({p});")
            elif what < 0.75 and g_tabs:
                tab = rng.choice(g_tabs).name
                if rng.random() < 0.5:
                    name = self.fresh("d")
                    body.emit(f"int* {name} = {tab}[{rng.randrange(3)}];")
                    env.append(Var(name, "ptr"))
                else:
                    body.emit(f"{tab}[{rng.randrange(3)}] = {p};")
            elif what < 0.85:
                name = self.fresh("d")
                body.emit(f"int* {name} = ext_table[{rng.randrange(4)}];")
                env.append(Var(name, "ptr"))
            else:
                name = self.fresh("d")
                src = rng.choice(ptrs).name
                body.emit(f"int* {name} = {src};")  # copy chain
                env.append(Var(name, "ptr"))
        elif roll < spec.escape_rate + spec.malloc_rate:
            name = self.fresh("h")
            body.emit(f"int* {name} = malloc(sizeof(int) * {rng.randrange(1, 8)});")
            env.append(Var(name, "ptr"))
            if rng.random() < 0.5 and ints:
                body.emit(f"if ({name}) *{name} = {rng.choice(ints).name};")
        elif roll < spec.escape_rate + spec.malloc_rate + spec.extern_call_rate:
            choice = rng.random()
            if choice < 0.4 and ptrs:
                body.emit(f"ext_publish({rng.choice(ptrs).name});")
            elif choice < 0.7:
                name = self.fresh("e")
                body.emit(f"int* {name} = ext_get_ptr();")
                env.append(Var(name, "ptr"))
            elif choice < 0.85 and self.imported_fns and ptrs:
                fn = rng.choice(self.imported_fns)
                if fn.startswith("api_fn"):
                    body.emit(f"acc += {fn}({rng.choice(ptrs).name});")
                else:
                    body.emit(f"{fn}();")
            else:
                body.emit(
                    f"acc += ext_compute({rng.choice(ints).name if ints else '1'});"
                )
        elif roll < (
            spec.escape_rate + spec.malloc_rate + spec.extern_call_rate
            + spec.cast_rate
        ):
            if ptrs and rng.random() < 0.5:
                name = self.fresh("addr")
                src = rng.choice(ptrs).name
                body.emit(f"unsigned long {name} = (unsigned long){src};")
                back = self.fresh("rp")
                body.emit(f"int* {back} = (int*)({name} + 0);")
                env.append(Var(back, "ptr"))
            elif ptrs:
                name = self.fresh("cp")
                body.emit(f"char* {name} = (char*){rng.choice(ptrs).name};")
                body.emit(f"if ({name}) acc += *{name};")  # scalar smuggling load
        elif roll < (
            spec.escape_rate + spec.malloc_rate + spec.extern_call_rate
            + spec.cast_rate + spec.fnptr_rate
        ) and self.functions:
            fname, fkind = rng.choice(self.functions)
            if fkind == "int(intp)" and ptrs:
                fp = self.fresh("fp")
                body.emit(f"int (*{fp})(int*) = {fname};")
                body.emit(f"acc += {fp}({rng.choice(ptrs).name});")
            elif fkind == "ptr(intp)" and ptrs:
                name = self.fresh("r")
                body.emit(f"int* {name} = {fname}({rng.choice(ptrs).name});")
                env.append(Var(name, "ptr"))
        elif roll < 0.5 and ptrs and ints:
            # Plain pointer traffic.
            p = rng.choice(ptrs).name
            what = rng.random()
            if what < 0.3:
                body.emit(f"*{p} = {rng.choice(ints).name};")
            elif what < 0.5:
                body.emit(f"acc += *{p};")
            elif what < 0.7 and len(ptrs) >= 2:
                q = rng.choice(ptrs).name
                body.emit(f"{p} = {q};")
            elif what < 0.85:
                body.emit(f"{p} = &{rng.choice(ints).name};")
            elif g_ptrs:
                g = rng.choice(g_ptrs).name
                body.emit(f"{g} = {p};")
        elif roll < 0.6 and pptrs and ptrs:
            pp = rng.choice(pptrs).name
            cell_pool = ptrs + (g_ptrs if self.spec.pathological else [])
            p = rng.choice(cell_pool).name
            what = rng.random()
            if what < 0.35:
                body.emit(f"{pp} = &{p};")
            elif what < 0.7:
                body.emit(f"if ({pp}) *{pp} = {p};")
            else:
                name = self.fresh("d")
                body.emit(f"int* {name} = {pp} ? *{pp} : {p};")
                env.append(Var(name, "ptr"))
        elif roll < 0.68 and structps:
            sp = rng.choice(structps)
            what = rng.random()
            if what < 0.3 and ptrs:
                body.emit(f"if ({sp.name}) {sp.name}->payload = {rng.choice(ptrs).name};")
            elif what < 0.6:
                body.emit(f"if ({sp.name}) acc += {sp.name}->value;")
            elif structs and structs[0].struct == sp.struct:
                body.emit(f"{sp.name} = &{structs[0].name};")
            else:
                body.emit(f"if ({sp.name}) {sp.name} = {sp.name}->next;")
        elif roll < 0.74 and structs:
            s = rng.choice(structs)
            name = self.fresh("sp")
            body.emit(f"struct {s.struct}* {name} = &{s.name};")
            env.append(Var(name, "structp", s.struct))
        elif roll < 0.74 + spec.loop_rate and ints:
            self._loop(body, env)
        elif roll < 0.93 and arrs:
            a = rng.choice(arrs).name
            i = rng.choice(ints).name if ints else "0"
            if rng.random() < 0.5:
                body.emit(f"{a}[{rng.randrange(4)}] = acc;")
            else:
                name = self.fresh("ep")
                body.emit(f"int* {name} = &{a}[{rng.randrange(4)}];")
                env.append(Var(name, "ptr"))
        elif g_ints:
            g = rng.choice(g_ints).name
            body.emit(f"{g} += acc + {rng.randrange(10)};")
        else:
            body.emit(f"acc += {rng.randrange(100)};")

    def _loop(self, body: _FunctionBody, env: List[Var]) -> None:
        rng = self.rng
        i = self.fresh("i")
        bound = rng.randrange(2, 10)
        body.emit(f"for (int {i} = 0; {i} < {bound}; {i}++) {{")
        body.depth += 1
        mark = len(env)  # declarations inside the loop go out of scope
        inner = max(1, rng.randrange(1, 4))
        for _ in range(inner):
            self._statement(body, env)
        del env[mark:]
        body.depth -= 1
        body.emit("}")


def _signature(name: str, kind: str, prefix: str = "") -> str:
    return {
        "int(intp)": f"int {name}(int* ap)",
        "ptr(intp)": f"int* {name}(int* ap)",
        "int(node)": f"int {name}(struct {prefix}node0* an)",
        "void(intp,int)": f"void {name}(int* ap, int ai)",
    }[kind]


def generate_c_source(spec: FileSpec) -> str:
    """Generate the C text for one file spec."""
    return CFileGenerator(spec).generate()


# ----------------------------------------------------------------------
# Multi-TU programs (the cross-TU link workload)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ProgramSpec:
    """Recipe for one deterministic multi-translation-unit program.

    Every unit gets a distinct symbol prefix (``u0_``, ``u1_``, …), so
    concatenating all unit sources into one file is valid C with the
    same meaning — the oracle the link-vs-concatenation tests compare
    against.  Units are wired together by a planner: each exports
    functions and pointer globals, and imports a deterministic subset of
    its siblings' exports (cross-file call and data edges).  A
    controlled fraction of functions is ``static`` so link-stage
    de-escaping has internal symbols to keep private.
    """

    name: str
    seed: int
    n_units: int = 4
    unit_size: int = 50
    n_functions: int = 5
    n_globals: int = 6
    static_fraction: float = 0.4
    #: exported ``int*`` cells per unit, imported by every sibling
    n_shared_ptr_globals: int = 2
    #: sibling functions each unit imports (at most)
    max_sibling_fns: int = 4
    #: header-surface externs per unit (shared, unprefixed api_/ext_)
    n_imports: int = 8


_CALLABLE_KINDS = ("int(intp)", "ptr(intp)")


def plan_program(spec: ProgramSpec) -> List[FileSpec]:
    """Per-unit file specs with a consistent cross-TU import plan."""
    # zlib.crc32 for the same reason as specs_for_profile: reproducible
    # under randomised str hashing.
    rng = random.Random(
        (spec.seed << 16) ^ (zlib.crc32(spec.name.encode()) & 0xFFFF)
    )
    plans: List[Tuple[str, Tuple[Tuple[str, str, bool], ...], Tuple[str, ...]]] = []
    for i in range(spec.n_units):
        prefix = f"u{i}_"
        functions = []
        for j in range(spec.n_functions):
            kind = rng.choice(
                ["int(intp)", "ptr(intp)", "int(node)", "void(intp,int)"]
            )
            static = rng.random() < spec.static_fraction
            functions.append((f"{prefix}fn{j}", kind, static))
        if not any(not static for _, _, static in functions):
            # Guarantee at least one exported function per unit so the
            # sibling-import plan always has edges to draw.
            name, kind, _ = functions[0]
            functions[0] = (name, kind, False)
        exported_ptrs = tuple(
            f"{prefix}share{k}" for k in range(spec.n_shared_ptr_globals)
        )
        plans.append((prefix, tuple(functions), exported_ptrs))

    specs: List[FileSpec] = []
    for i, (prefix, functions, exported_ptrs) in enumerate(plans):
        candidates = [
            (name, kind)
            for j, (_, sibling_functions, _) in enumerate(plans)
            if j != i
            for name, kind, static in sibling_functions
            if not static and kind in _CALLABLE_KINDS
        ]
        n_pick = min(len(candidates), spec.max_sibling_fns)
        sibling_fns = tuple(rng.sample(candidates, n_pick)) if n_pick else ()
        sibling_ptrs = tuple(
            name
            for j, (_, _, sibling_exported) in enumerate(plans)
            if j != i
            for name in sibling_exported
        )
        specs.append(
            FileSpec(
                name=f"{spec.name}/unit{i}.c",
                seed=rng.randrange(1 << 30),
                size=spec.unit_size,
                n_globals=spec.n_globals,
                n_functions=spec.n_functions,
                static_fraction=spec.static_fraction,
                n_imports=spec.n_imports,
                prefix=prefix,
                function_plan=functions,
                exported_ptr_globals=exported_ptrs,
                sibling_fns=sibling_fns,
                sibling_ptr_globals=sibling_ptrs,
            )
        )
    return specs


def concatenate_program(unit_specs: List[FileSpec]) -> str:
    """The single-file equivalent of a multi-TU program.

    Valid C by construction: unit symbols are prefix-unique (including
    statics and struct tags), repeated identical extern declarations are
    legal, and every unit declares its cross-TU imports before use.
    """
    return "\n".join(generate_c_source(spec) for spec in unit_specs)


def _scaled_file_count(profile: Profile, files_scale: float, min_files: int) -> int:
    """Files at one scale; ``files_scale=1.0`` is *exactly* the Table
    III count — no float rounding, no ``min_files`` clamp — so a
    full-scale corpus pins the paper's shape by construction."""
    if files_scale == 1.0:
        return profile.files
    return max(min_files, round(profile.files * files_scale))


def _scaled_size_cap(profile: Profile, size_scale: float, mean_size: int) -> int:
    """The instruction-tail cap at one scale; exact at ``size_scale=1.0``."""
    if size_scale == 1.0:
        return profile.max_insts
    return max(mean_size + 1, round(profile.max_insts * size_scale))


def specs_for_profile(
    profile: Profile,
    files_scale: float = 0.01,
    size_scale: float = 0.02,
    min_files: int = 2,
    seed: int = 0,
) -> List[FileSpec]:
    """File specs for one Table III profile, scaled for Python speed.

    File sizes are drawn from a lognormal-flavoured distribution whose
    mean tracks ``profile.mean_insts * size_scale`` and whose tail is
    capped at ``profile.max_insts * size_scale`` — preserving each
    benchmark's relative shape from Table III.  At ``files_scale=1.0``
    the file count is exactly ``profile.files`` and at ``size_scale=1.0``
    the tail cap is exactly ``profile.max_insts`` (the scale-1
    reproduction contract; see :func:`_scaled_file_count`).
    """
    # zlib.crc32, not hash(): str hashing is randomised per process and
    # would silently make the "deterministic" corpus irreproducible.
    rng = random.Random((seed << 16) ^ (zlib.crc32(profile.name.encode()) & 0xFFFF))
    n_files = _scaled_file_count(profile, files_scale, min_files)
    mean_size = max(8, round(profile.mean_insts * size_scale))
    max_size = _scaled_size_cap(profile, size_scale, mean_size)
    specs = []
    for i in range(n_files):
        # Heavy-tailed sizes: Table III's Max columns are 10-60× the
        # means, and the paper's total-runtime comparisons are dominated
        # by those outliers.
        mu = rng.lognormvariate(-0.3, 1.25)
        size = min(max_size, max(4, round(mean_size * mu)))
        knobs = dict(profile.knobs)
        # Heavy tail: a small fraction of files develop the dense
        # escaped-pointer webs that dominate the paper's Max columns.
        if rng.random() < 0.10 and size >= mean_size:
            knobs["pathological"] = True
            knobs["escape_rate"] = max(0.25, knobs.get("escape_rate", 0.10))
        specs.append(
            replace(
                FileSpec(
                    name=f"{profile.name}/file{i:03d}.c",
                    seed=rng.randrange(1 << 30),
                    size=size,
                    n_functions=max(2, min(12, size // 12)),
                    n_globals=max(4, min(16, size // 10)),
                ),
                **knobs,
            )
        )
    return specs


def plan_profile_program(
    profile: Profile,
    files_scale: float = 0.01,
    size_scale: float = 0.02,
    min_files: int = 2,
    seed: int = 0,
    max_sibling_fns: int = 3,
    max_sibling_ptrs: int = 4,
    n_shared_ptr_globals: int = 2,
) -> List[FileSpec]:
    """A *linkable* profile-shaped corpus: one whole program, many TUs.

    :func:`specs_for_profile` generates standalone files whose exported
    symbols collide across files (each is meant to be analysed alone).
    This planner gives every unit a distinct prefix and wires units
    together like :func:`plan_program` — exported functions, shared
    pointer cells, cross-unit imports — but with **bounded** sibling
    sampling (at most ``max_sibling_fns`` call edges and
    ``max_sibling_ptrs`` data edges per unit) instead of the all-to-all
    wiring, so a full-scale corpus (``files_scale=1.0``, thousands of
    TUs) stays O(N) in total extern surface rather than O(N²).

    Sizes follow the profile distribution exactly like
    :func:`specs_for_profile`, including the exact scale-1 file count
    and instruction-tail cap and the pathological heavy tail.
    """
    rng = random.Random(
        (seed << 16) ^ (zlib.crc32((profile.name + "/prog").encode()) & 0xFFFF)
    )
    n_files = _scaled_file_count(profile, files_scale, min_files)
    mean_size = max(8, round(profile.mean_insts * size_scale))
    max_size = _scaled_size_cap(profile, size_scale, mean_size)

    static_fraction = float(
        profile.knobs.get("static_fraction", FileSpec.static_fraction)
    )
    plans: List[Tuple[str, Tuple[Tuple[str, str, bool], ...], Tuple[str, ...], int]] = []
    for i in range(n_files):
        prefix = f"u{i}_"
        mu = rng.lognormvariate(-0.3, 1.25)
        size = min(max_size, max(4, round(mean_size * mu)))
        n_functions = max(2, min(12, size // 12))
        functions = []
        for j in range(n_functions):
            kind = rng.choice(
                ["int(intp)", "ptr(intp)", "int(node)", "void(intp,int)"]
            )
            static = rng.random() < static_fraction
            functions.append((f"{prefix}fn{j}", kind, static))
        if not any(not static for _, _, static in functions):
            name, kind, _ = functions[0]
            functions[0] = (name, kind, False)
        exported_ptrs = tuple(
            f"{prefix}share{k}" for k in range(n_shared_ptr_globals)
        )
        plans.append((prefix, tuple(functions), exported_ptrs, size))

    specs: List[FileSpec] = []
    for i, (prefix, functions, exported_ptrs, size) in enumerate(plans):
        # Bounded sibling sampling: draw up to max_sibling_fns exported
        # callable functions and max_sibling_ptrs shared cells from a
        # few *nearby* units — locality keeps the draw O(1) per unit at
        # any corpus size.
        seen: List[int] = []
        for d in range(1, min(8, n_files)):
            for j in ((i + d) % n_files, (i - d) % n_files):
                if j != i and j not in seen:
                    seen.append(j)
        fn_candidates = [
            (name, kind)
            for j in seen
            for name, kind, static in plans[j][1]
            if not static and kind in _CALLABLE_KINDS
        ]
        n_fns = min(len(fn_candidates), max_sibling_fns)
        sibling_fns = tuple(rng.sample(fn_candidates, n_fns)) if n_fns else ()
        ptr_candidates = [name for j in seen for name in plans[j][2]]
        n_ptrs = min(len(ptr_candidates), max_sibling_ptrs)
        sibling_ptrs = (
            tuple(rng.sample(ptr_candidates, n_ptrs)) if n_ptrs else ()
        )
        knobs = dict(profile.knobs)
        if rng.random() < 0.10 and size >= mean_size:
            knobs["pathological"] = True
            knobs["escape_rate"] = max(0.25, knobs.get("escape_rate", 0.10))
        specs.append(
            replace(
                FileSpec(
                    name=f"{profile.name}/unit{i:04d}.c",
                    seed=rng.randrange(1 << 30),
                    size=size,
                    n_functions=len(functions),
                    n_globals=max(4, min(16, size // 10)),
                    prefix=prefix,
                    function_plan=functions,
                    exported_ptr_globals=exported_ptrs,
                    sibling_fns=sibling_fns,
                    sibling_ptr_globals=sibling_ptrs,
                ),
                **knobs,
            )
        )
    return specs
