"""The programs the soundness oracle runs.

``DIFFERENTIAL_PROGRAMS`` are the seven small programs the removed
flat-vs-RVSDG differential compared; with ``examples/corpus/hashtable.c``
and ``arena.c`` they are the nine whose facts ``rvsdg_facts.json``
freezes.
"""

from __future__ import annotations

import pathlib
from dataclasses import replace
from typing import List, Tuple

from repro.bench.corpus import PROFILES, FileSpec, generate_c_source

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "examples" / "corpus"

FIG1 = r"""
static int x, y;
int z;
extern int* getPtr(void);
int* p = &x;

void callMe(int* q) {
    int w;
    int* r = getPtr();
    if (r == 0)
        r = &w;
}
"""

DIFFERENTIAL_PROGRAMS = [
    FIG1,
    # locals, address-of, loops
    "int acc(int* a, int n) { int s = 0; int* p = &s;"
    " while (n) { *p += a[n]; n--; } return s; }",
    # heap + escaped global
    "extern void* malloc(unsigned long);\n"
    "int** table;\n"
    "void fill(void) { table = malloc(8); if (table) *table = malloc(4); }",
    # function pointers + indirect calls
    "static int inc(int* p) { return *p + 1; }\n"
    "static int dec(int* p) { return *p - 1; }\n"
    "int apply(int which, int* v) {\n"
    "    int (*op)(int*) = which ? inc : dec;\n"
    "    return op(v);\n"
    "}",
    # pointer/integer casts
    "static int hidden;\n"
    "int* keep;\n"
    "unsigned long expose(void) { keep = &hidden; return (unsigned long)keep; }\n"
    "int* recover(unsigned long bits) { return (int*)bits; }",
    # structs and linked traversal
    "struct node { struct node* next; int v; };\n"
    "int total(struct node* head) {\n"
    "    int s = 0;\n"
    "    while (head) { s += head->v; head = head->next; }\n"
    "    return s;\n"
    "}",
    # escaped pointers via external calls
    "extern void publish(int* p);\n"
    "extern int* obtain(void);\n"
    "static int mine;\n"
    "int trade(void) { publish(&mine); int* got = obtain(); return *got; }",
]

#: programs written for the oracle: each exercises a rule the others miss
ORACLE_PROGRAMS = {
    # The summarised libc calls, direct and through a pointer (an
    # indirect call to malloc is ImpFunc), and the memcpy instruction
    # that initialises a local array from a string.  The oracle found
    # that the memcpy summary left the call's result, which is dst, empty.
    "summaries": r"""
extern void* malloc(unsigned long n);
extern void* memcpy(void* d, const void* s, unsigned long n);
extern void free(void* p);
struct pair { int* a; int* b; };
static int x, y;
struct pair* dup(struct pair* out) {
    struct pair* d = malloc(sizeof(struct pair));
    if (!d) return 0;
    struct pair tmp;
    tmp.a = &x; tmp.b = &y;
    struct pair* same = memcpy(d, &tmp, sizeof tmp);
    struct pair copy = *same;
    *out = copy;
    return d;
}
void drop(struct pair* p) { free(p); }
void* (*alloc)(unsigned long) = malloc;
int* via_pointer(void) { return alloc(8); }
extern void say(const char* s);
void greet(void) { char word[8] = "hi"; say(word); }
""",
    # Pointers smuggled through integers in memory (§III-C).
    "smuggling": r"""
union word { long n; int* p; };
static int hidden, other;
int* launder(void) { union word w; w.n = (long)&hidden; return w.p; }
long peek(int** slot) { return (long)*slot; }
int* poke(long bits) { int* cell; *(long*)&cell = bits; return cell; }
int* relay(void) { long bits = (long)&other; bits += 0; return (int*)bits; }
""",
}


def hand_written() -> List[Tuple[str, str]]:
    """(label, source) of every hand-written program the oracle runs."""
    programs = [
        (f"differential[{i}]", src) for i, src in enumerate(DIFFERENTIAL_PROGRAMS)
    ]
    programs += sorted(ORACLE_PROGRAMS.items())
    programs += [(path.name, path.read_text()) for path in sorted(CORPUS.glob("*.c"))]
    return programs


def generated() -> List[Tuple[str, str]]:
    """24 small units from the synthetic corpus, cycling through the
    Table III profiles' generator knobs."""
    profiles = list(PROFILES.values())
    units = []
    for i in range(24):
        spec = replace(
            FileSpec(name=f"unit{i:02d}.c", seed=i, size=30, n_functions=4, n_globals=6),
            **profiles[i % len(profiles)].knobs,
        )
        label = f"{profiles[i % len(profiles)].name}/{spec.name}"
        units.append((label, generate_c_source(spec)))
    return units
