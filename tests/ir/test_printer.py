"""The text printer on compiled C: one case per construct.

``repro compile`` prints modules with :func:`print_module`, and nothing
reads the text back, so these cases pin the lines each construct prints
to (``tests/frontend/compiled_digests.json`` pins whole files).
"""

from repro.frontend import compile_c
from repro.ir import print_module, verify_module


def printed(src: str) -> str:
    """Compile, verify and print ``src``; every block and instruction
    of the module is one line of the text."""
    module = compile_c(src, "rt.c")
    verify_module(module)
    text = print_module(module)
    assert text == print_module(compile_c(src, "rt.c"))
    lines = text.splitlines()
    defined = [fn for fn in module.functions.values() if not fn.is_declaration]
    blocks = sum(len(fn.blocks) for fn in defined)
    insts = sum(len(b.instructions) for fn in defined for b in fn.blocks)
    assert sum(1 for line in lines if line.startswith("  ")) == insts
    labels = [line for line in lines if line[:1].isalpha() and line.endswith(":")]
    assert len(labels) == blocks
    return text


def assert_lines(text: str, *expected: str) -> None:
    lines = {line.strip() for line in text.splitlines()}
    missing = [line for line in expected if line not in lines]
    assert not missing, f"missing {missing} in:\n{text}"


class TestPrinter:
    def test_globals(self):
        assert_lines(
            printed("static int a = 3; int b; extern int c; int* p = &a;"),
            "@a = internal global i32 = 3",
            "@b = external global i32",
            "@c = import global i32",
            "@p = external global i32* = @a",
        )

    def test_simple_function(self):
        assert_lines(
            printed("int add(int a, int b) { return a + b; }"),
            "define external i32 @add(i32 %a, i32 %b) {",
            "%a.addr = alloca i32",
            "store i32 %a, i32* %a.addr",
            "%b1 = add i32 %a, %b",
            "ret i32 %b1",
        )

    def test_pointers_and_memory(self):
        assert_lines(
            printed(
                "int deref(int** pp) { return **pp; }\n"
                "void assign(int* p, int v) { *p = v; }"
            ),
            "%l1 = load i32*, i32** %pp",
            "%l2 = load i32, i32* %l1",
            "store i32 %v, i32* %p",
            "ret void",
        )

    def test_control_flow(self):
        assert_lines(
            printed(
                "int collatz(int n) {\n"
                "    int steps = 0;\n"
                "    while (n != 1) {\n"
                "        if (n % 2) n = 3 * n + 1; else n = n / 2;\n"
                "        steps++;\n"
                "    }\n"
                "    return steps;\n"
                "}"
            ),
            "while.cond:",
            "%c1 = cmp ne i32 %n, 1",
            "%x2 = zext u1 %c1 to i32",
            "br u1 %c3, label %while.body, label %while.end",
            "%b4 = srem i32 %n.1, 2",
            "%b8 = sdiv i32 %n.3, 2",
            "br label %while.cond",
        )

    def test_phi_nodes(self):
        assert_lines(
            printed("int max(int a, int b) { return a > b ? a : b; }"),
            "%c1 = cmp sgt i32 %a, %b",
            "%cond = phi i32 [%a.1, %cond.then], [%b.1, %cond.else]",
        )

    def test_short_circuit(self):
        assert_lines(
            printed("int both(int* p, int* q) { return p && q; }"),
            "%c1 = cmp ne i32* %p, null",
            "br u1 %c1, label %sc.rhs, label %sc.end",
            "%sc = phi u1 [0, %entry], [%c2, %sc.rhs]",
        )

    def test_calls_direct_and_indirect(self):
        assert_lines(
            printed(
                "static int op(int x) { return -x; }\n"
                "int run(int (*f)(int), int v) { return f(v) + op(v); }"
            ),
            "define internal i32 @op(i32 %x) {",
            "define external i32 @run(i32(i32)* %f, i32 %v) {",
            "%r1 = call i32 %f(i32 %v)",
            "%r2 = call i32 @op(i32 %v.1)",
        )

    def test_structs(self):
        assert_lines(
            printed(
                "struct node { struct node* next; int v; };\n"
                "int sum(struct node* n) {\n"
                "    int s = 0;\n"
                "    while (n) { s += n->v; n = n->next; }\n"
                "    return s;\n"
                "}"
            ),
            "%struct.node = type { struct.node* next, i32 v }",
            "%g2 = gep i32*, struct.node* %n.1, i32 1 ; offset=8",
            "%g5 = gep struct.node**, struct.node* %n.2, i32 0 ; offset=0",
        )

    def test_arrays_and_strings(self):
        assert_lines(
            printed(
                'char greeting[] = "hi";\n'
                "int idx(int* a, int i) { return a[i]; }"
            ),
            "@greeting = external global [3 x i8] = {104, 105, 0}",
            "%g1 = gep i32*, i32* %a, i32 %i",
        )

    def test_casts(self):
        assert_lines(
            printed(
                "unsigned long bits(int* p) { return (unsigned long)p; }\n"
                "int* unbits(unsigned long v) { return (int*)v; }\n"
                "double widen(float f) { return f; }"
            ),
            "%x1 = ptrtoint i32* %p to u64",
            "%x3 = inttoptr i64 %x2 to i32*",
            "%x1 = fpext f32 %f to f64",
        )

    def test_switch(self):
        assert_lines(
            printed(
                "int pick(int c) { switch (c) { case 1: return 10;"
                " case 2: return 20; default: return 0; } }"
            ),
            "%switch.cmp = cmp eq i32 %c, 1",
            "br u1 %switch.cmp, label %case, label %switch.next",
            "br u1 %switch.cmp.1, label %case.1, label %switch.next.1",
            "ret i32 20",
        )

    def test_variadic_declaration(self):
        assert_lines(
            printed(
                "extern int printf(const char* fmt, ...);\n"
                'int hello(void) { return printf("hi"); }'
            ),
            "@.str.1 = internal constant [3 x i8] = {104, 105, 0}",
            "declare import i32 @printf(i8* %arg0, ...)",
            "%r2 = call i32 @printf(i8* %g1)",
        )

    def test_memcpy_lowering(self):
        assert_lines(
            printed(
                "void copy(void) { char dst[4]; char src[4] = \"abc\";"
                " int i; for (i = 0; i < 4; i++) dst[i] = src[i]; }"
            ),
            "memcpy [4 x i8]* %src, [4 x i8]* @.str.1, i64 4",
            "%l8 = load i8, i8* %g7",
            "store i8 %l8, i8* %g5",
        )
