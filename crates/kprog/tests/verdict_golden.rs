//! The verifier's verdicts, pinned. Every program kprog's own tests load,
//! the workload library in `kworkloads`, the A14 programs and one program
//! per [`kprog::RejectRule`] are verified, and each verdict must match its
//! row exactly: a proof's `max_steps`, `paths` and `gas_used`, or a
//! rejection's pc, mnemonic, rule and detail text. A change to the
//! verifier that moves any of these is a change to what kprog proves, and
//! shows here.

use std::sync::Arc;

use kclang::{compile, parse_program, typecheck, TypeInfo};
use kprog::{verify, HookClass, LoadError, ProgEngine, ProgSpec, Proof, Rejection, MAX_BUDGET};
use ksim::{Machine, MachineConfig};
use kworkloads::{CHASE_CQE_SRC, CLAMP_LEN_FILTER_SRC, EVENT_AGGREGATE_SRC, READONLY_FILTER_SRC};

use HookClass::{EventDispatch as Event, SyscallEntry as Entry, UringCqe as Cqe};

const OK_FILTER: &str = r#"int f(int *ctx, int *state) {
    state[0] = state[0] + 1;
    if (ctx[0] == 7) { return -13; }
    return 0;
}"#;

/// A counted loop of `N` trips.
const COUNTED_LOOP: &str = r#"int f(int *ctx, int *state) {
    int i; int acc = 0;
    for (i = 0; i < N; i = i + 1) { acc = acc + i; }
    return acc;
}"#;

const BRANCHY_LOOP: &str = r#"int f(int *ctx, int *state) {
    int i; int n = 0;
    for (i = 0; i < 8; i = i + 1) { if (ctx[0] > i) { n = n + 2; } else { n = n + 1; } }
    return n;
}"#;

const BRANCHLESS_LOOP: &str = r#"int f(int *ctx, int *state) {
    int i; int n = 0;
    for (i = 0; i < 64; i = i + 1) { n = n + 1 + (ctx[0] > i); }
    return n;
}"#;

const PRINT_INT: &str = "int f(int *ctx, int *state) { print_int(ctx[0]); return 1; }";

const EVENT_REWRITE: &str = r#"int f(int *ctx, int *state) {
    if (ctx[1] != 2) { return 0; }
    ctx[2] = ctx[2] * 2;
    return 1;
}"#;

const STRLEN: &str = r#"int len(char *s) {
    int n = 0;
    while (s[n] != '\0') { n = n + 1; }
    return n;
}"#;

const CQE_WINDOW: &str = r#"int f(int *ctx, int *state, int *buf) {
    state[0] = state[0] + buf[0] + buf[1];
    return 1;
}"#;

/// `attach`'s verified reuse program: a literal and a trapping division.
const CQE_DIVIDE: &str = r#"int f(int *ctx, int *state, int *buf) {
    state[0] = state[0] + len("kprog") + buf[0];
    ctx[1] = 100 / ctx[2];
    return state[0] + ctx[0];
}"#;

/// `attach`'s unverified reuse program (heap, recursion, a trap).
const HEAP: &str = r#"
int depth(int n, int d) { if (n == 0) { return 100 / d; } return depth(n - 1, d) + 1; }
int f(int *ctx, int *state) {
    char *msg = "kprog"; int c = msg[1];
    int *p = malloc(16); p[0] = ctx[0]; p[1] = c;
    state[0] = state[0] + p[0] + p[1];
    ctx[1] = depth(3, ctx[2]);
    free(p);
    return state[0];
}"#;

/// Globals with initialisers, char stores, pointer difference and
/// comparison, `int + ptr`, `!`, `&&`/`||` and a helper call.
const MIXED: &str = r#"
int base = 3; int scale = base * 4; char tag[4];
int pick(int *p, int k) { return p[k] + scale; }
int f(int *ctx, int *state) {
    int a[4]; int *p = &a[0]; int *q = 2 + p;
    tag[0] = 'k'; tag[1] = tag[0] + 1;
    a[0] = base; a[1] = q - p;
    a[2] = (q > p) + (p == q) + !(ctx[0]) + (ctx[1] && 1) + (ctx[2] || 0);
    a[3] = tag[1]; *q = *q + 1;
    if (p != 0) { state[1] = pick(a, 1) + pick(a, 3); }
    return a[2];
}"#;

/// Recursion bounded only by the call-depth limit.
const DEEP_RECURSION: &str = r#"
int r(int n) { return r(n + 1); }
int f(int *ctx, int *state) { return r(0); }"#;

/// Init always stops at the division, so no run reaches the entry and the
/// verifier does not explore it: the proof covers init's one path.
const FAILED_INIT: &str = r#"
int g = 5 + 1 / 0;
int f(int *ctx, int *state) { return ctx[0]; }"#;

/// Init reads an uninitialised local: it stops at the division on one
/// branch and returns on the other, so the entry is still explored — from
/// the returned branch only — and its fabricated pointer is rejected.
const SPLIT_INIT: &str = r#"
int pick() { int x; if (x) { return 1 / 0; } return 1; }
int g = pick();
int f(int *ctx, int *state) { int *p = 4096; return *p + ctx[0] + g; }"#;

const USE_AFTER_SCOPE: &str = r#"
int *leak() { int x; x = 1; return &x; }
int f(int *ctx, int *state) { int *p = leak(); return *p; }"#;

/// Each iteration forks on unknown data: the pending paths pile up.
const FORK_STORM: &str = r#"int f(int *ctx, int *state) {
    int i; int n = 0;
    for (i = 0; i < 5000; i = i + 1) { if (ctx[0] > i) { n = n + 1; } }
    return n;
}"#;

/// `src` verified under `spec`, as one row. `typed = false` skips the type
/// checker, so a call to an undefined function compiles to a trap.
fn verdict(name: &str, src: &str, spec: &ProgSpec, typed: bool) -> String {
    let prog = parse_program(src).unwrap();
    let info = if typed { typecheck(&prog).unwrap() } else { TypeInfo::default() };
    row(name, verify(&compile(&prog, &info).unwrap(), spec))
}

fn row(name: &str, v: Result<Proof, Rejection>) -> String {
    match v {
        Ok(p) => {
            format!("{name}: proof max_steps={} paths={} gas={}", p.max_steps, p.paths, p.gas_used)
        }
        Err(r) => format!("{name}: reject pc={} {} {}: {}", r.pc, r.mnemonic, r.rule, r.detail),
    }
}

fn spec(class: HookClass) -> ProgSpec {
    ProgSpec::new(class, "f")
}

fn table() -> String {
    let counted = |n: u32| COUNTED_LOOP.replace('N', &n.to_string());
    let with_len = |src: &str| format!("{STRLEN}\n{src}");
    let f = |body: &str| format!("int f(int *ctx, int *state) {{ {body} }}");
    let unbounded = f("while (ctx[0] != 0) { state[0] = state[0] + 1; } return 0;");
    let rows: Vec<(&str, String, ProgSpec)> = vec![
        ("ok_filter", OK_FILTER.into(), spec(Entry)),
        ("ok_filter_budget_100", OK_FILTER.into(), spec(Entry).with_budget(100)),
        ("counted_loop", counted(10), spec(Entry)),
        ("long_loop_budget_50", counted(1000), spec(Entry).with_budget(50)),
        ("branchy_loop", BRANCHY_LOOP.into(), spec(Entry)),
        ("branchless_loop", BRANCHLESS_LOOP.into(), spec(Entry).with_budget(2048)),
        ("print_int_filter", PRINT_INT.into(), spec(Entry)),
        ("print_int_event", PRINT_INT.into(), spec(Event)),
        ("event_rewrite", EVENT_REWRITE.into(), spec(Event)),
        ("string_len", with_len(&f("return len(\"kprog\");")), spec(Entry)),
        ("cqe_window", CQE_WINDOW.into(), spec(Cqe).with_buf_len(64)),
        ("cqe_divide", with_len(CQE_DIVIDE), spec(Cqe).with_buf_len(16)),
        ("heap", HEAP.into(), spec(Entry)),
        ("mixed", MIXED.into(), spec(Entry)),
        ("deep_recursion", DEEP_RECURSION.into(), spec(Entry)),
        ("divide_by_zero", f("return ctx[0] / 0;"), spec(Entry)),
        ("failed_init", FAILED_INIT.into(), spec(Entry)),
        ("split_init", SPLIT_INIT.into(), spec(Entry)),
        ("chase_cqe", CHASE_CQE_SRC.into(), spec(Cqe).with_buf_len(16)),
        ("readonly_filter", READONLY_FILTER_SRC.into(), spec(Entry)),
        ("clamp_len_filter", CLAMP_LEN_FILTER_SRC.into(), spec(Entry)),
        ("event_aggregate", EVENT_AGGREGATE_SRC.into(), spec(Event)),
        ("a14_flood_first", f("return 0;"), spec(Entry)),
        ("a14_flood_last", f("return 9999;"), spec(Entry)),
        // One program per rule (some rules appear above as well).
        ("forbidden_malloc", f("int *p = malloc(8); return 0;"), spec(Entry)),
        ("unbounded_loop", unbounded, spec(Entry)),
        ("straight_line_over_budget", OK_FILTER.into(), spec(Entry).with_budget(5)),
        ("budget_zero", OK_FILTER.into(), spec(Entry).with_budget(0)),
        ("budget_above_max", OK_FILTER.into(), spec(Entry).with_budget(MAX_BUDGET + 1)),
        ("ctx_out_of_bounds", f("return ctx[4];"), spec(Entry)),
        ("use_after_scope", USE_AFTER_SCOPE.into(), spec(Entry)),
        ("fabricated_pointer", f("int *p = 4096; return *p;"), spec(Entry)),
        ("fabricated_store", f("int *p = 4096; *p = 1; return 0;"), spec(Entry)),
        ("wide_load_of_char_array", f("char b[4]; int *p = b; return *p;"), spec(Entry)),
        ("fork_storm", FORK_STORM.into(), spec(Entry).with_budget(MAX_BUDGET)),
        ("wrong_arity", f("return 0;"), spec(Cqe)),
        ("missing_entry", "int g(int *ctx, int *state) { return 0; }".into(), spec(Entry)),
    ];
    let mut out: Vec<String> = rows.iter().map(|(n, s, sp)| verdict(n, s, sp, true)).collect();
    out.push(verdict("trap_reachable", &f("return g();"), &spec(Entry), false));

    let m = Arc::new(Machine::new(MachineConfig::default()));
    m.faults.arm(1);
    m.faults.add_policy(Some("kprog.verify"), kfault::Policy::FailNth(1));
    let injected = match ProgEngine::new(m).load(OK_FILTER, &spec(Entry)) {
        Err(LoadError::Rejected(r)) => Err(r),
        other => panic!("expected an injected rejection, got {other:?}"),
    };
    out.push(row("injected", injected));
    out.join("\n")
}

const GOLDEN: &str = "\
ok_filter: proof max_steps=18 paths=3 gas=38
ok_filter_budget_100: proof max_steps=18 paths=3 gas=38
counted_loop: proof max_steps=141 paths=2 gas=264
long_loop_budget_50: reject pc=22 step unbounded-loop: loop trip count not bounded by budget: 52 steps > budget 50
branchy_loop: proof max_steps=163 paths=257 gas=16599
branchless_loop: proof max_steps=1227 paths=2 gas=2200
print_int_filter: reject pc=10 print_int opcode-forbidden: print_int is only permitted in event programs
print_int_event: proof max_steps=7 paths=2 gas=15
event_rewrite: proof max_steps=17 paths=3 gas=37
string_len: proof max_steps=68 paths=2 gas=133
cqe_window: proof max_steps=17 paths=2 gas=35
cqe_divide: proof max_steps=96 paths=2 gas=184
heap: reject pc=52 malloc opcode-forbidden: heap allocation is not permitted
mixed: proof max_steps=102 paths=5 gas=477
deep_recursion: proof max_steps=598 paths=2 gas=840
divide_by_zero: proof max_steps=6 paths=2 gas=13
failed_init: proof max_steps=5 paths=1 gas=8
split_init: reject pc=33 load_ind unproven-pointer: load through an integer fabricated as a pointer
chase_cqe: proof max_steps=41 paths=4 gas=98
readonly_filter: proof max_steps=18 paths=3 gas=38
clamp_len_filter: proof max_steps=44 paths=10 gas=199
event_aggregate: proof max_steps=21 paths=3 gas=45
a14_flood_first: proof max_steps=2 paths=2 gas=7
a14_flood_last: proof max_steps=2 paths=2 gas=7
forbidden_malloc: reject pc=8 malloc opcode-forbidden: heap allocation is not permitted
unbounded_loop: reject pc=5 step unbounded-loop: loop trip count not bounded by budget: 4099 steps > budget 4096
straight_line_over_budget: reject pc=6 step budget-exceeded: straight-line cost exceeds budget: 6 steps > budget 5
budget_zero: reject pc=0 <none> budget-exceeded: budget 0 outside 1..=1000000
budget_above_max: reject pc=0 <none> budget-exceeded: budget 1000001 outside 1..=1000000
ctx_out_of_bounds: reject pc=9 load_ind out-of-bounds: no object contains address offset 0x1020 (width 8)
use_after_scope: reject pc=22 load_ind out-of-bounds: access to a local whose scope has exited
fabricated_pointer: reject pc=11 load_ind unproven-pointer: load through an integer fabricated as a pointer
fabricated_store: reject pc=13 store_ind unproven-pointer: store through an integer fabricated as a pointer
wide_load_of_char_array: reject pc=13 load_ind out-of-bounds: access [0x1170,+8) escapes object [0x1170,+4)
fork_storm: reject pc=32 <none> path-explosion: more than 4096 pending paths
wrong_arity: reject pc=0 <none> bad-signature: uring-cqe programs take 3 parameters, 'f' takes 2
missing_entry: reject pc=0 <none> bad-signature: entry function 'f' not defined
trap_reachable: reject pc=5 trap trap-reachable: program contains a compile-time trap (unknown callee or bad lvalue)
injected: reject pc=0 <none> injected: rejection injected by the fault plane
";


#[test]
fn verifier_verdicts_are_pinned() {
    let got = table();
    assert_eq!(got, GOLDEN.trim_end(), "verdict table changed; now:\n{got}");
}
