//! Hostile nesting: source that nests far past the parser's limit is a
//! syntax error, never a stack overflow, on a default-sized thread stack
//! (the stack every `yali-serve` reader thread compiles SCAN sources on).

use yali_minic::parser::MAX_DEPTH;

/// The default stack size of a spawned Rust thread.
const STACK: usize = 2 << 20;

/// Compiles `src` on a fresh thread with a default-sized stack and
/// reports whether it compiled; an overflow would abort the test binary.
fn compiles_on_a_default_stack(src: String) -> bool {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(move || yali_minic::compile(&src).is_ok())
        .expect("spawn")
        .join()
        .expect("compile thread")
}

fn parens(n: usize) -> String {
    format!("int f() {{ return {}1{}; }}", "(".repeat(n), ")".repeat(n))
}

fn blocks(n: usize) -> String {
    format!("int f() {{ {} return 0; }}", "{".repeat(n) + &"}".repeat(n))
}

fn ifs(n: usize) -> String {
    format!("int f(int x) {{ {} x = 1; return x; }}", "if (x > 0) ".repeat(n))
}

fn chain(n: usize) -> String {
    format!("int f() {{ return 1{}; }}", "+1".repeat(n - 1))
}

#[test]
fn deep_nesting_is_a_syntax_error_not_a_stack_overflow() {
    const DEEP: usize = 10_000;
    for (shape, src) in [
        ("parentheses", parens(DEEP)),
        ("blocks", blocks(DEEP)),
        ("ifs", ifs(DEEP)),
        ("chain", chain(DEEP)),
    ] {
        assert!(!compiles_on_a_default_stack(src), "{shape}: {DEEP} levels compiled");
    }
    let err = yali_minic::parse(&chain(DEEP)).unwrap_err();
    assert!(err.msg.contains("nesting deeper than"), "{err}");
}

#[test]
fn nesting_within_the_limit_still_compiles() {
    // Leave room for the function body and the `return` around each shape.
    let n = MAX_DEPTH - 4;
    for (shape, src) in [
        ("parentheses", parens(n)),
        ("blocks", blocks(n)),
        ("ifs", ifs(n)),
        ("chain", chain(n)),
    ] {
        assert!(compiles_on_a_default_stack(src), "{shape}: {n} levels refused");
    }
}
