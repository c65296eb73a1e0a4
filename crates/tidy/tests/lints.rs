//! Fixture tests: every lint fires on a minimal violation, is silenced by
//! a well-formed `tidy:allow`, and a directive that suppresses nothing is
//! itself reported.
//!
//! The fixtures live under `tests/fixtures/` — a path the workspace walker
//! skips, so the violations inside them never count against the real tree.

use tidy::check_source;

/// Check a fixture as if it were a library source in a non-allowlisted
/// crate.
fn lint(text: &str) -> Vec<tidy::Finding> {
    check_source("crates/core/src/fixture.rs", text)
}

/// The lints that fired, deduplicated in report order.
fn fired(text: &str) -> Vec<&'static str> {
    lint(text).into_iter().map(|f| f.lint).collect()
}

#[test]
fn clean_fixture_has_no_findings() {
    assert_eq!(lint(include_str!("fixtures/clean.rs")), vec![]);
}

#[test]
fn iteration_fires_with_file_and_line() {
    let findings = lint(include_str!("fixtures/iteration_fires.rs"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].lint, "nondeterministic-iteration");
    assert_eq!(findings[0].file, "crates/core/src/fixture.rs");
    assert_eq!(findings[0].line, 5);
    assert!(findings[0].message.contains("`map`"));
}

#[test]
fn iteration_suppressed_by_trailing_allow() {
    assert_eq!(lint(include_str!("fixtures/iteration_allowed.rs")), vec![]);
}

#[test]
fn iteration_allow_on_btreemap_is_stale() {
    // A BTreeMap iteration never fires, so the directive excuses nothing.
    assert_eq!(
        fired(include_str!("fixtures/iteration_stale.rs")),
        vec!["stale-allow"]
    );
}

#[test]
fn iteration_sees_rustfmt_split_chains() {
    let findings = lint(include_str!("fixtures/iteration_split_chain.rs"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].lint, "nondeterministic-iteration");
    assert_eq!(findings[0].line, 5, "should fire on the `.keys()` line");
}

#[test]
fn iteration_line_survives_an_escaped_newline_in_a_string() {
    // `"a\<newline>b"` continues the string literal onto line 3; the
    // finding must still name the iteration's real source line.
    let src = "fn f() -> String {\n    let s = \"a\\\nb\";\n    s\n}\nfn g(m: &std::collections::HashMap<u32, u32>) {\n    for v in m.values() {\n        let _ = v;\n    }\n}\n";
    assert_eq!(src.lines().nth(6), Some("    for v in m.values() {"));
    let findings = lint(src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].lint, "nondeterministic-iteration");
    assert_eq!(findings[0].line, 7);
}

#[test]
fn ambient_rng_fires_and_is_suppressible() {
    assert_eq!(
        fired(include_str!("fixtures/rng_fires.rs")),
        vec!["ambient-rng"]
    );
    assert_eq!(lint(include_str!("fixtures/rng_allowed.rs")), vec![]);
    assert_eq!(
        fired(include_str!("fixtures/rng_stale.rs")),
        vec!["stale-allow"]
    );
}

#[test]
fn ambient_rng_fires_even_in_test_code() {
    // Seeded determinism applies to tests too — a flaky test is still flaky.
    let text = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn f() {\n        let _ = rand::thread_rng();\n    }\n}\n";
    assert_eq!(fired(text), vec!["ambient-rng"]);
}

#[test]
fn wall_clock_fires_and_is_suppressible() {
    assert_eq!(
        fired(include_str!("fixtures/wallclock_fires.rs")),
        vec!["wall-clock"]
    );
    // Standalone directive on the line above covers the call line.
    assert_eq!(lint(include_str!("fixtures/wallclock_allowed.rs")), vec![]);
}

#[test]
fn wall_clock_respects_the_allowlist() {
    let text = include_str!("fixtures/wallclock_fires.rs");
    assert_eq!(check_source("crates/obs/src/span.rs", text), vec![]);
}

#[test]
fn undocumented_unsafe_fires_without_safety_comment() {
    let findings = lint(include_str!("fixtures/unsafety_fires.rs"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].lint, "undocumented-unsafe");
    assert_eq!(findings[0].line, 2);
}

#[test]
fn adjacent_safety_comment_satisfies_unsafe() {
    assert_eq!(
        lint(include_str!("fixtures/unsafety_safety_comment.rs")),
        vec![]
    );
}

#[test]
fn raw_stderr_fires_and_is_suppressible() {
    assert_eq!(
        fired(include_str!("fixtures/stderr_fires.rs")),
        vec!["raw-stderr"]
    );
    assert_eq!(lint(include_str!("fixtures/stderr_allowed.rs")), vec![]);
}

#[test]
fn println_is_fine_in_a_binary_but_not_a_library() {
    let text = "pub fn out() {\n    println!(\"result\");\n}\n";
    assert_eq!(check_source("crates/core/src/main.rs", text), vec![]);
    assert_eq!(
        check_source("crates/core/src/out.rs", text)[0].lint,
        "raw-stderr"
    );
}

#[test]
fn unchecked_env_fires_and_is_suppressible() {
    assert_eq!(
        fired(include_str!("fixtures/envvar_fires.rs")),
        vec!["unchecked-env"]
    );
    assert_eq!(lint(include_str!("fixtures/envvar_allowed.rs")), vec![]);
}

#[test]
fn unchecked_env_respects_the_allowlist() {
    let text = include_str!("fixtures/envvar_fires.rs");
    assert_eq!(check_source("crates/obs/src/log.rs", text), vec![]);
}

#[test]
fn malformed_directives_are_reported() {
    let findings = lint(include_str!("fixtures/bad_allow.rs"));
    let lints: Vec<_> = findings.iter().map(|f| f.lint).collect();
    assert_eq!(lints, vec!["bad-allow"; 3], "{findings:?}");
    assert!(
        findings[0].message.contains("malformed"),
        "missing colon+reason"
    );
    assert!(findings[1].message.contains("no reason"), "empty reason");
    assert!(
        findings[2].message.contains("unknown lint"),
        "bad lint name"
    );
}

#[test]
fn allow_for_a_different_lint_does_not_suppress() {
    let text =
        "pub fn warn() {\n    eprintln!(\"x\"); // tidy:allow(wall-clock): wrong lint name\n}\n";
    let lints = fired(text);
    // The raw-stderr finding survives AND the mistargeted allow is stale.
    assert_eq!(lints, vec!["raw-stderr", "stale-allow"]);
}

#[test]
fn directives_in_doc_comments_are_prose_not_directives() {
    let text = "/// Suppress with `// tidy:allow(raw-stderr): reason`.\npub fn documented() {}\n";
    assert_eq!(lint(text), vec![]);
}

#[test]
fn patterns_inside_string_literals_do_not_fire() {
    let text =
        "pub fn help() -> &'static str {\n    \"call rand::thread_rng() and Instant::now()\"\n}\n";
    assert_eq!(lint(text), vec![]);
}

#[test]
fn findings_render_as_path_line_lint() {
    let f = &lint(include_str!("fixtures/rng_fires.rs"))[0];
    assert_eq!(
        f.render(),
        format!("crates/core/src/fixture.rs:2: [ambient-rng] {}", f.message)
    );
    let json = f.to_json();
    assert!(json.contains("\"lint\":\"ambient-rng\""), "{json}");
    assert!(json.contains("\"line\":2"), "{json}");
}
