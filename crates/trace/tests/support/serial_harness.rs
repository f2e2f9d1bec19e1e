//! A minimal test runner for integration binaries declared with
//! `harness = false`: every test runs in turn on the main thread, with no
//! other thread alive unless the code under test spawns it.
//!
//! The allocation-counting binaries need this. Their counting allocator is
//! process-wide, and libtest's own threads (spawning the next test,
//! recording results) allocate while a test has the counter armed, so a
//! libtest-run contract test can see allocations that are not its own.
//! Here only the code under test — including the `cbmf-parallel` workers it
//! forks — is counted.
//!
//! The output follows libtest's line format (`test <name> ... ok`, a
//! `test result:` summary, `--list`), and positional arguments filter by
//! substring (`--exact` for whole names), so `cargo test <filter>` works.

use std::process::ExitCode;

/// Runs the named tests in order and reports each in libtest's format.
pub fn run(tests: &[(&'static str, fn())]) -> ExitCode {
    let mut filters = Vec::new();
    let (mut list, mut exact) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--exact" => exact = true,
            // Options that take a value: skip it so it is not a filter.
            "--test-threads" | "--format" | "--color" | "--logfile" | "--skip" | "-Z" => {
                args.next();
            }
            a if a.starts_with('-') => {}
            _ => filters.push(arg),
        }
    }
    let selected: Vec<_> = tests
        .iter()
        .filter(|(name, _)| {
            filters.is_empty()
                || filters.iter().any(|f| {
                    if exact {
                        name == f
                    } else {
                        name.contains(f.as_str())
                    }
                })
        })
        .collect();
    if list {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        return ExitCode::SUCCESS;
    }
    let plural = if selected.len() == 1 { "" } else { "s" };
    println!("\nrunning {} test{plural}", selected.len());
    let mut failed = 0;
    for (name, test) in &selected {
        let ok = std::panic::catch_unwind(*test).is_ok();
        println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
        failed += usize::from(!ok);
    }
    println!(
        "\ntest result: {}. {} passed; {failed} failed; 0 ignored; 0 measured; {} filtered out\n",
        if failed == 0 { "ok" } else { "FAILED" },
        selected.len() - failed,
        tests.len() - selected.len()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
